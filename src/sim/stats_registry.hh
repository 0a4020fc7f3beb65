/**
 * @file
 * Hierarchical statistics registry.
 *
 * Every stat-bearing component registers a read-only callback over
 * each raw counter (a scalar) and its SampleSeries under a
 * hierarchical dotted name such as
 * "vd.cache.missRate" or "mem.dram.vd.activations".  The registry is
 * then the single source of truth for reporting: the text, JSON and
 * CSV exporters all walk the same entry list, so a stat registered
 * once shows up in every output format, and a stat that is *not*
 * registered cannot be printed at all (tools/vstream_analyze's
 * registry-stats rule enforces this by banning direct printStat
 * calls outside src/sim).
 *
 * The registry does not own the stats: components keep their
 * counters, register pointers in regStats(), and the registry reads
 * them at dump time.  This keeps the hot paths free of any
 * registry involvement - incrementing a counter stays a plain
 * member-variable increment; the registry is only walked when a dump
 * is requested (see docs/STATS.md and DESIGN.md §11).
 *
 * Names must match [A-Za-z0-9_] segments separated by single dots;
 * duplicate registration is a panic (two components writing the same
 * name would silently shadow each other in every exporter).
 */

#ifndef VSTREAM_SIM_STATS_REGISTRY_HH
#define VSTREAM_SIM_STATS_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"

namespace vstream
{

/** The hierarchical stat registry; see file comment. */
class StatsRegistry
{
  public:
    StatsRegistry() = default;

    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    // --- registration ---------------------------------------------------
    // Each add() panics on an invalid or duplicate name.  The
    // registered object must outlive the registry (in practice both
    // live for one simulation run).

    /** Register @p s under @p name (desc taken from the series). */
    void add(const std::string &name, stats::SampleSeries &s);

    /** Register a read-only scalar over an existing raw counter. */
    void addCallback(const std::string &name, std::string desc,
                     std::function<double()> fn);

    // --- queries --------------------------------------------------------

    bool contains(const std::string &name) const;
    std::size_t size() const { return pool_.size(); }

    /** All registered names in hierarchical (lexicographic) order. */
    std::vector<std::string> names() const;

    /** Value of a scalar (a series' mean); panics on unknown name. */
    double value(const std::string &name) const;

    // --- exporters ------------------------------------------------------

    /** gem5-style "name value  # desc" lines, hierarchically sorted. */
    void dumpText(std::ostream &os) const;

    /** Flat JSON object keyed by dotted name; see docs/STATS.md. */
    void dumpJson(std::ostream &os) const;

    /** "name,kind,field,value" rows, one row per exported field. */
    void dumpCsv(std::ostream &os) const;

  private:
    enum class Kind : std::uint8_t
    {
        kCallback,
        kSeries,
    };

    struct Entry
    {
        std::string name;
        Kind kind = Kind::kCallback;
        std::string desc;
        stats::SampleSeries *series = nullptr;
        std::function<double()> callback;
    };

    static const char *kindName(Kind k);

    /** Validate @p name and insert; panics on duplicates. */
    Entry &insert(const std::string &name, Kind kind);

    /** (field, value) pairs exported for @p e in every format. */
    static std::vector<std::pair<std::string, double>>
    fields(const Entry &e);

    /** Entries sorted by name - the hierarchical dump order.  Built
     * lazily so registration stays O(1) amortized. */
    const std::vector<const Entry *> &sortedEntries() const;

    // Flat storage plus an O(1) name index.  Registration and the
    // contains()/value() lookups that tests and exporters hammer no
    // longer pay std::map's O(log n) string compares; the
    // lexicographic order every dump format emits is recovered by the
    // lazily sorted view, so output bytes are unchanged.
    std::deque<Entry> pool_; // deque: growth keeps Entry pointers valid
    std::unordered_map<std::string, Entry *> index_;
    mutable std::vector<const Entry *> sorted_;
};

/** True iff @p name is a well-formed dotted stat name. */
bool validStatName(const std::string &name);

} // namespace vstream

#endif // VSTREAM_SIM_STATS_REGISTRY_HH
