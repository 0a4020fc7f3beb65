/**
 * @file
 * Mergeable statistics snapshot.
 *
 * A StatsRegistry is a live view over one component's counters; it is
 * deliberately non-copyable and pointer-based, which is exactly wrong
 * for fleet aggregation where 100k sessions come and go and only
 * O(shards) state may stay resident.  StatsSnapshot is the frozen,
 * value-typed counterpart: named counters, scalar aggregates and
 * HdrHistograms that a shard folds session outcomes into at eviction
 * time, and that the placer folds shard-by-shard into one fleet view
 * at the end of a run.
 *
 * Merging must not depend on how sessions were partitioned across
 * shards, so every merged quantity is exact integer arithmetic:
 *   - counters are uint64 sums;
 *   - scalar aggregates keep their sum in Q44.20 fixed point
 *     (int64, kScalarScale = 2^20) with exact double min/max, so the
 *     sum of any permutation of contributions is bit-equal;
 *   - histograms are integer bucket counts (see sim/hdr_histogram.hh).
 * The resulting JSON (docs/FORMATS.md, "merged-shard snapshot") is
 * byte-identical at any --shards and --jobs count.  A snapshot is a
 * plain value, so a shard's crash checkpoint is simply a copy of one
 * (serve/shard.hh).
 */

#ifndef VSTREAM_SIM_STATS_SNAPSHOT_HH
#define VSTREAM_SIM_STATS_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <string>

#include "sim/hdr_histogram.hh"

namespace vstream
{

class JsonWriter;

/** Order-independent scalar aggregate (count/sum/min/max). */
struct ScalarAgg
{
    std::uint64_t count = 0;
    /** Sum in Q44.20 fixed point: exact under any merge order. */
    std::int64_t sum_fp = 0;
    double min = 0.0;
    double max = 0.0;

    double mean() const;
    double sum() const;

    void add(double v);
    void merge(const ScalarAgg &other);

    bool operator==(const ScalarAgg &other) const = default;
};

/** Value-typed, mergeable bundle of named stats; see file comment. */
class StatsSnapshot
{
  public:
    /** Fixed-point scale for ScalarAgg sums (2^20). */
    static constexpr std::int64_t kScalarScale =
        std::int64_t{1} << 20;

    // --- recording ------------------------------------------------------

    /** Bump counter @p name by @p n (created at zero on first use). */
    void addCount(const std::string &name, std::uint64_t n = 1);

    /** Fold @p v into scalar aggregate @p name. */
    void addScalar(const std::string &name, double v);

    /** Histogram @p name, created with @p unit_bits on first use. */
    HdrHistogram &hist(const std::string &name,
                       unsigned unit_bits = 7);

    // --- merging --------------------------------------------------------

    /**
     * Fold @p other into this snapshot.
     *
     * Exactly associative and commutative over any partition of the
     * underlying observations; merging an empty snapshot is the
     * identity (tests/test_hdr_histogram.cc pins all three).
     */
    void merge(const StatsSnapshot &other);

    // --- queries --------------------------------------------------------

    bool empty() const
    {
        return counters_.empty() && scalars_.empty() &&
               hists_.empty();
    }

    /** Counter value (0 when never bumped). */
    std::uint64_t count(const std::string &name) const;

    /** Scalar aggregate; null when @p name was never added. */
    const ScalarAgg *scalar(const std::string &name) const;

    /** Histogram; null when @p name was never created. */
    const HdrHistogram *histogram(const std::string &name) const;

    bool operator==(const StatsSnapshot &other) const = default;

    // --- export ---------------------------------------------------------

    /**
     * Emit {"counters": {...}, "scalars": {...}, "histograms":
     * {...}} as the *value* of the writer's pending key.  Keys are
     * lexicographic; see docs/FORMATS.md for the field layout.
     */
    void dumpJson(JsonWriter &jw) const;

  private:
    // Ordered maps: dump order is the key order, independent of
    // insertion (and hence of shard/job scheduling).
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, ScalarAgg> scalars_;
    std::map<std::string, HdrHistogram> hists_;
};

} // namespace vstream

#endif // VSTREAM_SIM_STATS_SNAPSHOT_HH
