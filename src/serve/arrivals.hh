/**
 * @file
 * Fleet arrival process: who shows up when, and for how long.
 *
 * The PR-4 soak submits a fixed batch at tick 0; a fleet does not
 * work like that.  An ArrivalSchedule is an ordered list of
 * ArrivalEvents - session joins on the shared serving timeline, each
 * optionally carrying a mid-stream leave point - produced either by
 * a seeded Poisson process (the synthetic soak) or by parsing a
 * plain-text arrival trace (replaying measured traffic).  The
 * schedule is pure data: generating it involves no wall clock and no
 * global state, so the same config yields byte-identical schedules
 * on every run, which is the first link in the fleet determinism
 * chain (docs/SERVING.md, "Arrival process").
 */

#ifndef VSTREAM_SERVE_ARRIVALS_HH
#define VSTREAM_SERVE_ARRIVALS_HH

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace vstream
{

/** One session join on the fleet timeline. */
struct ArrivalEvent
{
    /** Arrival tick on the shared serving timeline. */
    Tick tick = 0;
    /** Session id (unique; sequential for generated schedules). */
    std::uint64_t id = 0;
    /** Viewer departure after this many *local* ticks of playback
     * (0 = watch to the end); see SessionConfig::leave_after. */
    Tick leave_after = 0;
    /** Workload-mix selector, interpreted by the session factory. */
    std::uint32_t mix = 0;
};

/** Seeded Poisson arrival generator parameters. */
struct PoissonArrivalConfig
{
    std::uint64_t seed = 0x5eedULL;
    /** Mean arrival rate, sessions per simulated second. */
    double rate_per_s = 100.0;
    /** Total sessions to generate. */
    std::uint64_t count = 1000;
    /** Probability a viewer leaves mid-stream. */
    double leave_probability = 0.0;
    /** Leave point drawn uniformly from [min_watch, max_watch]. */
    Tick min_watch = 0;
    Tick max_watch = 0;
    /** mix cycles 0..num_mixes-1 by id (0 disables the field). */
    std::uint32_t num_mixes = 0;

    void validate() const;
};

/**
 * Generate a Poisson arrival schedule: exponential inter-arrival
 * gaps at @p cfg.rate_per_s, rounded to whole ticks, with optional
 * mid-stream leaves.  Deterministic in the seed; events are in
 * non-decreasing tick order with sequential ids.
 */
std::vector<ArrivalEvent>
poissonArrivals(const PoissonArrivalConfig &cfg);

/** Outcome of parsing an arrival trace (ok() == parsed cleanly). */
struct ArrivalTraceResult
{
    std::vector<ArrivalEvent> events;
    /** Empty on success; a one-line diagnostic otherwise. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Parse a plain-text arrival trace.
 *
 * One event per line: `<arrival_us> <watch_us> <mix>` - arrival time
 * in microseconds on the fleet timeline (non-decreasing), watched
 * duration in microseconds (0 = watch to the end), and the mix
 * selector.  Blank lines and `#` comments are skipped.  Ids are
 * assigned sequentially from @p first_id.  The parser is
 * fail-closed: any malformed or out-of-order line aborts the parse
 * with a diagnostic naming the line (untrusted-input discipline,
 * docs/ANALYSIS.md).
 */
ArrivalTraceResult
parseArrivalTrace(std::istream &is, std::uint64_t first_id = 0);

} // namespace vstream

#endif // VSTREAM_SERVE_ARRIVALS_HH
