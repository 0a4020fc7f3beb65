/**
 * @file
 * Fleet chaos: shard-scoped fault injection and the recovery ledger.
 *
 * PR 6's FaultInjector perturbs one session's pipeline; this file
 * scales the same discipline to the fleet.  Three fault classes hit
 * the serving layer itself:
 *
 *   - *crash*: a shard loses everything resident - its in-flight
 *     sessions and any stats absorbed since its last checkpoint.
 *     The shard rolls back to its last checkpoint (an in-memory copy
 *     of its stats, serve/shard.hh), the Placer deterministically
 *     replays the journaled finishes taken since, and fails the
 *     orphaned in-flight sessions over to surviving shards under the
 *     unchanged global budget.
 *   - *brownout*: a shard's placement slice is temporarily derated
 *     by a factor.  Slices are advisory (serve/shard.hh), so a
 *     brownout steers arrivals away without touching admission - it
 *     is stats-neutral by construction, like rebalancing.
 *   - *flood*: a flash crowd - a burst of extra arrivals injected
 *     into the schedule at a point in time, stressing the admission
 *     queue, its deadline and load shedding.
 *
 * Rules use the FaultInjector spec grammar (key=value, comma
 * separated; time suffixes ps/ns/us/ms/s, bare numbers are ms):
 *
 *   crash:    at=TIME,shard=N
 *   brownout: at=TIME,shard=N,len=TIME[,factor=F]
 *   flood:    at=TIME,count=N[,len=TIME][,mix=M]
 *
 * Everything here is deterministic data: rules are fixed points on
 * the virtual timeline, never random draws, so a chaos run is as
 * reproducible as a clean one.  With no rules and no checkpoint
 * period the chaos layer is completely inert and the fleet report is
 * byte-identical to the pre-chaos serving stack (the zero-cost-
 * when-off contract; docs/ROBUSTNESS.md, "Fleet fault tolerance").
 */

#ifndef VSTREAM_SERVE_CHAOS_HH
#define VSTREAM_SERVE_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/arrivals.hh"
#include "sim/ticks.hh"

namespace vstream
{

/** Fleet-level fault classes (shard- and schedule-scoped). */
enum class FleetFaultClass : std::uint8_t
{
    /** Shard loses resident state; recovered via checkpoint +
     * journal replay + failover. */
    kShardCrash = 0,
    /** Shard's placement slice temporarily derated (advisory). */
    kShardBrownout,
    /** Flash crowd: a burst of extra arrivals. */
    kFlashCrowd,
};

/** Stable lower-case name ("crash", "brownout", "flood"). */
const char *fleetFaultClassName(FleetFaultClass c);

/** One fleet fault, pinned to a point on the virtual timeline. */
struct FleetFaultRule
{
    FleetFaultClass cls = FleetFaultClass::kShardCrash;
    /** Tick the fault fires at. */
    Tick at = 0;
    /** Target shard (crash/brownout). */
    std::uint32_t shard = 0;
    /** Brownout length, or the window floods spread over. */
    Tick duration = 0;
    /** Brownout slice derating factor in (0, 1]. */
    double factor = 0.5;
    /** Flood arrival count. */
    std::uint64_t count = 0;
    /** Mix selector for flood arrivals. */
    std::uint32_t mix = 0;
};

/**
 * Parse @p spec (grammar in the file comment) into @p out.
 * Fail-closed: false with a diagnostic in @p error on any malformed
 * field; @p out is then unchanged.
 */
bool tryParseFleetFaultRule(FleetFaultClass cls,
                            const std::string &spec,
                            FleetFaultRule &out, std::string &error);

/** Parse @p spec or die with a message naming the bad field. */
FleetFaultRule parseFleetFaultRule(FleetFaultClass cls,
                                   const std::string &spec);

/** Fleet chaos + recovery configuration. */
struct ChaosConfig
{
    /**
     * Checkpoint every shard's stats each this many ticks
     * (0 = only the implicit tick-0 checkpoint).  Shorter periods
     * bound replay work after a crash; longer periods bound
     * checkpoint overhead (docs/ROBUSTNESS.md discusses the
     * tradeoff).
     */
    Tick checkpoint_period = 0;
    /**
     * Shed arrivals outright once the admission queue holds this
     * many sessions (0 = never shed).
     */
    std::uint64_t shed_depth = 0;
    /** Fault rules, applied at their `at` ticks. */
    std::vector<FleetFaultRule> rules;

    bool anyRuleFor(FleetFaultClass c) const;

    /** Die on rules that cannot apply to a @p shards-wide fleet. */
    void validate(std::uint32_t shards) const;
};

/** The recovery ledger: what the chaos layer did to this run.  All
 * zero on a clean run, which is what keeps the chaos-off report
 * byte-identical (the `recovery` block is emitted only when any()
 * is true; docs/FORMATS.md). */
struct RecoveryTotals
{
    std::uint64_t crashes = 0;
    std::uint64_t brownouts = 0;
    /** Outcomes restored from the last checkpoint at a crash. */
    std::uint64_t restored = 0;
    /** Journaled finishes replayed on top of the checkpoint. */
    std::uint64_t replayed = 0;
    /** In-flight sessions re-homed to surviving shards. */
    std::uint64_t failed_over = 0;
    /** Arrivals shed at the queue-depth limit. */
    std::uint64_t shed = 0;
    /** Queued sessions expired past the admission deadline. */
    std::uint64_t queue_timeouts = 0;

    bool
    any() const
    {
        return crashes || brownouts || restored || replayed ||
               failed_over || shed || queue_timeouts;
    }

    bool operator==(const RecoveryTotals &other) const = default;
};

/**
 * Merge every flood rule's burst into @p base: rule `i`'s `count`
 * arrivals spread evenly over [at, at + len], ids sequential after
 * the largest base id, mix from the rule.  The result is sorted
 * stably by tick, so base arrivals keep their relative order.
 * Harnesses call this *before* Placer::run - the flood is part of
 * the offered load, so whale accounting and arrival totals see it.
 * With no flood rules, returns @p base unchanged.
 */
std::vector<ArrivalEvent>
withFlashCrowds(std::vector<ArrivalEvent> base,
                const ChaosConfig &chaos);

} // namespace vstream

#endif // VSTREAM_SERVE_CHAOS_HH
