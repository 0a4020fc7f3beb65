/**
 * @file
 * One serving shard: an execution and stats domain of the fleet.
 *
 * A Shard is deliberately small: it tracks the budget currently
 * reserved by the sessions placed on it, an *advisory* slice of the
 * global budget the Placer assigns it (placement weight only - the
 * binding admission decision is global, serve/placer.hh), and a
 * mergeable StatsSnapshot into which every finished session's
 * outcome is folded at admission time and then discarded.  That
 * fold-and-discard is the O(shards) memory story: after absorb()
 * nothing per-session remains but a heap entry in the Placer, so a
 * 100k-session soak retains kilobytes of stats, not gigabytes of
 * registries.
 *
 * Because the snapshot merge is exact (integer counters, fixed-point
 * scalar sums, integer histogram buckets - sim/stats_snapshot.hh),
 * merging the shards' snapshots yields the same bytes no matter how
 * the Placer scattered sessions across them: the shard-count
 * invariance test (tests/test_shard.cc, CI shard-smoke) rests on
 * this file staying arithmetic-exact.
 *
 * Crash recovery (serve/chaos.hh) rests on the same exactness: a
 * shard keeps a copy of its stats and absorb count from its last
 * checkpoint(), and crash() rolls back to that copy.  Reservations
 * are not checkpointed - they describe in-flight sessions, which a
 * crash by definition loses; the Placer re-homes those by failover.
 */

#ifndef VSTREAM_SERVE_SHARD_HH
#define VSTREAM_SERVE_SHARD_HH

#include <cstdint>

#include "serve/session.hh"
#include "sim/stats_snapshot.hh"

namespace vstream
{

/** Budget tracking + mergeable stats for one fleet shard. */
class Shard
{
  public:
    explicit Shard(std::uint32_t id) : id_(id) {}

    std::uint32_t id() const { return id_; }

    // --- placement (advisory) -------------------------------------------

    /** Assign this shard's slice of the global budget.  Slices only
     * weight placement; they never gate admission, so rebalancing
     * them is stats-neutral by construction. */
    void setSlices(double bw_mbps, double fb_bytes);

    void reserve(double bw_mbps, std::uint64_t fb_bytes);
    void release(double bw_mbps, std::uint64_t fb_bytes);

    /** Fullness relative to the slice: max of the bandwidth and
     * frame-buffer reservation ratios (0 when idle). */
    double load() const;

    double bwReservedMBps() const { return bw_reserved_; }
    std::uint64_t fbReservedBytes() const { return fb_reserved_; }
    std::uint32_t active() const { return active_; }

    /**
     * Derate this shard's effective slice by @p f in (0, 1] (1.0 =
     * full capacity).  A browned-out shard looks fuller to load(),
     * so pickShard steers arrivals away - placement-only, exactly
     * like setSlices, hence stats-neutral (tests/test_chaos.cc pins
     * this).
     */
    void setBrownoutFactor(double f);

    // --- stats ----------------------------------------------------------

    /**
     * Fold @p o into this shard's snapshot; the outcome can be
     * discarded afterwards.  Counters, energy aggregates and
     * dwell/span histograms; outcomes with a non-empty group also
     * feed "mix.<group>.*" entries (field layout: docs/FORMATS.md).
     */
    void absorb(const SessionOutcome &o);

    /**
     * Fold one session's settled dedup accounting into the snapshot
     * as "dedup.*" counters.  Only called when the fleet runs with
     * dedup enabled, so dedup-off snapshots stay byte-identical to
     * pre-dedup builds.
     */
    void absorbDedup(const DedupSettle &s);

    /**
     * Fold the cumulative aggregates of fault domain @p domain as
     * "dedup.domain.<domain>.*" counters (end of run; attributes
     * poisoning to its blast radius in the merged fleet view).
     */
    void foldDedupDomain(const DedupDomainStats &st,
                         std::uint64_t entries,
                         std::uint64_t live_refs,
                         std::uint32_t domain);

    const StatsSnapshot &snapshot() const { return snapshot_; }
    std::uint64_t absorbed() const { return absorbed_; }

    // --- checkpoint/crash (serve/chaos.hh) ------------------------------

    /** Save the current stats and absorb count as the state a crash
     * rolls back to. */
    void checkpoint();

    /**
     * Lose everything resident - reservations, the active count, and
     * every outcome absorbed since the last checkpoint() - by rolling
     * the stats and absorb count back to that checkpoint.  Slices and
     * the brownout factor survive: they are the Placer's placement
     * policy, not shard state.  The Placer follows up with journal
     * replay + failover.
     */
    void crash();

  private:
    std::uint32_t id_;
    double bw_slice_ = 0.0;
    double fb_slice_ = 0.0;
    double brownout_factor_ = 1.0;
    double bw_reserved_ = 0.0;
    std::uint64_t fb_reserved_ = 0;
    std::uint32_t active_ = 0;
    std::uint64_t absorbed_ = 0;
    // vstream:shard_local
    StatsSnapshot snapshot_;
    /** The last checkpoint(): stats and absorb count. */
    bool checkpointed_ = false;
    std::uint64_t checkpoint_absorbed_ = 0;
    // vstream:shard_local
    StatsSnapshot checkpoint_;
};

} // namespace vstream

#endif // VSTREAM_SERVE_SHARD_HH
