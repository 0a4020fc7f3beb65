/**
 * @file
 * Fleet placer: global admission, least-loaded routing, rebalancing,
 * and fault-tolerant recovery.
 *
 * The Placer drives an ArrivalSchedule through N Shards on one
 * virtual serving timeline.  The division of labour is what makes
 * the fleet's JSON byte-identical at any --shards count:
 *
 *  - *Admission is global.*  One budget pool (ServeConfig: DRAM
 *    bandwidth, frame-buffer bytes, max_active), one strict-FIFO
 *    wait queue with an optional deadline, one whale-rejection rule -
 *    evaluated on the shared timeline.  Nothing about
 *    admit/queue/reject depends on the shard count, so single-shard
 *    serving is simply a Placer with FleetConfig::shards = 1.
 *
 *  - *Placement is advisory.*  Each shard owns a slice of the global
 *    budget as a placement weight; arrivals route to the least-
 *    loaded shard (strict-less compare, so the lowest id wins
 *    ties), and a periodic rebalance re-weights slices toward
 *    observed load.  Placement picks *where* a session's stats are
 *    folded, never *whether* or *when* it runs - and because shard
 *    snapshots merge exactly (sim/stats_snapshot.hh), the merged
 *    fleet view is placement-independent.
 *
 *  - *Sessions are hermetic.*  Each arrival is rehearsed on its own
 *    private substrate (serve/session.hh, rehearseSession) in
 *    parallelMap blocks; its outcome stays resident only while the
 *    session is in flight and is folded into the routed shard when
 *    it finishes.  Memory is O(shards + active + waiting), not
 *    O(sessions).
 *
 *  - *Faults are recoverable.*  With a ChaosConfig (serve/chaos.hh)
 *    the Placer periodically has each shard checkpoint its stats
 *    (Shard::checkpoint, an in-memory copy) and journals finishes
 *    between checkpoints.  A shard crash rolls the shard back to its
 *    last checkpoint, deterministically replays the journal (the
 *    factory must be a pure function of the arrival for this - both
 *    shipped harnesses are), and fails in-flight sessions over to
 *    surviving shards under the same global budget.  Because merge
 *    order cannot reach the bytes, a recovered run's fleet report
 *    equals the unfailed run's, modulo the explicit `recovery`
 *    block.  With chaos off the whole layer is inert and the report
 *    is byte-identical to the pre-chaos stack.
 *
 * Callers that need per-session outcomes (the single-shard soak and
 * vstream_serve's per-session table) pass an OutcomeObserver; fleet
 * callers pass none and pay nothing for it.
 *
 * Event ordering at equal ticks is pinned: finish < queue-timeout <
 * checkpoint < chaos < rebalance - so budget freed at tick T is
 * visible to everything else at T, an admission wins a tie with the
 * queue deadline, and a checkpoint at the crash tick loses nothing.
 *
 * docs/SERVING.md walks the serving flow, docs/ROBUSTNESS.md the
 * fault tolerance; tests/test_shard.cc pins shard-count and jobs
 * invariance, tests/test_chaos.cc pins recovery equality.
 */

#ifndef VSTREAM_SERVE_PLACER_HH
#define VSTREAM_SERVE_PLACER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "serve/arrivals.hh"
#include "serve/chaos.hh"
#include "serve/shard.hh"
#include "serve/shared_mach.hh"

namespace vstream
{

/** Aggregate budgets guarded at admission. */
struct ServeConfig
{
    /** Aggregate DRAM-bandwidth budget, MB/s (estimated demand of
     * all active sessions must stay below this). */
    double bandwidth_budget_mbps = 2000.0;
    /** Aggregate frame-buffer pool budget, bytes. */
    std::uint64_t framebuffer_budget_bytes = 64ULL << 20;
    /** Hard cap on concurrently active sessions. */
    std::uint32_t max_active = 64;
    /**
     * Admission-queue deadline in ticks (0 = wait forever, the
     * legacy behaviour).  A session still queued this long after
     * submission expires with a queue_timeout outcome instead of
     * occupying the waitlist indefinitely - the bound the
     * bounded-queue lint (tools/vstream_analyze) checks for.
     */
    Tick queue_deadline = 0;

    void validate() const;
};

/** Fleet-level configuration: global budgets + shard layout. */
struct FleetConfig
{
    /** Global admission budgets. */
    ServeConfig serve;
    /** Shard count; slices start as an equal split of the global
     * budget.  Any value >= 1 yields byte-identical fleet JSON. */
    std::uint32_t shards = 1;
    /** Rehearsal worker threads (parallelMap fan-out). */
    unsigned jobs = 1;
    /** Rehearse arrivals in blocks of this many sessions, bounding
     * in-flight outcomes independently of the fleet size. */
    std::uint32_t rehearse_block = 256;
    /** Re-weight shard slices every this many ticks on the virtual
     * timeline (0 = never).  Placement-only, hence stats-neutral. */
    Tick rebalance_period = 0;
    /** Fault injection + checkpoint/recovery policy; default is
     * inert (serve/chaos.hh). */
    ChaosConfig chaos;
    /** Shared MACH dedup tier policy; default is off, and off means
     * the tier is never constructed and fleet JSON is byte-identical
     * to pre-dedup builds (serve/shared_mach.hh). */
    DedupConfig dedup;

    void validate() const;
};

/** Builds the SessionConfig for one arrival.  The Placer overwrites
 * id and leave_after from the ArrivalEvent afterwards; everything
 * else (including stats_group, typically derived from the event's
 * mix) is the factory's to set.  With crash rules configured the
 * factory must be *pure* - crash recovery replays journaled arrivals
 * through it and the replayed config must match the original. */
using SessionFactory =
    std::function<SessionConfig(const ArrivalEvent &)>;

/** Sees every session's outcome once, in completion order: finished
 * sessions (rebased onto the serving timeline) and queue_timeout
 * markers for arrivals that expired in the wait queue.  Rejected
 * arrivals and shed floods produce no outcome. */
using OutcomeObserver = std::function<void(const SessionOutcome &)>;

/** Global admission + least-loaded routing across Shards. */
class Placer
{
  public:
    Placer(FleetConfig cfg, SessionFactory factory,
           OutcomeObserver observer = nullptr);

    Placer(const Placer &) = delete;
    Placer &operator=(const Placer &) = delete;

    /**
     * Drive @p arrivals (non-decreasing ticks) to completion:
     * rehearse in blocks, admit/queue/reject on the virtual
     * timeline, fold outcomes into shards as sessions finish, drain
     * the wait queue as budget frees.  Inject flash crowds first
     * with withFlashCrowds - floods are offered load, so they enter
     * through the schedule, not behind the Placer's back.  Callable
     * once.
     */
    void run(const std::vector<ArrivalEvent> &arrivals);

    /** Merge of every shard's snapshot: the fleet-wide view.  Exact
     * arithmetic makes it independent of shard count, placement and
     * merge order. */
    StatsSnapshot fleetSnapshot() const;

    const std::vector<Shard> &shards() const { return shards_; }

    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t queuedTotal() const { return queued_; }
    std::uint64_t rejected() const { return rejected_; }
    /** Slice re-weights performed.  Diagnostic only - never emitted
     * in fleet JSON, since placement detail is outside the
     * shard-count-invariance contract. */
    std::uint64_t rebalances() const { return rebalances_; }
    /** Peak concurrently-active sessions on the timeline. */
    std::uint64_t peakActive() const { return peak_active_; }
    /** Peak wait-queue depth (bounds pending-outcome memory). */
    std::uint64_t peakWaiting() const { return peak_waiting_; }
    /** Tick of the last session finish. */
    Tick endTick() const { return cur_tick_; }

    // --- fault tolerance ------------------------------------------------

    /** The recovery ledger; all-zero on a clean run. */
    const RecoveryTotals &recovery() const { return recovery_; }
    /** Checkpoint rounds taken (each covers every shard). */
    std::uint64_t checkpointsTaken() const
    {
        return checkpoints_taken_;
    }

    /** The shared dedup tier (nullptr when dedup is off).  Fault
     * domains map 1:1 onto shards. */
    const SharedMachTier *dedupTier() const { return dedup_.get(); }

  private:
    /** A rehearsed session waiting for budget. */
    struct Pending
    {
        RehearsedSession reh;
        /** The arrival it came from (journaled on finish). */
        ArrivalEvent arrival;
        double bw_mbps = 0.0;
        std::uint64_t fb_bytes = 0;
        /** Tick it entered the wait queue (deadline base). */
        Tick enqueue = 0;
    };

    /** Heap entry for one admitted session; everything else lives
     * in live_ so failover can re-home it. */
    struct Finish
    {
        Tick tick = 0;
        std::uint64_t seq = 0;

        /** Min-heap order: earliest (tick, seq) first. */
        bool
        operator>(const Finish &o) const
        {
            if (tick != o.tick) {
                return tick > o.tick;
            }
            return seq > o.seq;
        }
    };

    /** Resident state of one in-flight session.  The outcome is
     * rebased at admit and folded into its shard at finish, so a
     * crash before the finish cleanly unwinds it. */
    struct Live
    {
        SessionOutcome outcome;
        ArrivalEvent arrival;
        Tick start = 0;
        std::uint32_t shard = 0;
        double bw_mbps = 0.0;
        std::uint64_t fb_bytes = 0;
        /** Settled dedup accounting (admit time); folded into the
         * shard at finish. */
        DedupSettle dedup_settle;
        /** Tier refcounts this session holds until it finishes. */
        DedupLease dedup_lease;
    };

    /** One finish recorded since the shard's last checkpoint;
     * replayed through the (pure) factory on crash recovery. */
    struct JournalEntry
    {
        ArrivalEvent arrival;
        Tick start = 0;
        /** Settled dedup accounting as of the original admission.
         * Journaled, not recomputed: settlement depends on the tier
         * state at admit time, which replay cannot reconstruct. */
        DedupSettle dedup_settle;
        /** The session's block log, for rebuilding tier content
         * deterministically (stats-suppressed) after a crash. */
        DedupRecord dedup_blocks;
    };

    /** A chaos rule expanded onto the timeline (brownouts become a
     * start/end pair). */
    struct ChaosEvent
    {
        enum class Kind : std::uint8_t
        {
            kCrash = 0,
            kBrownoutStart,
            kBrownoutEnd,
        };

        Tick tick = 0;
        Kind kind = Kind::kCrash;
        std::uint32_t shard = 0;
        double factor = 1.0;
    };

    bool fits(double bw_mbps, std::uint64_t fb_bytes) const;
    bool couldEverFit(double bw_mbps, std::uint64_t fb_bytes) const;

    /** Process finishes, queue deadlines, checkpoints, chaos events
     * and rebalance points up to @p t; leaves cur_tick_ == t. */
    void advanceTo(Tick t);

    /** Pop the earliest finish: release budget, fold the outcome
     * into its shard, journal it, drain the queue. */
    void finishOne();

    /** Expire the wait-queue front past its admission deadline. */
    void expireFront();
    /** Deadline of the wait-queue front (maxTick when unbounded). */
    Tick frontDeadline() const;

    /** Route + reserve @p p starting at @p start; the outcome goes
     * resident until the finish event folds it in. */
    void admit(Pending &&p, Tick start);

    void submitRehearsed(Pending &&p);
    void drainWaiting();
    std::uint32_t pickShard() const;
    void rebalance();

    void takeCheckpoint(std::uint32_t shard);
    void takeAllCheckpoints();
    void applyChaos(const ChaosEvent &ev);
    void crashShard(std::uint32_t shard);
    /** Least-loaded shard excluding @p crashed (failover target). */
    std::uint32_t pickSurvivor(std::uint32_t crashed) const;

    FleetConfig cfg_;
    SessionFactory factory_;
    OutcomeObserver observer_;
    /** Cross-session shared state; only ever touched on the serial
     * timeline (admit/finish/crash), never by rehearsal workers. */
    // vstream:shard_local
    std::unique_ptr<SharedMachTier> dedup_;
    // vstream:shard_local
    std::vector<Shard> shards_;
    // vstream:shard_local
    std::priority_queue<Finish, std::vector<Finish>,
                        std::greater<Finish>>
        active_;
    /** In-flight sessions by admission seq.  Ordered map: crash
     * failover iterates it, and that order must be deterministic. */
    std::map<std::uint64_t, Live> live_;
    /** Sessions waiting for budget; the front expires once it has
     * queued past ServeConfig::queue_deadline. */
    std::deque<Pending> waiting_;

    /** Per-shard finish journals since the last checkpoint (only
     * populated when crash rules exist). */
    std::vector<std::vector<JournalEntry>> journals_;
    /** Active brownouts per shard (overlaps nest). */
    std::vector<std::uint32_t> brownout_depth_;
    /** Chaos rules expanded and sorted by tick. */
    std::vector<ChaosEvent> chaos_events_;
    std::size_t next_chaos_ = 0;

    Tick cur_tick_ = 0;
    Tick next_rebalance_ = 0;
    Tick next_checkpoint_ = maxTick;
    std::uint64_t next_seq_ = 0;
    double bw_reserved_ = 0.0;
    std::uint64_t fb_reserved_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t queued_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t rebalances_ = 0;
    std::uint64_t peak_active_ = 0;
    std::uint64_t peak_waiting_ = 0;
    std::uint64_t checkpoints_taken_ = 0;
    bool journaling_ = false;
    bool checkpointing_ = false;
    RecoveryTotals recovery_;
    bool ran_ = false;
};

} // namespace vstream

#endif // VSTREAM_SERVE_PLACER_HH
