/**
 * @file
 * Shared cross-session MACH dedup tier with poisoning containment.
 *
 * ROADMAP's top open item: at fleet scale thousands of sessions
 * decode the same popular titles, so a block one session already
 * materialized does not need a second 48 B DRAM write.  This tier
 * sits *above* the per-session MachArray and is the first
 * state in the codebase that crosses a session boundary, which makes
 * its design as much about containment as caching:
 *
 *  - **Record, then settle serially.**  Sessions are rehearsed
 *    hermetically (possibly in parallel worker threads), so the tier
 *    is never consulted during decode.  Instead a DedupRecorder
 *    (attached via MachArray's write observer) logs the distinct
 *    blocks a session materialized, and the placer settles that log
 *    against the tier on its serial timeline at admission.  Jobs- and
 *    seed-invariance are preserved by construction.
 *
 *  - **Traffic, not pixels.**  A shared hit elides the DRAM write in
 *    the *accounting* (serve.dedup.sharedHits / bytesElided), never
 *    in the session's own pipeline: decode timing, pixel digests,
 *    drops and underruns are bit-identical with dedup on or off.
 *    This replaces the old "clean sessions are bit-identical to solo
 *    runs" invariant and is tested explicitly (tests/test_dedup.cc).
 *
 *  - **Blast radius = fault domain.**  The tier is partitioned per
 *    fault domain (fleet: the routed shard).  Every citation is
 *    verify-on-hit (full byte compare), and a per-domain circuit
 *    breaker turns a false-hit storm into an *epoch bump*: all of
 *    the domain's old-epoch entries become unciteable, refcounts
 *    drain as their sessions finish, and memory reclaims.  Poisoning
 *    one domain can therefore never leak into a neighbour
 *    (docs/ROBUSTNESS.md, "Shared MACH & poisoning containment").
 */

#ifndef VSTREAM_SERVE_SHARED_MACH_HH
#define VSTREAM_SERVE_SHARED_MACH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/flat_table.hh"

namespace vstream
{

/** One distinct block a session materialized: the original (unforged)
 * digest/aux as seen by MachArray::store, where its
 * ground-truth bytes sit in the owning record's arena, and how many
 * times the session wrote a block with this identity. */
struct DedupBlock
{
    std::uint32_t digest = 0;
    std::uint16_t aux = 0;
    /** store() calls with this (digest, aux) and these bytes. */
    std::uint32_t writes = 0;
    /** The bytes are DedupRecord::arena[offset, offset + len). */
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
};

/** The per-session materialization log, in first-write order.  All
 * truth bytes share one arena, so a log allocates as it grows, not
 * once per block. */
struct DedupRecord
{
    std::vector<DedupBlock> blocks;
    std::vector<std::uint8_t> arena;
    /** Writes whose (digest, aux) matched an earlier block with
     * *different* bytes - an organic collision; counted and excluded
     * from dedup rather than risking a wrong citation. */
    std::uint64_t skipped_collisions = 0;

    bool any() const
    {
        return !blocks.empty() || skipped_collisions != 0;
    }
    std::uint64_t totalWrites() const;

    /** Log a new block identity whose bytes are @p truth. */
    void append(std::uint32_t digest, std::uint16_t aux,
                std::uint32_t writes,
                std::span<const std::uint8_t> truth);

    /** The ground-truth bytes of @p b, one of this record's blocks. */
    std::span<const std::uint8_t>
    truth(const DedupBlock &b) const
    {
        return {arena.data() + b.offset, b.len};
    }
};

/**
 * Per-session observer of unique-block writes.  One recorder per
 * session, owned by the session, touched only from its (possibly
 * worker-thread) rehearsal - nothing here is shared.
 */
class DedupRecorder
{
  public:
    /** MachWriteObserver entry point. */
    void observe(std::uint32_t digest, std::uint16_t aux,
                 std::span<const std::uint8_t> truth);

    /** Move the log out (the recorder resets to empty). */
    DedupRecord take();

    const DedupRecord &record() const { return rec_; }

  private:
    /** (digest<<16)|aux -> index into rec_.blocks; per-session
     * private scratch. */
    // vstream:shard_local
    FlatMap<std::uint64_t, std::uint32_t> index_;
    /** The log being built; per-session private. */
    // vstream:shard_local
    DedupRecord rec_;
};

/** Deterministic digest-collision injection against one domain's
 * shared tier ("domain=1,rate=0.25,seed=9"): at publish time a
 * poisoned consult is forged to collide with a previously published
 * entry of different content, exercising verify-on-hit and the
 * breaker exactly like a real poisoning attempt would. */
struct DedupPoisonRule
{
    std::uint32_t domain = 0;
    /** P(consult is forged), in [0, 1]. */
    double rate = 0.0;
    std::uint64_t seed = 1;
};

/** Parse "domain=N,rate=F,seed=N" fail-closed (rate required). */
bool tryParseDedupPoisonRule(const std::string &spec,
                             DedupPoisonRule &out, std::string &error);

/** Tier-wide configuration. */
struct DedupConfig
{
    bool enabled = false;
    /** Breaker window length, in consults. */
    std::uint64_t breaker_window = 4096;
    /** Verify-on-hit mismatches within one window that trip the
     * domain's breaker. */
    std::uint64_t breaker_false_hits = 4;
    /** Consults a tripped domain ignores before sharing resumes
     * (the new epoch is already in force). */
    std::uint64_t quarantine_consults = 1024;
    std::vector<DedupPoisonRule> poison;
};

/** Outcome of settling one session's record against the tier.  All
 * counters are write-granular except unique_published and
 * false_hits. */
struct DedupSettle
{
    /** Writes elided by citing a block *another* session published. */
    std::uint64_t shared_hits = 0;
    /** Writes elided against the session's own published block (the
     * per-session MACH history window missed them; the tier does
     * not). */
    std::uint64_t self_hits = 0;
    /** DRAM write bytes elided (48 B per elided write). */
    std::uint64_t bytes_elided = 0;
    /** Blocks this session inserted into the tier. */
    std::uint64_t unique_published = 0;
    /** Consults demoted by the verify-on-hit byte compare. */
    std::uint64_t false_hits = 0;
    /** Writes that could not be considered for sharing (domain
     * quarantined, or the slot still draining an old epoch). */
    std::uint64_t blocked_writes = 0;

    bool any() const;
    DedupSettle &operator+=(const DedupSettle &o);
};

/** One citation a session holds: which key, the epoch of the entry
 * when the ref was taken (a trip mid-publish means one lease can span
 * epochs), and the slab slot the entry occupies.  The ref pins the
 * entry to its slot until a wipe, so release() checks the slot and
 * never looks the key up. */
struct DedupLeaseKey
{
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;
    std::uint32_t slot = 0;
};

/** Every refcount a session holds against its domain; released when
 * the session finishes (or voided wholesale by a domain wipe). */
struct DedupLease
{
    std::uint32_t domain = 0;
    std::vector<DedupLeaseKey> keys;

    bool empty() const { return keys.empty(); }
};

/** Cumulative per-domain aggregates; survive wipes and trips so a
 * fleet report can attribute poisoning to its blast radius. */
struct DedupDomainStats
{
    /** Current epoch; bumps on breaker trip and on domain wipe. */
    std::uint64_t epoch = 0;
    /** Breaker trips (epoch bumps caused by false-hit storms). */
    std::uint64_t trips = 0;
    std::uint64_t consults = 0;
    std::uint64_t false_hits = 0;
    std::uint64_t shared_hits = 0;
    std::uint64_t self_hits = 0;
    std::uint64_t bytes_elided = 0;
    std::uint64_t unique_published = 0;
    std::uint64_t blocked_writes = 0;

    DedupDomainStats &operator+=(const DedupDomainStats &o);
};

/**
 * The refcounted, per-fault-domain shared MACH tier.
 *
 * Single-threaded by design: every method runs on the placer's
 * serial timeline.  The shard-local annotations
 * below are load-bearing - the analyzer's shared-state-guarded rule
 * requires them, and the lock-discipline pass flags any use from a
 * parallelFor/parallelMap worker.
 */
class SharedMachTier
{
  public:
    SharedMachTier(const DedupConfig &cfg, std::uint32_t domains);

    std::uint32_t domains() const
    {
        return static_cast<std::uint32_t>(domains_.size());
    }

    /**
     * Settle @p rec against @p domain: verify-on-hit citations elide
     * write accounting, fresh blocks publish with refcount 1, and
     * every acquired ref is appended to @p lease for release at
     * session finish.  Deterministic given the call sequence.
     */
    DedupSettle publish(std::uint32_t domain, const DedupRecord &rec,
                        DedupLease &lease);

    /** Drop the refs of @p lease.  Old-epoch entries whose last ref
     * drains are erased (the quarantine reclaim path); releases
     * against wiped entries no-op. */
    void release(const DedupLease &lease);

    /**
     * Crash-recovery rebuild: re-insert @p rec's blocks into
     * @p domain at the current epoch with zero refs and *no* stats -
     * replaying the journal must reconstruct tier content
     * deterministically without double-counting elisions.
     */
    void republish(std::uint32_t domain, const DedupRecord &rec);

    /** Shard crash: every entry of @p domain is dropped (all
     * outstanding leases become void), the epoch bumps, and any
     * quarantine cooldown is cleared.  Cumulative stats survive. */
    void wipeDomain(std::uint32_t domain);

    const DedupDomainStats &domainStats(std::uint32_t domain) const;
    DedupDomainStats totals() const;

    /** Entries currently resident in @p domain (any epoch). */
    std::uint64_t entries(std::uint32_t domain) const;
    /** Outstanding refcounts across @p domain's entries. */
    std::uint64_t liveRefs(std::uint32_t domain) const;
    /** Entries still draining from pre-trip/pre-wipe epochs. */
    std::uint64_t staleEntries(std::uint32_t domain) const;
    /** True while the domain ignores consults after a trip. */
    bool quarantined(std::uint32_t domain) const;

    const DedupConfig &config() const { return cfg_; }

  private:
    /** One slab slot: a resident block whose bytes are the domain
     * arena's [offset, offset + len).  Packed to 24 bytes, because a
     * fleet holds hundreds of thousands: insert() asserts that the
     * arena stays under 4 GiB, the epoch under 2^32 and a block
     * within 65,535 bytes. */
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t epoch = 0;
        std::uint32_t offset = 0;
        std::uint32_t refs : 31 = 0;
        /** The slot holds a resident entry (else it is free). */
        std::uint32_t used : 1 = 0;
        std::uint16_t len = 0;
        /** Arena bytes reserved at offset; a reused slot keeps its
         * region whenever the new block fits. */
        std::uint16_t cap = 0;
    };
    static_assert(sizeof(Entry) <= 24);

    /**
     * One fault domain's tier, in flat memory: a slab of entries
     * with a free list, one byte arena for every entry's truth, and
     * a key -> slot index.  Nothing reads these in an order that
     * reaches output: the traversals (trip reclaim, liveRefs,
     * staleEntries) are sums or per-entry decisions, and which slot
     * or arena offset a block lands in is never observable.
     */
    struct Domain
    {
        /** Entries; a freed slot is reused before the slab grows. */
        // vstream:shard_local
        std::vector<Entry> slab;
        /** Unused slab slots, reused last-freed first. */
        // vstream:shard_local
        std::vector<std::uint32_t> free_slots;
        /** Every entry's truth bytes, back to back. */
        // vstream:shard_local
        std::vector<std::uint8_t> arena;
        /** Resident key -> slab slot. */
        // vstream:shard_local
        FlatMap<std::uint64_t, std::uint32_t> index;
        /** Cumulative aggregates (survive wipes). */
        // vstream:shard_local
        DedupDomainStats stats;
        /** Consults into the current breaker window. */
        // vstream:shard_local
        std::uint64_t window_consults = 0;
        /** False hits within the current window. */
        // vstream:shard_local
        std::uint64_t window_false = 0;
        /** Remaining quarantine cooldown, in consults. */
        // vstream:shard_local
        std::uint64_t cooldown_left = 0;
        /** Most recently inserted key: the forgery victim for
         * injected collisions. */
        // vstream:shard_local
        std::uint64_t last_insert = 0;
        // vstream:shard_local
        bool have_last_insert = false;
        /** Injection rule for this domain (rate 0 = none). */
        // vstream:shard_local
        DedupPoisonRule poison;
    };

    /** Insert @p key with @p truth at the current epoch; the slot. */
    std::uint32_t insert(Domain &d, std::uint64_t key,
                         std::span<const std::uint8_t> truth,
                         std::uint32_t refs);
    /** Drop the entry in @p slot and put the slot on the free list. */
    void freeSlot(Domain &d, std::uint32_t slot);
    void tripBreaker(Domain &d);
    Domain &domainAt(std::uint32_t domain);
    const Domain &domainAt(std::uint32_t domain) const;

    /** Immutable after construction. */
    // vstream:shard_local
    DedupConfig cfg_;
    /** All tier state; only ever touched from the serial settle
     * phase, never from rehearsal workers. */
    // vstream:shard_local
    std::vector<Domain> domains_;
};

/** The combined tier key for a block identity. */
inline std::uint64_t
dedupKey(std::uint32_t digest, std::uint16_t aux)
{
    return (static_cast<std::uint64_t>(digest) << 16) |
           static_cast<std::uint64_t>(aux);
}

} // namespace vstream

#endif // VSTREAM_SERVE_SHARED_MACH_HH
