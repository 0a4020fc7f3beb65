/**
 * @file
 * The array of per-frame MACHs held by the video decoder.
 *
 * The decoder keeps the MACH of the frame being decoded plus the
 * frozen MACHs of the previous num_machs-1 frames, all in one
 * set-major MachTable; a lookup searches all of them at once (and
 * CO-MACH, a one-slot table, when enabled).  A hit in the current
 * frame's MACH is an intra-match, a hit in an older MACH an
 * inter-match - the distinction decides whether the frame-buffer
 * layout stores a pointer or a digest (Sec. 5.1).
 *
 * The array has a state half and an accounting half.  probe(),
 * store() and beginFrame() advance the caches (and the injector, the
 * write observer and the collider snapshot); count() and
 * countInsert() record MachStats, the Fig. 9b match counts and the
 * CO-MACH inserts.  The two halves share no member, so a streamed
 * playback decides a frame on its preparation thread while the
 * decode thread accounts for the frame before it
 * (core/frame_prep.hh).
 */

#ifndef VSTREAM_CORE_MACH_ARRAY_HH
#define VSTREAM_CORE_MACH_ARRAY_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "core/flat_table.hh"
#include "core/mach_table.hh"
#include "sim/ticks.hh"

namespace vstream
{

class FaultInjector;
class StatsRegistry;

/**
 * Observer of unique-block materializations (store() calls).
 *
 * Receives the *original* digest/aux as computed by the writeback
 * stage - digest-collision injection forges only the lookup path, so
 * an observer sees ground truth even under fault injection.  Used by
 * the shared dedup tier (serve/shared_mach.hh) to record which
 * distinct blocks a session actually wrote to DRAM.
 */
using MachWriteObserver =
    std::function<void(std::uint32_t digest, std::uint16_t aux,
                       std::span<const std::uint8_t> truth)>;

/** Bits of one MACH decision, as MachArray::count() and
 * countInsert() read them. */
enum MachBit : std::uint8_t
{
    kMachHit = 1U << 0,
    kMachInter = 1U << 1,
    kMachCollisionDetected = 1U << 2,
    kMachCollisionUndetected = 1U << 3,
    /** Answered "miss" because the array was bypassed. */
    kMachBypassed = 1U << 4,
    /** A hit demoted to a miss by the verify-on-hit byte compare. */
    kMachFalseHit = 1U << 5,
    /** An injected digest collision that hit a wrong block. */
    kMachInjected = 1U << 6,
    /** The unique block that followed the miss went to CO-MACH. */
    kMachCoMachInsert = 1U << 7,
};

/** Combined outcome of searching all MACHs. */
struct MachLookupResult
{
    bool hit = false;
    /** Hit in a previous frame's MACH (else the current frame's). */
    bool inter = false;
    Addr ptr = 0;
    bool collision_detected = false;
    bool collision_undetected = false;
    bool bypassed = false;
    bool false_hit = false;
    bool injected = false;
    /** The digest looked up: the block's own, or the one an injected
     * collision forged (the Fig. 9b match count keys on it). */
    std::uint32_t digest = 0;

    /** This result as MachBit flags. */
    std::uint8_t
    bits() const
    {
        return static_cast<std::uint8_t>(
            (hit ? kMachHit : 0) | (inter ? kMachInter : 0) |
            (collision_detected ? kMachCollisionDetected : 0) |
            (collision_undetected ? kMachCollisionUndetected : 0) |
            (bypassed ? kMachBypassed : 0) |
            (false_hit ? kMachFalseHit : 0) | (injected ? kMachInjected : 0));
    }
};

/** Running statistics of the MACH array. */
struct MachStats
{
    std::uint64_t lookups = 0;
    std::uint64_t intra_hits = 0;
    std::uint64_t inter_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t collisions_detected = 0;
    std::uint64_t collisions_undetected = 0;
    std::uint64_t inserts = 0;
    /** Injected digest collisions that produced a wrong-block hit. */
    std::uint64_t injected_collisions = 0;
    /** Hits demoted to misses by the verify-on-hit byte compare. */
    std::uint64_t false_hits = 0;
    /** Lookups answered "miss" because the array was bypassed (the
     * circuit-breaker fallback to full 48 B unique writes). */
    std::uint64_t bypassed_lookups = 0;

    std::uint64_t hits() const { return intra_hits + inter_hits; }
    double hitRate() const
    {
        return lookups ? static_cast<double>(hits()) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/** Current + historical MACHs, plus CO-MACH. */
class MachArray
{
  public:
    /**
     * @param max_lookups lookups the array can ever see (frames x
     *        mabs per frame of the video played); the match tracker
     *        reserves no more distinct digests than that.
     */
    explicit MachArray(const MachConfig &cfg,
                       std::uint64_t max_lookups = UINT64_MAX);

    /**
     * Start a new frame: freeze the current MACH into the history
     * (recycling the oldest beyond num_machs-1) and clear CO-MACH.
     * A current MACH still empty with no history stays current.
     */
    void beginFrame();

    /**
     * Search every cache for @p digest: consult the injector and run
     * the verify-on-hit compare, counting nothing (count() records
     * the result).
     *
     * @param now simulated time, the fault injector's opportunity
     *        clock for FaultClass::kDigestCollision.
     */
    MachLookupResult probe(std::uint32_t digest, std::uint16_t aux,
                           std::span<const std::uint8_t> truth,
                           Tick now = 0);

    /** Accounting half of probe(): record a probe's MachBit
     * @p bits, whose hit matched @p digest. */
    void count(std::uint8_t bits, std::uint32_t digest);

    /** Arm digest-collision injection (nullptr disables it). */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /** True when digest collisions are injected: each probe then
     * depends on its block's decode tick, so it cannot be decided
     * ahead of the decode. */
    bool injectsCollisions() const { return faults_ != nullptr; }

    /**
     * Bypass the array: every lookup misses (counted separately) and
     * inserts are dropped, so the decoder writes every block as a
     * full 48 B unique - the circuit breaker's safe fallback when
     * verification keeps demoting hits.  Re-enabling resumes lookups
     * against whatever survived in the caches.
     */
    void setBypass(bool on) { bypass_ = on; }

    /** Attach @p obs to every future store() (empty function
     * detaches).  Purely observational: the array's own behaviour
     * and stats are unchanged. */
    void setWriteObserver(MachWriteObserver obs)
    {
        write_observer_ = std::move(obs);
    }

    /**
     * Record a freshly written unique block, counting nothing
     * (countInsert() records it); a no-op while bypassed.
     *
     * Inserts into the current MACH, or into CO-MACH when the probe
     * that preceded this call detected a digest collision.
     */
    void store(std::uint32_t digest, std::uint16_t aux, Addr ptr,
               std::span<const std::uint8_t> truth, bool collided);

    /** Accounting half of store(), from the MachBit @p bits of the
     * probe the insert followed (kMachCoMachInsert when it went to
     * CO-MACH). */
    void
    countInsert(std::uint8_t bits)
    {
        if ((bits & kMachBypassed) != 0) {
            return;
        }
        ++stats_.inserts;
        if ((bits & kMachCoMachInsert) != 0) {
            ++co_mach_inserts_;
        }
    }

    /** The ring of per-frame MACHs; its validCount() and
     * forEachValid() see the frame being decoded. */
    const MachTable &ring() const { return ring_; }

    /** Number of frozen history MACHs currently held. */
    std::uint32_t historyDepth() const { return ring_.history(); }

    const MachStats &stats() const { return stats_; }

    const MachConfig &config() const { return cfg_; }
    /** Blocks inserted into CO-MACH (its collision count proxy). */
    std::uint64_t coMachInserts() const { return co_mach_inserts_; }

    /** Register lookup/hit/collision stats under @p prefix. */
    void regStats(StatsRegistry &r, const std::string &prefix) const;

    /**
     * Shares of total matches contributed by the top @p k digests,
     * descending (Fig. 9b's x-axis).
     */
    std::vector<double> topMatchShares(std::size_t k) const;

  private:
    MachConfig cfg_;

    // --- state half: beginFrame(), probe(), store() -------------------
    /**
     * The num_machs per-frame MACHs.  Advancing a frame recycles the
     * aged-out slot in place, so frame boundaries perform no heap
     * allocation.
     */
    MachTable ring_;
    /** CO-MACH (Sec. 6.3): the current frame's collided blocks under
     * their full 48-bit tags, cleared at every frame boundary. */
    std::optional<MachTable> co_mach_;
    FaultInjector *faults_ = nullptr;
    MachWriteObserver write_observer_;
    bool bypass_ = false;
    /** Snapshot of a previously inserted block whose digest a later
     * lookup can be forged to collide with (injection only). */
    bool have_collider_ = false;
    std::uint32_t collider_digest_ = 0;
    std::uint16_t collider_aux_ = 0;
    std::vector<std::uint8_t> collider_truth_;

    // --- accounting half: count(), countInsert() ---------------------
    // Last, behind the collider fields (touched only with injection,
    // when one thread runs both halves), so no cache line holds both
    // a counter and the ring's state.
    FlatCounter match_counts_;
    std::uint64_t co_mach_inserts_ = 0;
    MachStats stats_;
};

} // namespace vstream

#endif // VSTREAM_CORE_MACH_ARRAY_HH
