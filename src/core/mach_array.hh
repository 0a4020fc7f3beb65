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
 * Observer of unique-block materializations (insertUnique calls).
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

/** Combined outcome of searching all MACHs. */
struct MachLookupResult
{
    bool hit = false;
    /** Hit in a previous frame's MACH (else the current frame's). */
    bool inter = false;
    /** Age of the owning MACH: 0 = current frame, 1 = previous, ... */
    std::uint32_t frame_age = 0;
    Addr ptr = 0;
    bool collision_detected = false;
    bool collision_undetected = false;
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
     * Search every cache for @p digest.
     *
     * @param now simulated time, the fault injector's opportunity
     *        clock for FaultClass::kDigestCollision.
     */
    MachLookupResult lookup(std::uint32_t digest, std::uint16_t aux,
                            std::span<const std::uint8_t> truth,
                            Tick now = 0);

    /** Arm digest-collision injection (nullptr disables it). */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /**
     * Bypass the array: every lookup misses (counted separately) and
     * inserts are dropped, so the decoder writes every block as a
     * full 48 B unique - the circuit breaker's safe fallback when
     * verification keeps demoting hits.  Re-enabling resumes lookups
     * against whatever survived in the caches.
     */
    void setBypass(bool on) { bypass_ = on; }

    /** Attach @p obs to every future insertUnique() (empty function
     * detaches).  Purely observational: the array's own behaviour
     * and stats are unchanged. */
    void setWriteObserver(MachWriteObserver obs)
    {
        write_observer_ = std::move(obs);
    }

    /**
     * Record a freshly written unique block.
     *
     * Inserts into the current MACH, or into CO-MACH when the lookup
     * that preceded this call detected a digest collision.
     */
    void insertUnique(std::uint32_t digest, std::uint16_t aux, Addr ptr,
                      std::span<const std::uint8_t> truth,
                      bool collided);

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
    FlatCounter match_counts_;
    /**
     * The num_machs per-frame MACHs.  Advancing a frame recycles the
     * aged-out slot in place, so frame boundaries perform no heap
     * allocation.
     */
    MachTable ring_;
    /** CO-MACH (Sec. 6.3): the current frame's collided blocks under
     * their full 48-bit tags, cleared at every frame boundary. */
    std::optional<MachTable> co_mach_;
    std::uint64_t co_mach_inserts_ = 0;
    MachStats stats_;
    FaultInjector *faults_ = nullptr;
    MachWriteObserver write_observer_;
    bool bypass_ = false;
    /** Snapshot of a previously inserted block whose digest a later
     * lookup can be forged to collide with. */
    bool have_collider_ = false;
    std::uint32_t collider_digest_ = 0;
    std::uint16_t collider_aux_ = 0;
    std::vector<std::uint8_t> collider_truth_;
};

} // namespace vstream

#endif // VSTREAM_CORE_MACH_ARRAY_HH
