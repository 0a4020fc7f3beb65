#include "core/mach_array.hh"

#include <algorithm>
#include <functional>

#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

namespace
{

/**
 * Pre-sized capacity of the per-digest match-count table that feeds
 * the Fig. 9b top-match shares.  Reserving it up front keeps
 * steady-state serving allocation-free for digest populations up to
 * this size; larger populations grow the table geometrically (a
 * handful of rehashes over a whole playback).
 */
constexpr std::uint64_t kMatchTrackReserve = 16384;

} // namespace

MachArray::MachArray(const MachConfig &cfg, std::uint64_t max_lookups)
    // Validated before the ring is sized from it.
    : cfg_((cfg.validate(), cfg)),
      ring_(cfg_, cfg_.entries, cfg_.num_machs, /*full_tags=*/false)
{
    // Pre-size the Fig. 9b match tracker so steady-state lookups
    // never rehash it (see kMatchTrackReserve).  Each hit counts one
    // digest, so a playback never tracks more distinct digests than
    // it makes lookups.
    match_counts_.reserve(static_cast<std::size_t>(
        std::min(kMatchTrackReserve, max_lookups)));
    if (cfg_.co_mach) {
        co_mach_.emplace(cfg_, cfg_.co_mach_entries, 1, /*full_tags=*/true);
    }
}

void
MachArray::beginFrame()
{
    if (ring_.validCount() > 0 || ring_.history() > 0) {
        ring_.advance();
    }
    if (co_mach_) {
        co_mach_->advance();
    }
}

MachLookupResult
MachArray::probe(std::uint32_t digest, std::uint16_t aux,
                 std::span<const std::uint8_t> truth, Tick now)
{
    MachLookupResult result;

    // Bypassed (circuit breaker open): every block is treated as
    // unique so nothing stale in the caches can be matched.
    if (bypass_) {
        result.bypassed = true;
        return result;
    }

    // Injected digest collision: pretend this block's digest (and
    // CRC16 aux) happens to equal that of an earlier, different
    // block, the worst case neither tag can distinguish.  The probe
    // still compares against the real bytes, so a resident collider
    // shows up as an undetected collision.
    bool forged = false;
    if (faults_ != nullptr && have_collider_ &&
        !blockEqual(collider_truth_, truth) &&
        faults_->shouldInject(FaultClass::kDigestCollision, now)) {
        digest = collider_digest_;
        aux = collider_aux_;
        forged = true;
    }
    result.digest = digest;

    // Current frame first (intra), then history newest-to-oldest.
    MachProbe probe = ring_.lookup(digest, aux, truth);
    result.collision_detected = probe.collision_detected;
    if (probe.hit) {
        result.hit = true;
        result.inter = probe.age > 0;
        result.ptr = probe.ptr;
        result.collision_undetected = probe.collision_undetected;
    }

    // CO-MACH covers the current frame's collided blocks.
    if (!result.hit && co_mach_) {
        probe = co_mach_->lookup(digest, aux, truth);
        if (probe.hit) {
            result.hit = true;
            result.inter = false;
            result.ptr = probe.ptr;
            result.collision_undetected = probe.collision_undetected;
        }
    }

    result.injected =
        forged && result.hit && result.collision_undetected;

    // Verify-on-hit byte compare: any hit whose stored bytes differ
    // from the candidate (i.e. an undetected collision, injected or
    // organic) is demoted to a miss and the caller falls back to the
    // full 48 B unique write.
    if (cfg_.verify_on_hit && result.hit &&
        result.collision_undetected) {
        result.false_hit = true;
        if (faults_ != nullptr && forged) {
            faults_->noteRecovered(FaultClass::kDigestCollision);
        }
        result.hit = false;
        result.inter = false;
        result.ptr = 0;
        result.collision_undetected = false;
    }
    return result;
}

// vstream:hot
void
MachArray::count(std::uint8_t bits, std::uint32_t digest)
{
    ++stats_.lookups;
    if ((bits & kMachBypassed) != 0) {
        ++stats_.bypassed_lookups;
        ++stats_.misses;
        return;
    }
    if ((bits & kMachInjected) != 0) {
        ++stats_.injected_collisions;
    }
    if ((bits & kMachFalseHit) != 0) {
        ++stats_.false_hits;
    }
    if ((bits & kMachHit) != 0) {
        if ((bits & kMachInter) != 0) {
            ++stats_.inter_hits;
        } else {
            ++stats_.intra_hits;
        }
        match_counts_.add(digest);
    } else {
        ++stats_.misses;
    }
    if ((bits & kMachCollisionDetected) != 0) {
        ++stats_.collisions_detected;
    }
    if ((bits & kMachCollisionUndetected) != 0) {
        ++stats_.collisions_undetected;
    }
}

void
MachArray::store(std::uint32_t digest, std::uint16_t aux, Addr ptr,
                 std::span<const std::uint8_t> truth, bool collided)
{
    if (bypass_) {
        // The caller already paid for the unique write; recording it
        // would let a later (re-probed) lookup hit a block whose
        // digest path was never exercised.
        return;
    }
    if (write_observer_) {
        write_observer_(digest, aux, truth);
    }
    // Remember one inserted block as the collision-injection target;
    // refreshing it keeps the collider likely to still be resident.
    if (faults_ != nullptr) {
        have_collider_ = true;
        collider_digest_ = digest;
        collider_aux_ = aux;
        // The block size is fixed per stream, so after the first copy
        // vstream:allow(no-hotpath-alloc) this reuses its capacity
        collider_truth_.assign(truth.begin(), truth.end());
    }
    if (collided && co_mach_) {
        co_mach_->insert(digest, aux, ptr, truth);
        return;
    }
    ring_.insert(digest, aux, ptr, truth);
}

std::vector<double>
MachArray::topMatchShares(std::size_t k) const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(match_counts_.size());
    std::uint64_t total = 0;
    match_counts_.forEach([&](std::uint32_t, std::uint64_t n) {
        counts.push_back(n);
        total += n;
    });
    const std::size_t top = std::min(k, counts.size());
    std::partial_sort(counts.begin(),
                      counts.begin() + static_cast<std::ptrdiff_t>(top),
                      counts.end(), std::greater<std::uint64_t>());

    std::vector<double> shares;
    shares.reserve(top);
    for (std::size_t i = 0; i < top; ++i) {
        shares.push_back(total ? static_cast<double>(counts[i]) /
                                     static_cast<double>(total)
                               : 0.0);
    }
    return shares;
}

void
MachArray::regStats(StatsRegistry &r, const std::string &prefix) const
{
    r.addCallback(prefix + ".lookups", "digest lookups issued", [this] {
        return static_cast<double>(stats_.lookups);
    });
    r.addCallback(prefix + ".intraHits",
                  "hits in the current frame's MACH", [this] {
                      return static_cast<double>(stats_.intra_hits);
                  });
    r.addCallback(prefix + ".interHits", "hits in a frozen MACH",
                  [this] {
                      return static_cast<double>(stats_.inter_hits);
                  });
    r.addCallback(prefix + ".misses", "lookups missing every MACH",
                  [this] { return static_cast<double>(stats_.misses); });
    r.addCallback(prefix + ".hitRate", "hits / lookups",
                  [this] { return stats_.hitRate(); });
    r.addCallback(prefix + ".collisionsDetected",
                  "digest collisions caught by CO-MACH", [this] {
                      return static_cast<double>(
                          stats_.collisions_detected);
                  });
    r.addCallback(prefix + ".collisionsUndetected",
                  "digest collisions that corrupted a block", [this] {
                      return static_cast<double>(
                          stats_.collisions_undetected);
                  });
    r.addCallback(prefix + ".injectedCollisions",
                  "injected digest collisions that hit a wrong block",
                  [this] {
                      return static_cast<double>(
                          stats_.injected_collisions);
                  });
    r.addCallback(prefix + ".falseHits",
                  "hits demoted by the verify-on-hit byte compare",
                  [this] {
                      return static_cast<double>(stats_.false_hits);
                  });
    r.addCallback(prefix + ".bypassedLookups",
                  "lookups forced to miss while the array was bypassed",
                  [this] {
                      return static_cast<double>(
                          stats_.bypassed_lookups);
                  });
}

} // namespace vstream
