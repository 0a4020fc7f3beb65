#include "video/arrival_model.hh"

#include <algorithm>

#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace vstream
{

void
ArrivalConfig::validate() const
{
    if (!enabled) {
        return;
    }
    if (bandwidth_mbps <= 0.0) {
        vs_fatal("arrival bandwidth must be positive, got ",
                 bandwidth_mbps, " Mbps");
    }
    if (jitter_frac < 0.0 || jitter_frac > 2.0) {
        vs_fatal("arrival jitter sigma ", jitter_frac,
                 " outside [0, 2]");
    }
}

ArrivalModel::ArrivalModel(const VideoProfile &profile,
                           const ArrivalConfig &cfg,
                           FaultInjector *faults)
{
    cfg.validate();

    std::uint64_t seed_state = cfg.seed != 0
                                   ? cfg.seed
                                   : profile.seed ^ 0xa55a1e57u;
    Random rng(splitMix64(seed_state));

    // Nominal wire size of one frame; the lognormal multiplier keeps
    // the mean transfer time at bytes/bandwidth while modelling the
    // per-frame variation a rate-adaptive encoder produces.
    const double frame_bytes =
        profile.encoded_bytes_per_mab *
        static_cast<double>(profile.mabsPerFrame());
    const double mean_transfer_s =
        frame_bytes * 8.0 / (cfg.bandwidth_mbps * 1e6);
    const double sigma = cfg.jitter_frac;
    const double mu = -0.5 * sigma * sigma; // E[multiplier] = 1

    arrivals_.assign(profile.frame_count, 0);
    Tick now = 0;
    for (std::uint32_t i = 0; i < profile.frame_count; ++i) {
        if (i < cfg.preroll_frames) {
            // Pre-rolled frames are buffered before playback starts.
            arrivals_[i] = 0;
            continue;
        }
        const double mult =
            sigma > 0.0 ? rng.logNormal(mu, sigma) : 1.0;
        now += secondsToTicks(mean_transfer_s * mult);
        if (faults != nullptr) {
            const Tick stall = faults->injectStall(now);
            if (stall > 0) {
                now += stall;
                total_stall_ += stall;
            }
        }
        arrivals_[i] = now;
    }
}

Tick
ArrivalModel::arrivalTick(std::uint32_t frame) const
{
    vs_assert(frame < arrivals_.size(),
              "arrival query past the last frame");
    return arrivals_[frame];
}

std::uint32_t
ArrivalModel::framesArrivedBy(Tick t) const
{
    const auto it =
        std::upper_bound(arrivals_.begin(), arrivals_.end(), t);
    return static_cast<std::uint32_t>(it - arrivals_.begin());
}

} // namespace vstream
