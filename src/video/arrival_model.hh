/**
 * @file
 * Network frame-arrival model.
 *
 * The seed pipeline assumes the streaming buffer refills in fixed
 * chunk intervals and always in time; this module replaces that with
 * an explicit per-frame arrival timeline driven by link bandwidth,
 * multiplicative jitter, and injected stalls (FaultInjector class
 * kNetworkStall).  BurstLink-style whole-frame bursts over a lossy
 * path are the motivating scenario: when the link stalls, batching
 * hits buffer underrun and the pipeline must degrade (shrunk batches,
 * early S3 wake-ups, repeated scan-outs) instead of panicking.
 *
 * The whole timeline is precomputed at construction from the video
 * profile's nominal encoded size and a seeded RNG, so arrivals are
 * deterministic and O(1) to query during simulation.
 */

#ifndef VSTREAM_VIDEO_ARRIVAL_MODEL_HH
#define VSTREAM_VIDEO_ARRIVAL_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/ticks.hh"
#include "video/video_profile.hh"

namespace vstream
{

class FaultInjector;

/** Knobs of the network path. */
struct ArrivalConfig
{
    /** Off by default: the pipeline keeps the seed chunk model and
     * reproduces bit-identical results. */
    bool enabled = false;
    /** Link bandwidth, megabits per second. */
    double bandwidth_mbps = 40.0;
    /** Sigma of the lognormal multiplier on each frame's transfer
     * time (0 = a perfectly paced link). */
    double jitter_frac = 0.0;
    /** Frames already buffered at t = 0 (pre-roll). */
    std::uint32_t preroll_frames = 32;
    /** RNG seed; 0 derives one from the video profile's seed. */
    std::uint64_t seed = 0;

    void validate() const;
};

/** Precomputed per-frame arrival times. */
class ArrivalModel
{
  public:
    /**
     * @param faults optional stall source (class kNetworkStall);
     *        consulted once per post-preroll frame at its nominal
     *        delivery tick.
     */
    ArrivalModel(const VideoProfile &profile, const ArrivalConfig &cfg,
                 FaultInjector *faults);

    /** Tick at which frame @p frame is fully delivered. */
    Tick arrivalTick(std::uint32_t frame) const;

    /** Number of frames fully delivered by @p t (prefix length). */
    std::uint32_t framesArrivedBy(Tick t) const;

    /** Total injected stall time baked into the timeline. */
    Tick stallTicks() const { return total_stall_; }

    std::uint32_t frameCount() const
    {
        return static_cast<std::uint32_t>(arrivals_.size());
    }

  private:
    std::vector<Tick> arrivals_;
    Tick total_stall_ = 0;
};

} // namespace vstream

#endif // VSTREAM_VIDEO_ARRIVAL_MODEL_HH
