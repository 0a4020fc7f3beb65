/**
 * @file
 * End-to-end video streaming pipeline.
 *
 * Wires the substrates together - synthetic video source, stream
 * buffering, video decoder (with its writeback stage and optional
 * MACH), frame-buffer pool, LPDDR3 memory, display controller - and
 * simulates the playback of one video under one scheme on a single
 * timeline: the decoder wakes per its scheduling policy (frame-by-
 * frame or batched, low or high frequency), the display scans out at
 * every vsync, drops are detected, the sleep governor spends the idle
 * windows, and every joule is attributed to the nine Fig. 11
 * categories.
 */

#ifndef VSTREAM_CORE_VIDEO_PIPELINE_HH
#define VSTREAM_CORE_VIDEO_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mach_array.hh"
#include "core/pipeline_config.hh"
#include "core/writeback_stage.hh"
#include "display/display_controller.hh"
#include "mem/dram_energy.hh"
#include "power/energy_breakdown.hh"
#include "power/sleep_governor.hh"

namespace vstream
{

/** Per-frame decoder-state attribution (Fig. 2/4 CDFs). */
struct FrameStateRecord
{
    Tick start = 0;
    Tick finish = 0;
    Tick deadline = 0;
    Tick exec = 0;
    Tick slack = 0;
    Tick transition = 0;
    Tick s1 = 0;
    Tick s3 = 0;
    double e_exec = 0.0;
    double e_slack = 0.0;
    double e_trans = 0.0;
    double e_sleep = 0.0;
    bool dropped = false;
};

/** Everything a bench needs from one simulated playback. */
struct PipelineResult
{
    std::string video_key;
    Scheme scheme = Scheme::kBaseline;
    std::uint32_t frames = 0;
    std::uint32_t drops = 0;
    Tick span = 0;

    EnergyBreakdown energy;
    TimeBreakdown vd_time;
    std::vector<FrameStateRecord> frame_records;

    WritebackTotals writeback;
    DisplayTotals display;
    MachStats mach;
    std::vector<double> top_match_shares;

    DramActivityCounts dram_vd;
    DramActivityCounts dram_dc;
    DramActivityCounts dram_total;

    std::uint32_t peak_buffers = 0;
    std::uint64_t pool_bytes = 0;
    std::uint64_t sleep_events = 0;
    std::uint64_t co_mach_inserts = 0;
    std::uint64_t display_cache_hits = 0;
    std::uint64_t display_cache_misses = 0;
    std::uint64_t mach_buffer_hits = 0;
    std::uint64_t mach_buffer_misses = 0;
    double vd_cache_miss_rate = 0.0;
    bool all_verified = true;

    // --- robustness (all zero in a pristine run) ----------------------
    /** Injection totals across every fault class. */
    FaultTotals faults;
    /** Vsyncs missed because the frame had not arrived yet. */
    std::uint64_t underruns = 0;
    /** Decoder wake-ups with fewer than a full batch delivered. */
    std::uint64_t batch_shrinks = 0;
    /** DRAM bursts re-issued after injected timeouts. */
    std::uint64_t dram_retries = 0;
    /** DRAM bursts abandoned after exhausting the retry budget. */
    std::uint64_t dram_abandoned = 0;

    double totalEnergy() const { return energy.total(); }
    /** Fraction of the span the decoder spent in S3. */
    double s3Residency() const;
};

struct Playback;

/**
 * Pipeline simulator.
 *
 * Two driving modes share one implementation:
 *  - run() simulates the whole playback in one call (the classic
 *    single-session mode every bench uses);
 *  - start() / stepVsync() / finish() expose the same simulation one
 *    vsync at a time, so a served Session can evaluate its health
 *    window between vsyncs (src/serve/session.hh).  Stepping the
 *    pipeline to completion is bit-identical to run().
 */
class VideoPipeline
{
  public:
    /** @param cfg finalized by the constructor (finalize() called). */
    explicit VideoPipeline(PipelineConfig cfg);
    ~VideoPipeline();

    VideoPipeline(const VideoPipeline &) = delete;
    VideoPipeline &operator=(const VideoPipeline &) = delete;

    /** Simulate the full playback; may be called once per object. */
    PipelineResult run();

    // --- stepwise interface (multi-session serving) -------------------

    /** Who steps a pipeline: decides where its frames are prepared
     * (core/frame_prep.hh). */
    enum class Driver
    {
        /** Its own caller, one pipeline at a time (run(), a bench): a
         * streamed video prepares the next frame on a helper thread. */
        kOwn,
        /** A serving scheduler interleaving many sessions on its
         * workers: frames are prepared inline, so a fleet starts no
         * thread per session to compete with those workers. */
        kScheduler,
    };

    /** Allocate the substrates; must precede the first stepVsync(). */
    void start(Driver driver = Driver::kOwn);

    /** True when a helper thread prepares this playback's frames
     * (valid between start() and destruction). */
    bool preparesAhead() const;

    /** All vsyncs processed (finish() may be called)? */
    bool stepDone() const;

    /** Local tick of the next pending vsync (valid until stepDone). */
    Tick nextVsyncTick() const;

    /** Process one vsync: decode everything due, scan out, account. */
    void stepVsync();

    /**
     * Close the final idle window and assemble the result.
     *
     * May be called before stepDone() to terminate a session early
     * (quarantine/eviction): the partial playback is accounted as-is.
     */
    PipelineResult finish();

    // --- health/breaker hooks (read-only unless noted) ----------------

    /** MACH present in this scheme (breaker has something to trip)? */
    bool hasMach() const;

    // setMachBypass(), setMachWriteObserver() and liveMachStats()
    // need a pipeline that prepares inline (!preparesAhead()): one
    // preparing ahead decides the next frame's lookups on its helper
    // thread while the current frame is counted.

    /** Bypass (true) or re-enable (false) the MACH array: the
     * circuit-breaker fallback to full 48 B unique writes. */
    void setMachBypass(bool on);

    /** Attach @p obs to the MACH array's unique-block writes (no-op
     * for schemes without MACH); the shared dedup tier's recording
     * hook (serve/shared_mach.hh).  It is called as each frame is
     * prepared. */
    void setMachWriteObserver(MachWriteObserver obs);

    /** Live mid-run counters (drops, underruns, batch shrinks). */
    const PipelineResult &liveResult() const;

    /** Live MACH counters (falseHits drive the circuit breaker). */
    MachStats liveMachStats() const;

    /** DRAM bursts abandoned so far (abandon-budget health input). */
    std::uint64_t liveDramAbandoned() const;

    const PipelineConfig &config() const { return cfg_; }

  private:
    PipelineConfig cfg_;
    std::unique_ptr<Playback> p_;
    std::uint32_t next_vsync_ = 0;
    bool ran_ = false;
    bool finished_ = false;
};

/** Convenience: simulate @p profile under @p scheme. */
PipelineResult simulateScheme(const VideoProfile &profile,
                              const SchemeConfig &scheme);

} // namespace vstream

#endif // VSTREAM_CORE_VIDEO_PIPELINE_HH
