/**
 * @file
 * One streaming session inside the multi-session server.
 *
 * A Session owns a full, private pipeline substrate (its own
 * VideoPipeline with its own memory system, fault-rule set, and
 * arrival timeline) plus the health machinery that contains its
 * failures: the degradation ladder and the MACH circuit breaker.
 * Because the substrate is private, a no-fault session produces
 * energy/drop numbers bit-identical to a solo VideoPipeline run with
 * the same PipelineConfig, no matter how many neighbours it is
 * served beside - the isolation property tests/test_serve.cc pins
 * down.
 *
 * rehearseSession() is the only driver: it steps the session one
 * vsync at a time on its local clock (starting at tick 0); every
 * HealthConfig::window_vsyncs vsyncs the session evaluates its
 * window counters (drops, underruns, DRAM abandons, MACH false
 * hits) and walks the ladder / trips the breaker.  The Placer
 * (serve/placer.hh) then rebases the outcome onto the serving
 * timeline.
 */

#ifndef VSTREAM_SERVE_SESSION_HH
#define VSTREAM_SERVE_SESSION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/video_pipeline.hh"
#include "serve/health.hh"
#include "serve/shared_mach.hh"
#include "video/trace.hh"

namespace vstream
{

/** Everything needed to run one served session. */
struct SessionConfig
{
    /** Unique id; also the label in stats and the soak report. */
    std::uint64_t id = 0;
    /** The session's own video/scheme/faults/arrival bundle.  Use
     * FaultConfig::forSession(id) when deriving many sessions from
     * one schedule so their fault streams are independent. */
    PipelineConfig pipeline;
    HealthConfig health;
    BreakerConfig breaker;
    /** Optional serialized ingest trace validated at start: damage
     * quarantines only this session. */
    std::vector<std::uint8_t> trace_blob;
    /** Viewer departure: the session ends once its next vsync would
     * land at or past this *local* tick (0 = watch to the end).
     * Drives mid-simulation leave in the fleet arrival process. */
    Tick leave_after = 0;
    /** Aggregation label for fleet stats (e.g. the soak mix name);
     * empty sessions fold only into the unlabelled totals. */
    std::string stats_group;
    /** Record distinct materialized MACH blocks during the run so
     * the shared dedup tier can settle them serially at admission
     * (serve/shared_mach.hh).  Off by default: with recording off
     * the session is byte-identical to pre-dedup builds. */
    bool dedup_record = false;
};

/** Everything a soak/fleet report needs from one finished session. */
struct SessionOutcome
{
    std::uint64_t id = 0;
    HealthState final_state = HealthState::kHealthy;
    TraceError trace_error = TraceError::kNone;
    std::uint64_t breaker_trips = 0;
    std::uint64_t breaker_reprobes = 0;
    /** Breaker state at the end of the session (a tripped session
     * that ends kClosed recovered after its cooldown). */
    CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
    /** Ticks dwelt in each ladder state. */
    std::array<Tick, kNumHealthStates> dwell{};
    /** The viewer left (SessionConfig::leave_after) before playback
     * finished or the ladder evicted. */
    bool left_early = false;
    /** Expired in the admission queue (ServeConfig::queue_deadline)
     * without ever running; only id/group/ticks are meaningful. */
    bool queue_timeout = false;
    /** Aggregation label copied from SessionConfig::stats_group. */
    std::string group;
    Tick start_offset = 0;
    Tick end_tick = 0;
    PipelineResult result;
    /** The materialization log recorded during the run (empty when
     * SessionConfig::dedup_record is off); settled against the
     * shared tier by the Placer. */
    DedupRecord dedup;
};

/** One admitted streaming session. */
class Session
{
  public:
    explicit Session(SessionConfig cfg);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Allocate the substrate and validate the ingest trace (if
     * any) at local tick 0. */
    void start();

    /** No more vsyncs wanted (playback complete, evicted, or the
     * viewer left per SessionConfig::leave_after). */
    bool done() const;

    /** done() because the viewer left, not because playback
     * completed or the ladder evicted. */
    bool leftEarly() const;

    /** Process one vsync; on a window boundary, evaluate health.
     * Returns the local tick of the vsync just processed. */
    Tick stepVsync();

    /** Close the playback (early when evicted) and cache the
     * result; idempotent. */
    void finalize(Tick now);

    const PipelineResult &result() const;

    std::uint64_t id() const { return cfg_.id; }
    HealthState health() const { return ladder_.state(); }
    const HealthLadder &ladder() const { return ladder_; }
    const CircuitBreaker &breaker() const { return breaker_; }
    /** Damage found in the ingest trace (kNone when intact). */
    TraceError traceError() const { return trace_error_; }
    /** Move the dedup materialization log out (empty when recording
     * was off). */
    DedupRecord takeDedup();

    /** Estimated DRAM-bandwidth demand of @p cfg, MB/s (decode
     * writes + display reads at the nominal frame rate). */
    static double demandMBps(const PipelineConfig &cfg);

    /** Estimated frame-buffer pool footprint of @p cfg, bytes. */
    static std::uint64_t framebufferBytes(const PipelineConfig &cfg);

  private:
    void evaluateWindow(Tick now);

    SessionConfig cfg_;
    VideoPipeline pipeline_;
    HealthLadder ladder_;
    CircuitBreaker breaker_;
    /** Per-session write log; private to this session's (possibly
     * worker-thread) rehearsal. */
    DedupRecorder dedup_recorder_;
    /** The session's own jitter stream (breaker cooldowns). */
    Random rng_;
    TraceError trace_error_ = TraceError::kNone;

    // window bookkeeping
    std::uint32_t vsyncs_ = 0;
    std::uint64_t last_drops_ = 0;
    std::uint64_t last_underruns_ = 0;
    std::uint64_t last_lookups_ = 0;
    std::uint64_t last_false_hits_ = 0;
    std::uint32_t degraded_streak_ = 0;
    std::uint32_t clean_streak_ = 0;
    std::uint32_t quarantined_windows_ = 0;

    bool started_ = false;
    bool finalized_ = false;
    PipelineResult result_;
};

/** A session run to completion at local tick 0. */
struct RehearsedSession
{
    SessionOutcome outcome;
    /** Local tick of the final vsync (0 when done at start). */
    Tick local_end = 0;
};

/**
 * Rehearse @p cfg: run the session to completion on its own private
 * substrate, starting at local tick 0, and record the outcome.
 *
 * A session's evolution is offset-invariant - the breaker cooldown
 * and ladder dwell are tick *differences*, and the pipeline runs on
 * its own local clock - so the Placer admits the rehearsed outcome
 * at any serving tick T by rebasing start_offset/end_tick and the
 * pre-admission Healthy dwell.  That is what lets it fan rehearsals
 * across parallelMap workers while keeping every aggregate
 * byte-identical at any --jobs count.
 */
RehearsedSession rehearseSession(const SessionConfig &cfg);

} // namespace vstream

#endif // VSTREAM_SERVE_SESSION_HH
