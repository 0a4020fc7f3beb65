#include "serve/session.hh"

#include <sstream>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace vstream
{

namespace
{

/** Seed of the session's jitter stream: the profile seed remixed
 * with the session id so neighbouring ids draw independently. */
std::uint64_t
jitterSeed(const SessionConfig &cfg)
{
    std::uint64_t state =
        cfg.pipeline.profile.seed ^
        (cfg.id + 0x9e3779b97f4a7c15ULL);
    return splitMix64(state);
}

} // namespace

Session::Session(SessionConfig cfg)
    : cfg_(std::move(cfg)), pipeline_(cfg_.pipeline),
      breaker_(cfg_.breaker), rng_(jitterSeed(cfg_))
{
    cfg_.health.validate();
}

void
Session::start()
{
    vs_assert(!started_, "a session may only start once");
    started_ = true;
    pipeline_.start(VideoPipeline::Driver::kScheduler);

    // Dedup recording observes unique-block writes into a private
    // per-session log; the shared tier itself is only consulted
    // serially at settle time, so rehearsal stays hermetic.
    if (cfg_.dedup_record && pipeline_.hasMach()) {
        pipeline_.setMachWriteObserver(
            [this](std::uint32_t digest, std::uint16_t aux,
                   std::span<const std::uint8_t> truth) {
                dedup_recorder_.observe(digest, aux, truth);
            });
    }

    // Validate the ingest trace inside this session's fault domain:
    // damage lands on the ladder, never outside the session.
    if (!cfg_.trace_blob.empty()) {
        std::istringstream is(
            std::string(cfg_.trace_blob.begin(),
                        cfg_.trace_blob.end()));
        const TraceLoadResult tr = loadTrace(is);
        trace_error_ = tr.error;
        if (!tr.ok()) {
            ladder_.transitionTo(HealthState::kQuarantined, 0);
        }
    }
}

bool
Session::done() const
{
    if (ladder_.evicted() || pipeline_.stepDone()) {
        return true;
    }
    // Viewer departure: stop once the next vsync would land at or
    // past the leave point on the session's local clock.
    return cfg_.leave_after > 0 &&
           pipeline_.nextVsyncTick() >= cfg_.leave_after;
}

bool
Session::leftEarly() const
{
    return cfg_.leave_after > 0 && !ladder_.evicted() &&
           !pipeline_.stepDone() &&
           pipeline_.nextVsyncTick() >= cfg_.leave_after;
}

Tick
Session::stepVsync()
{
    vs_assert(started_ && !done(), "stepping a finished session");
    const Tick now = pipeline_.nextVsyncTick();
    pipeline_.stepVsync();
    ++vsyncs_;
    if (vsyncs_ % cfg_.health.window_vsyncs == 0) {
        evaluateWindow(now);
    }
    return now;
}

void
Session::evaluateWindow(Tick now)
{
    // Circuit breaker first: a false-hit storm is a verification
    // problem, not (yet) a playback problem.
    if (pipeline_.hasMach()) {
        const MachStats m = pipeline_.liveMachStats();
        const std::uint64_t d_lookups = m.lookups - last_lookups_;
        const std::uint64_t d_false = m.false_hits - last_false_hits_;
        last_lookups_ = m.lookups;
        last_false_hits_ = m.false_hits;
        if (breaker_.onWindow(d_lookups, d_false, now, rng_)) {
            pipeline_.setMachBypass(breaker_.bypass());
        }
    }

    const PipelineResult &live = pipeline_.liveResult();
    const std::uint64_t d_drops = live.drops - last_drops_;
    const std::uint64_t d_underruns = live.underruns - last_underruns_;
    last_drops_ = live.drops;
    last_underruns_ = live.underruns;

    const bool fatal =
        pipeline_.liveDramAbandoned() >= cfg_.health.abandon_budget;
    const bool bad = d_drops >= cfg_.health.degrade_drops ||
                     d_underruns >= cfg_.health.degrade_underruns;

    switch (ladder_.state()) {
    case HealthState::kHealthy:
        if (fatal) {
            ladder_.transitionTo(HealthState::kQuarantined, now);
        } else if (bad) {
            degraded_streak_ = 1;
            clean_streak_ = 0;
            ladder_.transitionTo(HealthState::kDegraded, now);
        }
        break;
    case HealthState::kDegraded:
        if (fatal) {
            ladder_.transitionTo(HealthState::kQuarantined, now);
        } else if (bad) {
            ++degraded_streak_;
            clean_streak_ = 0;
            if (degraded_streak_ >= cfg_.health.quarantine_windows) {
                ladder_.transitionTo(HealthState::kQuarantined, now);
            }
        } else {
            ++clean_streak_;
            if (clean_streak_ >= cfg_.health.recover_windows) {
                degraded_streak_ = 0;
                clean_streak_ = 0;
                ladder_.transitionTo(HealthState::kHealthy, now);
            }
        }
        break;
    case HealthState::kQuarantined:
        // Linger long enough for the dwell to be observable, then
        // release the session's resources.
        ++quarantined_windows_;
        if (quarantined_windows_ >= cfg_.health.evict_windows) {
            ladder_.transitionTo(HealthState::kEvicted, now);
        }
        break;
    case HealthState::kEvicted:
        vs_panic("evicted session evaluated a health window");
    }
}

void
Session::finalize(Tick now)
{
    if (finalized_) {
        return;
    }
    finalized_ = true;
    // A quarantined session that ran out of playback is still
    // accounted as evicted: it never returned to service.
    if (ladder_.state() == HealthState::kQuarantined) {
        ladder_.transitionTo(HealthState::kEvicted, now);
    }
    result_ = pipeline_.finish();
}

const PipelineResult &
Session::result() const
{
    vs_assert(finalized_, "result() before finalize()");
    return result_;
}

DedupRecord
Session::takeDedup()
{
    return dedup_recorder_.take();
}

double
Session::demandMBps(const PipelineConfig &cfg)
{
    const VideoProfile &p = cfg.profile;
    const double frame_bytes =
        static_cast<double>(p.mabsPerFrame()) *
        static_cast<double>(p.mab_dim * p.mab_dim * 3);
    // Decode writes each frame once, the display reads it once.
    return 2.0 * frame_bytes * static_cast<double>(p.fps) / 1e6;
}

RehearsedSession
rehearseSession(const SessionConfig &cfg)
{
    Session s(cfg);
    s.start();
    RehearsedSession r;
    while (!s.done()) {
        r.local_end = s.stepVsync();
    }
    const bool left_early = s.leftEarly();
    s.finalize(r.local_end);
    SessionOutcome &o = r.outcome;
    o.id = s.id();
    o.final_state = s.health();
    o.trace_error = s.traceError();
    o.breaker_trips = s.breaker().trips();
    o.breaker_reprobes = s.breaker().reprobes();
    o.breaker_state = s.breaker().state();
    for (std::size_t st = 0; st < kNumHealthStates; ++st) {
        o.dwell[st] = s.ladder().dwell(
            static_cast<HealthState>(st), r.local_end);
    }
    o.left_early = left_early;
    o.group = cfg.stats_group;
    o.end_tick = r.local_end;
    o.result = s.result();
    o.dedup = s.takeDedup();
    return r;
}

std::uint64_t
Session::framebufferBytes(const PipelineConfig &cfg)
{
    const VideoProfile &p = cfg.profile;
    const std::uint64_t frame_bytes =
        static_cast<std::uint64_t>(p.mabsPerFrame()) * p.mab_dim *
        p.mab_dim * 3;
    return std::uint64_t{cfg.framebufferSlots()} * frame_bytes;
}

} // namespace vstream
