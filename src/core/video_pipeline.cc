#include "core/video_pipeline.hh"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/frame_prep.hh"
#include "decoder/video_decoder.hh"
#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_event.hh"
#include "video/arrival_model.hh"

namespace vstream
{

double
PipelineResult::s3Residency() const
{
    return span ? static_cast<double>(vd_time.s3) /
                      static_cast<double>(span)
                : 0.0;
}

VideoPipeline::VideoPipeline(PipelineConfig cfg) : cfg_(std::move(cfg))
{
    cfg_.finalize();
}

VideoPipeline::~VideoPipeline() = default;

/** Mutable state of one playback simulation. */
struct Playback
{
    const PipelineConfig &cfg;
    MemorySystem mem;
    FrameBufferManager fbm;
    std::unique_ptr<MachArray> machs;
    std::unique_ptr<WritebackStage> wb;
    VideoDecoder vd;
    DisplayController dc;
    SleepGovernor governor;
    /** The MACH writeback, when the scheme has one: it is offered
     * each frame's prepared representation. */
    MachWriteback *mach_wb = nullptr;
    /** Frame preparation: a helper thread for a streamed video the
     * pipeline's own caller steps, inline otherwise.  Created after
     * machs, whose state half it advances. */
    std::unique_ptr<FramePrep> prep;

    // Robustness plumbing (both null in a pristine run: the fault
    // paths stay untaken and results are bit-identical to the seed).
    std::unique_ptr<FaultInjector> faults;
    std::unique_ptr<ArrivalModel> arrivals;

    // Static schedule parameters.
    std::uint32_t frames;
    Tick period;
    Tick t0;
    std::uint32_t chunk_frames;
    std::uint32_t window;
    std::uint32_t pool_cap;
    bool baseline_pacing;

    // Decode bookkeeping.  Frames [oldest, decoded) hold a buffer
    // slot; each is released, oldest first, once its hold time
    // (releaseTick) has passed.
    std::vector<Tick> finishes;
    std::uint32_t oldest = 0;
    /** Slot of the last decoded frame: the next frame's reference.
     * Slots never move, so it stays valid after a release. */
    const BufferSlot *prev_slot = nullptr;
    Tick decoder_free = 0;
    std::uint32_t decoded = 0;
    // Vsync-loop state (lives here so the stepwise interface can
    // suspend/resume the playback between vsyncs).
    std::uint32_t next_decode = 0;  // next frame to decode
    std::int64_t last_shown = -1;   // last frame on screen
    Tick prev_free = 0;             // decoder idle-window start
    std::uint32_t prev_batch_first = 0;
    /** EWMA of decode busy time normalized to the low P-state, for
     * the history-based DVFS predictor. */
    double ewma_low_busy_s = 0.0;

    // Observability: per-frame series for the stats registry, and
    // the optional Chrome-trace sink with its tracks.
    stats::SampleSeries frame_exec_ms;
    stats::SampleSeries frame_slack_ms;
    TraceEventSink *trace;
    TraceEventSink::TrackId tr_vd = 0;
    TraceEventSink::TrackId tr_power = 0;
    TraceEventSink::TrackId tr_dc = 0;
    TraceEventSink::TrackId tr_dram = 0;

    PipelineResult result;

    Playback(const PipelineConfig &c, bool prepare_ahead)
        : cfg(c), mem("mem", nullptr, c.dram),
          fbm(mem, c.profile.mabsPerFrame(),
              c.profile.mab_dim * c.profile.mab_dim * kBytesPerPixel,
              c.scheme.mach
                  ? static_cast<std::uint64_t>(c.mach.entries) *
                        (c.mach.digest_bytes + c.mach.pointer_bytes)
                  : 0),
          vd("vd", nullptr, mem, c.decoder, c.profile),
          dc("dc", nullptr, mem, fbm, c.display),
          governor(c.decoder.power),
          frames(c.profile.frame_count),
          period(c.profile.framePeriodTicks()),
          t0(static_cast<Tick>(c.startup_vsyncs) *
             c.profile.framePeriodTicks()),
          chunk_frames(std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(
                     (PipelineConfig::kBufferInterval * c.profile.fps) /
                     sim_clock::s))),
          window(c.scheme.mach ? c.mach.num_machs - 1 : 0),
          pool_cap(c.framebufferSlots()),
          baseline_pacing(c.scheme.batch == 1)
    {
        frame_exec_ms = stats::SampleSeries(
            "", "per-frame decode busy time, ms");
        frame_slack_ms = stats::SampleSeries(
            "", "per-frame S0 slack before the deadline, ms");
        trace = c.trace;
        if (trace != nullptr) {
            tr_vd = trace->track("vd.decode");
            tr_power = trace->track("vd.power");
            tr_dc = trace->track("dc.scanout");
            tr_dram = trace->track("dram");
        }
        if (c.scheme.mach) {
            machs = std::make_unique<MachArray>(
                c.mach, static_cast<std::uint64_t>(frames) *
                            c.profile.mabsPerFrame());
            auto mach_writeback = std::make_unique<MachWriteback>(
                mem, fbm, *machs, c.scheme.layout, c.scheme.dcc);
            mach_wb = mach_writeback.get();
            wb = std::move(mach_writeback);
        } else {
            wb = std::make_unique<LinearWriteback>(mem, fbm);
        }
        vd.setFrequency(c.scheme.freq);

        if (c.faults.enabled()) {
            faults = std::make_unique<FaultInjector>("faults", c.faults);
            // A layer consults the injector only for its own class;
            // with no rule of that class every consult would draw
            // nothing and change nothing, so it never gets one.
            if (c.faults.anyRuleFor(FaultClass::kDramTimeout)) {
                mem.setFaultInjector(faults.get());
            }
            if (machs &&
                c.faults.anyRuleFor(FaultClass::kDigestCollision)) {
                machs->setFaultInjector(faults.get());
            }
        }
        if (c.arrival.enabled) {
            // The pipeline's preroll is the single source of truth.
            ArrivalConfig acfg = c.arrival;
            acfg.preroll_frames = c.preroll_frames;
            arrivals = std::make_unique<ArrivalModel>(c.profile, acfg,
                                                      faults.get());
        }

        const MachPlan plan =
            mach_wb != nullptr ? mach_wb->plan() : MachPlan{};
        prep = std::make_unique<FramePrep>(
            c.profile, mach_wb != nullptr ? &plan : nullptr,
            prepare_ahead);

        finishes.assign(frames, maxTick);
        frame_exec_ms.reserve(frames);
        frame_slack_ms.reserve(frames);
        result.frame_records.resize(frames);
        result.video_key = c.profile.key;
        result.scheme = c.scheme.scheme;
        result.frames = frames;
    }

    Tick vsync(std::uint64_t v) const { return t0 + v * period; }

    /** Network-arrival tick of frame @p i. */
    Tick
    arrival(std::uint32_t i) const
    {
        if (arrivals) {
            return arrivals->arrivalTick(i);
        }
        if (i < cfg.preroll_frames) {
            return 0;
        }
        const std::uint64_t chunk =
            (i - cfg.preroll_frames) / chunk_frames;
        return (chunk + 1) * PipelineConfig::kBufferInterval;
    }

    /** At a decoder wake-up for frame @p i, record whether fewer
     * than a full batch of frames had been delivered (the shrunk
     * batch the stalled network forces). */
    void
    noteBatchShrink(std::uint32_t i, Tick start)
    {
        if (!arrivals || cfg.scheme.batch <= 1) {
            return;
        }
        const std::uint32_t j_last =
            std::min(i + cfg.scheme.batch, frames) - 1;
        if (arrival(j_last) > start) {
            ++result.batch_shrinks;
        }
    }

    /** Tick at which frame @p j's buffer may be recycled. */
    Tick
    releaseTick(std::uint64_t j) const
    {
        return vsync(j + 2 + window);
    }

    /** Earliest tick a buffer slot is free for frame @p i. */
    Tick
    slotFreeTick() const
    {
        if (decoded - oldest < pool_cap) {
            return 0;
        }
        return releaseTick(oldest);
    }

    /** Earliest tick a whole batch's worth of slots is free: the
     * wake-up hysteresis that lets the decoder sleep through an
     * entire batch window instead of trickling one frame per vsync. */
    Tick
    batchSlotFreeTick() const
    {
        const std::uint64_t live = decoded - oldest;
        const std::uint64_t need = live + cfg.scheme.batch;
        if (need <= pool_cap) {
            return 0;
        }
        const std::uint64_t kth = std::min(need - pool_cap, live) - 1;
        return releaseTick(oldest + kth);
    }

    /** Earliest allowed start of decoding frame @p i. */
    Tick
    nextStart(std::uint32_t i) const
    {
        const Tick earliest =
            std::max({decoder_free, arrival(i), slotFreeTick()});
        if (baseline_pacing) {
            // One frame per period, woken by the application.
            const Tick slot_time =
                vsync(i) >= period ? vsync(i) - period : 0;
            return std::max(earliest, slot_time);
        }
        // Batched race-to-sleep: while work is buffered (and a frame
        // buffer is free), keep draining it back-to-back; the paper's
        // scheme is explicitly adaptive to however many frames the
        // network has delivered (Sec. 3.3).
        if (arrival(i) <= decoder_free &&
            slotFreeTick() <= decoder_free) {
            return earliest;
        }
        // Buffer empty or pool blocked: sleep until a full batch of
        // frames has arrived AND a full batch of buffers is free -
        // but wake no later than one period before the baseline
        // would have started this frame, so the first frame after a
        // sleep still has a cushion against a heavy tail.
        const std::uint32_t j_last =
            std::min(i + cfg.scheme.batch, frames) - 1;
        const Tick prefer =
            std::max(arrival(j_last), batchSlotFreeTick());
        const Tick guard =
            vsync(i) >= 2 * period ? vsync(i) - 2 * period : 0;
        return std::max(earliest, std::min(prefer, guard));
    }

    /** Spend the idle window [from, to) per the sleep governor and
     * attribute it to frames [first, last]. */
    void
    spendIdle(Tick from, Tick to, std::uint32_t first, std::uint32_t last)
    {
        if (to <= from) {
            return;
        }
        const Tick window_ticks = to - from;
        const SleepDecision d =
            governor.decide(window_ticks, vd.frequency());

        if (trace != nullptr) {
            // One lane shows where the idle window went: the
            // transition overhead at the front, then the dwell in
            // whichever state the governor picked.
            if (d.state == PowerState::kSleepS1 ||
                d.state == PowerState::kSleepS3) {
                const char *state =
                    d.state == PowerState::kSleepS1 ? "S1" : "S3";
                if (d.transition_time > 0) {
                    trace->complete(tr_power, "transition", from,
                                    d.transition_time);
                }
                trace->complete(tr_power, state,
                                from + d.transition_time, d.sleep_time);
            } else {
                trace->complete(tr_power, "slack", from, window_ticks);
            }
        }

        result.vd_time.transition += d.transition_time;
        result.energy.transition += d.transition_energy_j;
        const double dwell_energy = d.energy_j - d.transition_energy_j;
        if (d.state == PowerState::kSleepS1) {
            result.vd_time.s1 += d.sleep_time;
            result.energy.sleep += dwell_energy;
            ++result.sleep_events;
        } else if (d.state == PowerState::kSleepS3) {
            result.vd_time.s3 += d.sleep_time;
            result.energy.sleep += dwell_energy;
            ++result.sleep_events;
        } else {
            result.vd_time.short_slack += window_ticks;
            result.energy.short_slack += d.energy_j;
        }

        if (last < first || last >= frames) {
            return;
        }
        const auto n = static_cast<double>(last - first + 1);
        for (std::uint32_t f = first; f <= last; ++f) {
            FrameStateRecord &rec = result.frame_records[f];
            rec.transition +=
                static_cast<Tick>(d.transition_time / n);
            rec.e_trans += d.transition_energy_j / n;
            if (d.state == PowerState::kSleepS1) {
                rec.s1 += static_cast<Tick>(d.sleep_time / n);
                rec.e_sleep += dwell_energy / n;
            } else if (d.state == PowerState::kSleepS3) {
                rec.s3 += static_cast<Tick>(d.sleep_time / n);
                rec.e_sleep += dwell_energy / n;
            } else {
                rec.slack += static_cast<Tick>(window_ticks / n);
                rec.e_slack += d.energy_j / n;
            }
        }
    }

    /** Decode frame @p i starting no earlier than @p start. */
    void
    decodeOne(std::uint32_t i, Tick start)
    {
        // Recycle every slot whose hold time has expired.  nextStart()
        // waited for the oldest one when the pool was full.
        while (oldest < decoded && releaseTick(oldest) <= start) {
            fbm.release(oldest);
            ++oldest;
        }
        vs_assert(decoded - oldest < pool_cap,
                  "decode of frame ", i, " with every buffer held");

        const PreparedFrame &prepared = prep->take(i);
        const Frame &frame = prepared.frame;
        if (mach_wb != nullptr) {
            mach_wb->offerPrepared(&prepared.mach);
        }
        BufferSlot &slot = fbm.acquire(i);

        // History-based DVFS: drop to the low P-state when the EWMA
        // of recent decode times predicts comfortable slack.
        if (cfg.scheme.dvfs_slack) {
            const double period_s = ticksToSeconds(period);
            const bool safe =
                ewma_low_busy_s > 0.0 &&
                ewma_low_busy_s <= cfg.scheme.dvfs_margin * period_s;
            vd.setFrequency(safe ? VdFrequency::kLow
                                 : VdFrequency::kHigh);
        }

        const FrameDecodeResult r = vd.decodeFrame(
            frame, *wb, slot, prev_slot, start, slot.layout);
        wb->finishFrame(r.finish);
        prep->release(i);
        prev_slot = &slot;

        if (cfg.scheme.dvfs_slack) {
            const double low_equiv_s =
                ticksToSeconds(r.busy()) *
                (cfg.decoder.power.frequencyHz(vd.frequency()) /
                 cfg.decoder.power.freq_low_hz);
            ewma_low_busy_s = ewma_low_busy_s == 0.0
                                  ? low_equiv_s
                                  : 0.7 * ewma_low_busy_s +
                                        0.3 * low_equiv_s;
        }

        finishes[i] = r.finish;
        decoder_free = r.finish;
        ++decoded;

        FrameStateRecord &rec = result.frame_records[i];
        rec.start = r.start;
        rec.finish = r.finish;
        rec.deadline = vsync(i);
        rec.exec = r.busy();
        rec.e_exec = cfg.decoder.power.activePower(vd.frequency()) *
                     ticksToSeconds(r.busy());
        result.vd_time.execution += r.busy();
        result.energy.vd_processing += rec.e_exec;

        frame_exec_ms.sample(ticksToMs(r.busy()));
        if (rec.deadline > rec.finish) {
            frame_slack_ms.sample(ticksToMs(rec.deadline - rec.finish));
        } else {
            frame_slack_ms.sample(0.0);
        }
        if (trace != nullptr) {
            trace->complete(
                tr_vd, "decode", r.start, r.busy(),
                {{"frame", static_cast<double>(i)},
                 {"stall_ms", ticksToMs(r.mem_stall)}});
        }
    }

    /** Cumulative DRAM counter samples on the dram track. */
    void
    traceDramCounters(Tick now)
    {
        if (trace == nullptr) {
            return;
        }
        const DramActivityCounts c = mem.energy().totalCounts();
        trace->counter(tr_dram, "dram.bytes", now,
                       static_cast<double>(c.bytes_read +
                                           c.bytes_written));
        trace->counter(tr_dram, "dram.activations", now,
                       static_cast<double>(c.activations));
    }

    /** Register every stat of this playback into @p r. */
    void
    regStats(StatsRegistry &r)
    {
        vd.regStats(r);
        dc.regStats(r);
        mem.regStats(r);
        if (machs) {
            machs->regStats(r, "vd.mach");
        }
        r.add("pipeline.frameExecMs", frame_exec_ms);
        r.add("pipeline.frameSlackMs", frame_slack_ms);
        r.addCallback("pipeline.frames", "frames in the video", [this] {
            return static_cast<double>(result.frames);
        });
        r.addCallback("pipeline.drops", "frames that missed a vsync",
                      [this] {
                          return static_cast<double>(result.drops);
                      });
        r.addCallback("pipeline.peakBuffers",
                      "high-water mark of live frame buffers", [this] {
                          return static_cast<double>(
                              result.peak_buffers);
                      });
        r.addCallback("pipeline.sleepEvents",
                      "idle windows spent in S1/S3", [this] {
                          return static_cast<double>(
                              result.sleep_events);
                      });
        r.addCallback("pipeline.underruns",
                      "vsyncs whose frame had not arrived", [this] {
                          return static_cast<double>(
                              result.underruns);
                      });
        r.addCallback("pipeline.batchShrinks",
                      "decoder wake-ups with a partial batch", [this] {
                          return static_cast<double>(
                              result.batch_shrinks);
                      });
        if (faults) {
            faults->regStats(r);
        }
        r.addCallback("pipeline.spanSeconds", "simulated playback span",
                      [this] { return ticksToSeconds(result.span); });
        r.addCallback("pipeline.energyJ", "total system energy",
                      [this] { return result.energy.total(); });
        r.addCallback("pipeline.energy.dcJ", "display-controller energy",
                      [this] { return result.energy.dc; });
        r.addCallback("pipeline.energy.memBackgroundJ",
                      "DRAM background energy",
                      [this] { return result.energy.mem_background; });
        r.addCallback("pipeline.energy.vdProcessingJ",
                      "decoder active (S0 busy) energy",
                      [this] { return result.energy.vd_processing; });
        r.addCallback("pipeline.energy.sleepJ", "S1/S3 dwell energy",
                      [this] { return result.energy.sleep; });
        r.addCallback("pipeline.energy.shortSlackJ",
                      "S0 idle (slack too short to sleep) energy",
                      [this] { return result.energy.short_slack; });
        r.addCallback("pipeline.energy.memBurstJ", "DRAM burst energy",
                      [this] { return result.energy.mem_burst; });
        r.addCallback("pipeline.energy.memActPreJ",
                      "DRAM activate/precharge energy",
                      [this] { return result.energy.mem_act_pre; });
        r.addCallback("pipeline.energy.transitionJ",
                      "power-state transition energy",
                      [this] { return result.energy.transition; });
        r.addCallback("pipeline.energy.machOverheadJ",
                      "MACH/display-cache/buffer static overhead",
                      [this] { return result.energy.mach_overhead; });
    }
};

void
VideoPipeline::start(Driver driver)
{
    vs_assert(!ran_, "a VideoPipeline may only simulate once");
    ran_ = true;
    p_ = std::make_unique<Playback>(cfg_, driver == Driver::kOwn);
}

bool
VideoPipeline::preparesAhead() const
{
    vs_assert(p_ != nullptr, "start() must precede preparesAhead()");
    return p_->prep->threaded();
}

bool
VideoPipeline::stepDone() const
{
    vs_assert(p_ != nullptr, "start() must precede stepDone()");
    return next_vsync_ >= p_->frames;
}

Tick
VideoPipeline::nextVsyncTick() const
{
    vs_assert(p_ != nullptr && next_vsync_ < p_->frames,
              "nextVsyncTick() needs a pending vsync");
    return p_->vsync(next_vsync_);
}

void
VideoPipeline::stepVsync()
{
    vs_assert(p_ != nullptr && !finished_,
              "stepVsync() needs a started, unfinished playback");
    Playback &p = *p_;
    const std::uint32_t n = p.frames;
    const std::uint32_t v = next_vsync_;
    vs_assert(v < n, "stepVsync() past the last vsync");
    ++next_vsync_;

    // Decode everything that starts at or before this vsync.
    while (p.next_decode < n) {
        const Tick start = p.nextStart(p.next_decode);
        if (start > p.vsync(v)) {
            break;
        }

        // A sleep gap ends the previous "batch" (the run of
        // back-to-back decodes); its idle window is attributed
        // across the frames of that run.
        if (p.next_decode > 0 && start > p.prev_free) {
            p.spendIdle(p.prev_free, start, p.prev_batch_first,
                        p.next_decode - 1);
            p.prev_batch_first = p.next_decode;
            p.noteBatchShrink(p.next_decode, start);
        }
        p.decodeOne(p.next_decode, start);
        p.prev_free = p.decoder_free;
        ++p.next_decode;
    }

    // Scan-out at this vsync.
    const Tick now = p.vsync(v);
    std::int64_t shown = p.last_shown;
    if (v < p.decoded && p.finishes[v] <= now) {
        shown = v;
    }

    if (shown != static_cast<std::int64_t>(v)) {
        ++p.result.drops;
        p.result.frame_records[v].dropped = true;
        if (p.trace != nullptr) {
            p.trace->instant(p.tr_dc, "drop", now,
                             {{"frame", static_cast<double>(v)}});
        }
        // Streaming-buffer underrun: this vsync's frame had not
        // even been delivered.  The pipeline degrades by showing
        // the previous frame again (accounted at the DC) rather
        // than panicking.
        if (p.arrivals && p.arrival(v) > now) {
            ++p.result.underruns;
            if (shown >= 0) {
                p.dc.noteUnderrunRepeat();
            }
        }
    }
    if (shown >= 0) {
        // Re-rendering a frame older than the retention window
        // would read a recycled buffer; show it without traffic.
        const bool stale =
            shown + 2 + static_cast<std::int64_t>(p.window) <=
            static_cast<std::int64_t>(v);
        if (!stale) {
            const BufferSlot *shown_slot =
                p.fbm.find(static_cast<std::uint64_t>(shown));
            vs_assert(shown_slot != nullptr,
                      "scan-out of a recycled buffer");
            const ScanStats scan = p.dc.scanOut(
                shown_slot->layout, now,
                shown != static_cast<std::int64_t>(v));
            if (!scan.verified) {
                p.result.all_verified = false;
            }
            if (p.trace != nullptr) {
                p.trace->complete(
                    p.tr_dc, "scanout", scan.start,
                    scan.finish - scan.start,
                    {{"frame", static_cast<double>(shown)},
                     {"bytes", static_cast<double>(
                                   scan.bytes_read)}});
            }
        }
    }
    p.traceDramCounters(now);
    p.last_shown = shown;
}

bool
VideoPipeline::hasMach() const
{
    return p_ != nullptr ? p_->machs != nullptr : cfg_.scheme.mach;
}

void
VideoPipeline::setMachBypass(bool on)
{
    vs_assert(p_ != nullptr, "start() must precede setMachBypass()");
    vs_assert(!p_->prep->threaded(),
              "setMachBypass() on a pipeline that decides ahead");
    if (p_->machs) {
        p_->machs->setBypass(on);
    }
}

void
VideoPipeline::setMachWriteObserver(MachWriteObserver obs)
{
    vs_assert(p_ != nullptr,
              "start() must precede setMachWriteObserver()");
    vs_assert(!p_->prep->threaded(),
              "setMachWriteObserver() on a pipeline that decides ahead");
    if (p_->machs) {
        p_->machs->setWriteObserver(std::move(obs));
    }
}

const PipelineResult &
VideoPipeline::liveResult() const
{
    vs_assert(p_ != nullptr, "start() must precede liveResult()");
    return p_->result;
}

MachStats
VideoPipeline::liveMachStats() const
{
    vs_assert(p_ != nullptr, "start() must precede liveMachStats()");
    vs_assert(!p_->prep->threaded(),
              "liveMachStats() on a pipeline that decides ahead");
    return p_->machs ? p_->machs->stats() : MachStats{};
}

std::uint64_t
VideoPipeline::liveDramAbandoned() const
{
    vs_assert(p_ != nullptr,
              "start() must precede liveDramAbandoned()");
    return p_->mem.controller().abandonedCount();
}

PipelineResult
VideoPipeline::run()
{
    start();
    while (!stepDone()) {
        stepVsync();
    }
    return finish();
}

PipelineResult
VideoPipeline::finish()
{
    vs_assert(p_ != nullptr && !finished_,
              "finish() needs a started, unfinished playback");
    finished_ = true;
    Playback &p = *p_;
    const std::uint32_t n = p.frames;
    p.prep->stop();

    // Close the decoder's final idle window.  A session terminated
    // early (quarantine/eviction) closes at its last processed vsync
    // rather than the nominal end of playback; stepping every vsync
    // makes this identical to the classic one-shot run().
    const std::uint32_t done = next_vsync_ > 0 ? next_vsync_ : 1;
    const Tick span = p.vsync(done - 1) + p.period;
    if (p.decoder_free < span) {
        p.spendIdle(std::max(p.prev_free, p.vsync(0)), span,
                    p.prev_batch_first, done - 1);
    }
    // Idle time before the very first decode (startup).
    if (n > 0 && !p.result.frame_records.empty()) {
        const Tick first_start = p.result.frame_records[0].start;
        if (first_start > 0) {
            p.spendIdle(0, first_start, 1, 0); // totals only
        }
    }

    // ---- assemble the result -----------------------------------------
    p.mem.flushWrites(span);
    PipelineResult &r = p.result;
    r.span = span;
    const double span_s = ticksToSeconds(span);
    const double scale = cfg_.trafficEnergyScale();

    r.energy.mem_act_pre =
        p.mem.energy().actPreEnergyTotal() * scale;
    r.energy.mem_burst = p.mem.energy().burstEnergyTotal() * scale;
    r.energy.mem_background = cfg_.dram.background_watts * span_s;
    r.energy.dc = cfg_.display.power_w * span_s;

    double overhead_w = 0.0;
    if (cfg_.scheme.mach) {
        overhead_w += cfg_.mach.mach_power_w;
    }
    if (cfg_.scheme.display_cache) {
        overhead_w += cfg_.mach.display_cache_power_w;
    }
    if (cfg_.scheme.mach_buffer) {
        overhead_w += cfg_.mach.mach_buffer_power_w;
    }
    if (cfg_.scheme.co_mach) {
        overhead_w += cfg_.mach.co_mach_power_w;
    }
    r.energy.mach_overhead = overhead_w * span_s;

    r.writeback = p.wb->totals();
    r.display = p.dc.totals();
    if (p.machs) {
        r.mach = p.machs->stats();
        r.top_match_shares = p.machs->topMatchShares(32);
        r.co_mach_inserts = p.machs->coMachInserts();
    }
    r.dram_vd = p.mem.energy().counts(Requester::kVideoDecoder);
    r.dram_dc = p.mem.energy().counts(Requester::kDisplayController);
    r.dram_total = p.mem.energy().totalCounts();
    r.peak_buffers = p.fbm.slotsAllocated();
    r.pool_bytes = p.fbm.poolBytes();
    r.vd_cache_miss_rate = p.vd.cache().missRate();
    if (p.dc.displayCache() != nullptr) {
        r.display_cache_hits = p.dc.displayCache()->hitCount();
        r.display_cache_misses = p.dc.displayCache()->missCount();
    }
    if (p.dc.machBuffer() != nullptr) {
        r.mach_buffer_hits = p.dc.machBuffer()->hitCount();
        r.mach_buffer_misses = p.dc.machBuffer()->missCount();
    }
    r.dram_retries = p.mem.controller().retryCount();
    r.dram_abandoned = p.mem.controller().abandonedCount();
    if (p.faults) {
        r.faults = p.faults->totals();
    }

    if (cfg_.frame_csv != nullptr) {
        std::ostream &os = *cfg_.frame_csv;
        os << "frame,start_ms,finish_ms,deadline_ms,exec_ms,slack_ms,"
              "trans_ms,s1_ms,s3_ms,e_exec_mj,e_slack_mj,e_trans_mj,"
              "e_sleep_mj,dropped\n";
        for (std::size_t f = 0; f < r.frame_records.size(); ++f) {
            const FrameStateRecord &rec = r.frame_records[f];
            os << f << ',' << ticksToMs(rec.start) << ','
               << ticksToMs(rec.finish) << ','
               << ticksToMs(rec.deadline) << ','
               << ticksToMs(rec.exec) << ',' << ticksToMs(rec.slack)
               << ',' << ticksToMs(rec.transition) << ','
               << ticksToMs(rec.s1) << ',' << ticksToMs(rec.s3) << ','
               << rec.e_exec * 1e3 << ',' << rec.e_slack * 1e3 << ','
               << rec.e_trans * 1e3 << ',' << rec.e_sleep * 1e3 << ','
               << (rec.dropped ? 1 : 0) << '\n';
        }
    }

    if (cfg_.stats_out != nullptr || cfg_.stats_json != nullptr ||
        cfg_.stats_csv != nullptr) {
        StatsRegistry reg;
        p.regStats(reg);
        if (cfg_.stats_out != nullptr) {
            std::ostream &os = *cfg_.stats_out;
            os << "---- " << cfg_.profile.key << " / "
               << schemeName(cfg_.scheme.scheme) << " ----\n";
            reg.dumpText(os);
        }
        if (cfg_.stats_json != nullptr) {
            reg.dumpJson(*cfg_.stats_json);
        }
        if (cfg_.stats_csv != nullptr) {
            reg.dumpCsv(*cfg_.stats_csv);
        }
    }
    // Move, don't copy: the result carries per-frame record vectors.
    return std::move(p.result);
}

PipelineResult
simulateScheme(const VideoProfile &profile, const SchemeConfig &scheme)
{
    PipelineConfig cfg;
    cfg.profile = profile;
    cfg.scheme = scheme;
    VideoPipeline pipeline(std::move(cfg));
    return pipeline.run();
}

} // namespace vstream
