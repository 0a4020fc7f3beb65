/**
 * @file
 * Benchmark-owned layer replay of one playback, for the traced run.
 *
 * VideoPipeline hides its layers behind one stepVsync() call, so the
 * traced run replays each unit a second time through the same public
 * components the pipeline wires together (the wiring
 * examples/recorder_pipeline.cpp uses): SyntheticVideo::nextFrameInto,
 * VideoDecoder::decodeFrame writing through the real MachWriteback or
 * LinearWriteback, and DisplayController::scanOut.  A timing
 * WritebackStage decorator splits the writeback out of the decode.
 *
 * The replay keeps its own simplified schedule (decode up to one
 * batch ahead of the display, no network arrivals, no faults), so
 * DRAM timing and display statistics differ from the pipeline's.
 * What it must reproduce exactly is the content path: the
 * writeback totals and MACH statistics depend only on the frames and
 * the scheme, and the self-test checks them against the pipeline.
 */

#ifndef VSTREAM_BENCHMARK_LAYER_REPLAY_HH
#define VSTREAM_BENCHMARK_LAYER_REPLAY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/mach_array.hh"
#include "core/pipeline_config.hh"
#include "core/writeback_stage.hh"
#include "decoder/video_decoder.hh"
#include "display/display_controller.hh"
#include "sim/event_queue.hh"
#include "span_trace.hh"
#include "video/synthetic_video.hh"

namespace vbench
{

using namespace vstream;

/**
 * Decorator timing every call into the real writeback stage.
 *
 * beginFrame (gab transform and batched digest) and finishFrame
 * (coalescer flush and MACH dump) get a span each.  writeMab runs
 * once per mab, so its time is summed and recorded by recordWrites()
 * as one span per frame, placed right after the beginFrame span; the
 * sum of disjoint calls inside the decode always fits there.
 *
 * Timing a 48 B write costs two clock reads, a sizeable fraction of
 * the write itself.  One read's cost falls inside each measured
 * interval and is subtracted; both reads per call are then recorded
 * as a "trace.timer" span, so neither the writeback nor the decoder
 * is charged for the instrument.
 */
class TimingWriteback final : public WritebackStage
{
  public:
    TimingWriteback(WritebackStage &inner, SpanTrace &trace,
                    std::uint64_t unit)
        : inner_(inner), trace_(trace), unit_(unit)
    {
        // Calibrate now, outside every layer span, not on first use.
        (void)timerCostNs();
    }

    void
    beginFrame(const Frame &frame, BufferSlot &slot, Tick now,
               FrameLayout &layout) override
    {
        const std::int64_t t0 = nowNs();
        inner_.beginFrame(frame, slot, now, layout);
        write_start_ = nowNs();
        write_ns_ = 0;
        writes_ = 0;
        trace_.add("core.writeback_begin", unit_, t0, write_start_);
    }

    void
    writeMab(const Macroblock &mab, std::uint32_t idx, Tick now) override
    {
        const std::int64_t t0 = nowNs();
        inner_.writeMab(mab, idx, now);
        write_ns_ += nowNs() - t0;
        ++writes_;
    }

    /** Emit this frame's summed writeMab span and its timer overhead;
     * call right after decodeFrame, while the decode span is open. */
    void
    recordWrites()
    {
        const std::int64_t c = timerCostNs();
        const std::int64_t end =
            write_start_ + std::max<std::int64_t>(0, write_ns_ - writes_ * c);
        trace_.add("core.writeback_write", unit_, write_start_, end);
        trace_.add("trace.timer", unit_, end,
                   std::min(nowNs(), end + 2 * writes_ * c));
    }

    void
    finishFrame(Tick now) override
    {
        {
            ScopedSpan s(trace_, "core.writeback_finish", unit_);
            inner_.finishFrame(now);
        }
        totals_ = inner_.totals();
    }

  private:
    WritebackStage &inner_;
    SpanTrace &trace_;
    std::uint64_t unit_;
    std::int64_t write_start_ = 0;
    std::int64_t write_ns_ = 0;
    std::int64_t writes_ = 0;
};

/** What the replay must reproduce exactly. */
struct ReplayTotals
{
    WritebackTotals writeback;
    MachStats mach;
};

/** Replay @p config under a "replay.unit" span tagged @p unit. */
inline ReplayTotals
replayUnit(const PipelineConfig &config, SpanTrace &trace,
           std::uint64_t unit)
{
    ScopedSpan root(trace, "replay.unit", unit);
    PipelineConfig cfg = config;
    cfg.finalize();
    const VideoProfile &p = cfg.profile;
    const std::uint32_t mab_bytes = p.mab_dim * p.mab_dim * kBytesPerPixel;

    // Construction order follows the pipeline's, so the simulated
    // address map is assigned the same way.
    EventQueue queue;
    MemorySystem mem("mem", &queue, cfg.dram);
    FrameBufferManager fbm(
        mem, p.mabsPerFrame(), mab_bytes,
        cfg.scheme.mach ? static_cast<std::uint64_t>(cfg.mach.entries) *
                              (cfg.mach.digest_bytes + cfg.mach.pointer_bytes)
                        : 0);
    std::unique_ptr<MachArray> machs;
    std::unique_ptr<WritebackStage> real;
    if (cfg.scheme.mach) {
        machs = std::make_unique<MachArray>(cfg.mach);
        real = std::make_unique<MachWriteback>(mem, fbm, *machs,
                                               cfg.scheme.layout,
                                               cfg.scheme.dcc);
    } else {
        real = std::make_unique<LinearWriteback>(mem, fbm);
    }
    VideoDecoder vd("vd", &queue, mem, cfg.decoder, p);
    DisplayController dc("dc", &queue, mem, fbm, cfg.display);
    SyntheticVideo video(p);
    vd.setFrequency(cfg.scheme.freq);
    TimingWriteback wb(*real, trace, unit);

    const std::uint32_t n = p.frame_count;
    const Tick period = p.framePeriodTicks();
    const Tick t0 = static_cast<Tick>(cfg.startup_vsyncs) * period;
    // Frames stay resident until the display and the MACH window are
    // past them, as in the pipeline; decode runs one batch ahead.
    const std::uint32_t window = cfg.scheme.mach ? cfg.mach.num_machs - 1 : 0;
    const std::uint32_t lead = cfg.scheme.batch;
    const std::uint32_t hold = window + lead + 2;
    std::vector<FrameLayout> layouts(hold);
    Frame frame;
    Tick decoder_free = 0;
    std::uint32_t next = 0;

    for (std::uint32_t v = 0; v < n; ++v) {
        const Tick vsync = t0 + static_cast<Tick>(v) * period;
        for (; next < n && next < v + lead; ++next) {
            const Tick due = t0 + static_cast<Tick>(next) * period;
            const Tick ahead = static_cast<Tick>(lead) * period;
            const Tick start =
                std::max(decoder_free, due > ahead ? due - ahead : 0);
            {
                ScopedSpan s(trace, "video.generate", unit);
                video.nextFrameInto(frame);
            }
            BufferSlot &slot = fbm.acquire(next);
            const BufferSlot *prev =
                next > 0 ? fbm.find(next - 1) : nullptr;
            FrameDecodeResult r;
            {
                ScopedSpan s(trace, "decoder.decode", unit);
                r = vd.decodeFrame(frame, wb, slot, prev, start,
                                   layouts[next % hold]);
                wb.recordWrites();
            }
            wb.finishFrame(r.finish);
            decoder_free = r.finish;
        }
        {
            ScopedSpan s(trace, "display.scanout", unit);
            dc.scanOut(layouts[v % hold], vsync);
        }
        if (v >= window + 1) {
            fbm.release(v - window - 1);
        }
    }

    ReplayTotals out;
    out.writeback = wb.totals();
    if (machs) {
        out.mach = machs->stats();
    }
    return out;
}

} // namespace vbench

#endif // VSTREAM_BENCHMARK_LAYER_REPLAY_HH
