/**
 * @file
 * Steady-state zero-allocation test for the serving hot path.
 *
 * This binary replaces the global allocation functions with counting
 * wrappers, warms a stepwise pipeline past every amortised growth
 * phase (frame-buffer slots, window/dump rings, MACH tables, DRAM queues,
 * event-queue storage), and then asserts that a window of further
 * vsyncs performs *zero* heap allocations - the acceptance criterion
 * the slot-recycling / ring-buffer / scratch-reuse rewrites exist for.
 * The simulation is fully deterministic, so the allocation count in
 * the measured window is a stable, reproducible quantity; so are the
 * bytes a whole playback requests, which one test bounds by what its
 * frame buffers must hold.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include <execinfo.h>
#include <unistd.h>

#include "core/framebuffer_layout.hh"
#include "core/video_pipeline.hh"
#include "video/synthetic_video.hh"
#include "video/workloads.hh"

namespace
{

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<int> g_trace_budget{0};

void
maybeTraceAlloc()
{
    if (g_trace_budget.load(std::memory_order_relaxed) <= 0) {
        return;
    }
    if (g_trace_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        return;
    }
    void *frames[24];
    const int depth = backtrace(frames, 24);
    backtrace_symbols_fd(frames, depth, STDERR_FILENO);
    const char nl[] = "----\n";
    (void)!write(STDERR_FILENO, nl, sizeof(nl) - 1);
}

void *
countedAlloc(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    maybeTraceAlloc();
    if (void *p = std::malloc(n ? n : 1)) { // NOLINT
        return p;
    }
    throw std::bad_alloc{};
}

void *
countedAlignedAlloc(std::size_t n, std::size_t align)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(align, (n + align - 1) /
                                                align * align)) {
        return p;
    }
    throw std::bad_alloc{};
}

} // namespace

// Counting replacements for every allocation entry point the
// pipeline can reach.  Deletes deliberately uninstrumented: the test
// pins "no allocation", not leak balance (asan owns that).
void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}

void
operator delete(void *p) noexcept
{
    std::free(p); // NOLINT
}

void
operator delete[](void *p) noexcept
{
    std::free(p); // NOLINT
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p); // NOLINT
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p); // NOLINT
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p); // NOLINT
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p); // NOLINT
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p); // NOLINT
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p); // NOLINT
}

namespace vstream
{
namespace
{

VideoProfile
steadyProfile(std::uint32_t frames)
{
    VideoProfile p;
    p.key = "Z";
    p.width = 96;
    p.height = 48;
    p.frame_count = frames;
    p.seed = 4242;
    return p;
}

/** Vsyncs stepped before the measured window opens. */
constexpr int kWarmupVsyncs = 240;
/** Vsyncs whose allocation delta must be exactly zero. */
constexpr int kMeasuredVsyncs = 96;

void
expectZeroAllocSteadyState(Scheme scheme, std::uint32_t batch,
                           std::uint32_t frames = 420, bool dcc = false)
{
    PipelineConfig cfg;
    cfg.profile = steadyProfile(frames);
    cfg.scheme = SchemeConfig::make(scheme, batch);
    cfg.scheme.dcc = dcc;
    VideoPipeline vp(std::move(cfg));
    vp.start();

    int stepped = 0;
    while (!vp.stepDone() && stepped < kWarmupVsyncs) {
        vp.stepVsync();
        ++stepped;
    }
    ASSERT_FALSE(vp.stepDone())
        << "profile too short to leave a measured window";

    const std::uint64_t before =
        g_news.load(std::memory_order_relaxed);
    if (std::getenv("VSTREAM_ALLOC_TRACE") != nullptr) { // NOLINT
        g_trace_budget.store(24, std::memory_order_relaxed);
    }
    int measured = 0;
    while (!vp.stepDone() && measured < kMeasuredVsyncs) {
        vp.stepVsync();
        ++measured;
    }
    const std::uint64_t delta =
        g_news.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(delta, 0u)
        << schemeName(scheme) << ": " << delta << " allocations in "
        << measured << " steady-state vsyncs after " << stepped
        << " warmup vsyncs";

    // Drain and finish so the run is a complete, valid playback.
    while (!vp.stepDone()) {
        vp.stepVsync();
    }
    const PipelineResult r = vp.finish();
    EXPECT_EQ(r.frames, frames);
}

TEST(ZeroAlloc, GabServingSteadyStateAllocatesNothing)
{
    // The full paper stack: MACH + gradient + pointer-digest layout
    // + display cache + MACH buffer - the widest hot path there is.
    expectZeroAllocSteadyState(Scheme::kGab, 8);
}

TEST(ZeroAlloc, GabDccSteadyStateAllocatesNothing)
{
    // DCC packs unique blocks off the mab grid: each slot lists their
    // region offsets in storage reserved when the slot was made.
    expectZeroAllocSteadyState(Scheme::kGab, 8, 420, /*dcc=*/true);
}

TEST(ZeroAlloc, StreamedPlaybackHeapIsItsFrameBuffers)
{
    // A streamed 48-frame 512x288 G playback allocates its frame
    // buffers - per live slot, one mab of arena and one 12 B layout
    // record per mab - its generator ring of inter_window + 1 planes,
    // the gab bytes of the two prepared frames, and less than 3 MiB
    // besides (MACH, caches, DRAM queues, records).  Counted in bytes
    // requested, so the bound holds on any host; per-mab bookkeeping
    // in a slot, or a frame copied out of the ring, breaks it.
    PipelineConfig cfg;
    cfg.profile = scaledWorkload("V8", 48, 512, 288);
    cfg.scheme = SchemeConfig::make(Scheme::kGab);
    const VideoProfile p = cfg.profile;
    ASSERT_FALSE(SyntheticVideo(p).sharesContent());
    const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
    VideoPipeline vp(std::move(cfg));
    const PipelineResult r = vp.run();
    const std::uint64_t bytes =
        g_bytes.load(std::memory_order_relaxed) - before;

    const std::uint64_t mabs = p.mabsPerFrame();
    const std::uint64_t frame = SyntheticVideo::frameBytes(p);
    const std::uint64_t slots =
        r.peak_buffers * mabs * (frame / mabs + sizeof(MabRecord));
    const std::uint64_t ring = (p.inter_window + 1ULL) * frame;
    const std::uint64_t bound = slots + ring + 2 * frame + (3ULL << 20);
    EXPECT_LE(bytes, bound) << r.peak_buffers << " slots of " << mabs
                            << " mabs";
}

TEST(ZeroAlloc, StreamedGabSteadyStateAllocatesNothing)
{
    // A video past the shared budget streams: its frames come from
    // the preparation helper thread, whose allocations count too.
    const auto frames = static_cast<std::uint32_t>(
        SyntheticVideo::kSharedBudgetBytes /
            SyntheticVideo::frameBytes(steadyProfile(1)) +
        1);
    ASSERT_FALSE(SyntheticVideo(steadyProfile(frames)).sharesContent());
    expectZeroAllocSteadyState(Scheme::kGab, 8, frames);
}

TEST(ZeroAlloc, BaselineSteadyStateAllocatesNothing)
{
    expectZeroAllocSteadyState(Scheme::kBaseline, 1);
}

TEST(ZeroAlloc, RaceToSleepSteadyStateAllocatesNothing)
{
    expectZeroAllocSteadyState(Scheme::kRaceToSleep, 1);
}

/** Frames drawn from @p video into a recycled scratch frame after the
 * first (which sizes the scratch) allocate nothing. */
void
expectZeroAllocFrames(SyntheticVideo &video)
{
    Frame scratch;
    video.nextFrameInto(scratch);
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    std::uint32_t frames = 0;
    while (!video.done() && frames < 64) {
        video.nextFrameInto(scratch);
        ++frames;
    }
    EXPECT_EQ(frames, 64u);
    EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u)
        << (video.sharesContent() ? "shared planes" : "private ring");
}

TEST(ZeroAlloc, SharedContentMaterializeAllocatesNothing)
{
    SyntheticVideo video(steadyProfile(96));
    ASSERT_TRUE(video.sharesContent());
    expectZeroAllocFrames(video);
}

TEST(ZeroAlloc, SharedContentFrameOwnsNoPixels)
{
    SyntheticVideo video(steadyProfile(96));
    ASSERT_TRUE(video.sharesContent());
    // Not even the first frame into a fresh shell allocates: it views
    // the shared planes in place.
    Frame f;
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    video.nextFrameInto(f);
    EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
    EXPECT_TRUE(f.viewsShared());
    SyntheticVideo again(steadyProfile(96));
    Frame g;
    again.nextFrameInto(g);
    EXPECT_EQ(g.plane().data(), f.plane().data());
}

TEST(ZeroAlloc, OverAlignedObjectsUseTheReplacedFunctions)
{
    // An over-aligned object goes through the aligned new above and
    // comes back through the sized aligned delete; a delete the
    // binary does not replace would free this binary's aligned_alloc
    // memory with the library's (or a sanitizer's) own.
    struct alignas(64) Line
    {
        std::uint8_t bytes[64] = {};
    };
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    auto one = std::make_unique<Line>();
    auto many = std::make_unique<Line[]>(3);
    EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 2u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(one.get()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(many.get()) % 64, 0u);
}

TEST(ZeroAlloc, RingGenerationAllocatesNothing)
{
    VideoProfile p = steadyProfile(96);
    p.frame_count = static_cast<std::uint32_t>(
        SyntheticVideo::kSharedBudgetBytes / SyntheticVideo::frameBytes(p) +
        1);
    SyntheticVideo video(p);
    ASSERT_FALSE(video.sharesContent());
    expectZeroAllocFrames(video);
}

} // namespace
} // namespace vstream
