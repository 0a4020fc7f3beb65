/**
 * @file
 * Tests for checksum-based transaction elimination at the display
 * and the generator's static-frame support.
 */

#include <gtest/gtest.h>

#include "block_util.hh"
#include "core/video_pipeline.hh"
#include "core/writeback_stage.hh"
#include "display/display_controller.hh"
#include "video/synthetic_video.hh"

namespace vstream
{
namespace
{

VideoProfile
staticProfile(double static_rate)
{
    VideoProfile p;
    p.key = "TE";
    p.width = 64;
    p.height = 32;
    p.frame_count = 40;
    p.seed = 321;
    p.static_frame_rate = static_rate;
    return p;
}

TEST(StaticFrames, GeneratorRepeatsVerbatim)
{
    VideoProfile p = staticProfile(1.0); // every frame after 0 static
    SyntheticVideo video(p);
    const Frame first = video.nextFrame();
    for (int i = 1; i < 5; ++i) {
        const Frame f = video.nextFrame();
        EXPECT_EQ(f.contentChecksum(), first.contentChecksum())
            << "frame " << i;
        EXPECT_EQ(f.index(), static_cast<std::uint64_t>(i));
        EXPECT_LT(f.encodedBytes(), first.encodedBytes());
    }
}

TEST(StaticFrames, ZeroRateNeverRepeatsWholeFrames)
{
    VideoProfile p = staticProfile(0.0);
    SyntheticVideo video(p);
    const auto c0 = video.nextFrame().contentChecksum();
    const auto c1 = video.nextFrame().contentChecksum();
    EXPECT_NE(c0, c1);
}

TEST(TransactionElimination, SkipsIdenticalScan)
{
    MemorySystem mem("mem", nullptr, DramConfig{});
    FrameBufferManager fbm(mem, 8, 48, 0);
    DisplayConfig dcfg;
    dcfg.use_display_cache = false;
    dcfg.use_mach_buffer = false;
    dcfg.transaction_elimination = true;
    DisplayController dc("dc", nullptr, mem, fbm, dcfg);

    LinearWriteback wb(mem, fbm);
    Frame f(0, FrameType::kI, 8, 1, 4);
    for (std::uint32_t i = 0; i < 8; ++i) {
        f.setMab(i, pureMab(Pixel{static_cast<std::uint8_t>(i), 0, 0}));
    }
    BufferSlot &slot = fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
    wb.finishFrame(0);

    const ScanStats first = dc.scanOut(layout, 0);
    EXPECT_FALSE(first.eliminated);
    EXPECT_GT(first.dram_requests, 0u);

    const ScanStats second = dc.scanOut(layout, 1000);
    EXPECT_TRUE(second.eliminated);
    EXPECT_TRUE(second.verified);
    EXPECT_EQ(second.dram_requests, 0u);
    EXPECT_EQ(dc.totals().eliminated_frames, 1u);
}

TEST(TransactionElimination, DisabledNeverEliminates)
{
    VideoProfile p = staticProfile(0.5);
    const auto r =
        simulateScheme(p, SchemeConfig::make(Scheme::kRaceToSleep));
    EXPECT_EQ(r.display.eliminated_frames, 0u);
}

TEST(TransactionElimination, FiresOnStaticContentInPipeline)
{
    VideoProfile p = staticProfile(0.5);
    SchemeConfig scheme = SchemeConfig::make(Scheme::kRaceToSleep);
    scheme.transaction_elimination = true;
    const auto te = simulateScheme(p, scheme);
    EXPECT_GT(te.display.eliminated_frames, 5u);
    EXPECT_TRUE(te.all_verified);

    const auto base =
        simulateScheme(p, SchemeConfig::make(Scheme::kRaceToSleep));
    EXPECT_LT(te.display.dram_requests, base.display.dram_requests);
}

TEST(TransactionElimination, NoEffectOnMovingContent)
{
    VideoProfile p = staticProfile(0.0);
    SchemeConfig scheme = SchemeConfig::make(Scheme::kRaceToSleep);
    scheme.transaction_elimination = true;
    const auto r = simulateScheme(p, scheme);
    // Only re-renders of dropped frames can be eliminated.
    EXPECT_LE(r.display.eliminated_frames, r.display.re_renders);
}

TEST(TransactionElimination, ComposesWithMach)
{
    VideoProfile p = staticProfile(0.4);
    SchemeConfig gab = SchemeConfig::make(Scheme::kGab);
    SchemeConfig both = gab;
    both.transaction_elimination = true;
    const auto a = simulateScheme(p, gab);
    const auto b = simulateScheme(p, both);
    EXPECT_LT(b.display.dram_requests, a.display.dram_requests);
    EXPECT_TRUE(b.all_verified ||
                b.mach.collisions_undetected > 0);
}

} // namespace
} // namespace vstream
