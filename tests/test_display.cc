/**
 * @file
 * Tests for the display side: display cache, MACH buffer, frame
 * reconstruction, and the display controller's scan-out of all three
 * frame-buffer layouts (including pixel-exact round trips).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/mach_array.hh"
#include "core/writeback_stage.hh"
#include "display/display_cache.hh"
#include "display/display_controller.hh"
#include "display/frame_reconstructor.hh"
#include "display/mach_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

Macroblock
pure(std::uint8_t v)
{
    Macroblock m(4);
    m.fill(Pixel{v, v, v});
    return m;
}

Macroblock
randomMab(Random &rng)
{
    Macroblock m(4);
    for (auto &b : m.bytes()) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    return m;
}

// ---------------------------------------------------------------------
// DisplayCache
// ---------------------------------------------------------------------

CacheConfig
dcCacheConfig()
{
    CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.line_bytes = 64;
    cfg.assoc = 1;
    cfg.write_allocate = false;
    return cfg;
}

TEST(DisplayCache, SecondFetchOfSameLineHits)
{
    DisplayCache dc(dcCacheConfig());
    EXPECT_EQ(dc.access(0, 48).size(), 1u);
    EXPECT_TRUE(dc.access(0, 48).empty());
    EXPECT_EQ(dc.hitCount(), 1u);
}

TEST(DisplayCache, LineSpanDetectsFragmentation)
{
    DisplayCache dc(dcCacheConfig());
    // 48 B at offset 0 fits one line; at offset 32 it straddles two
    // (the paper's >45% fragmented pointer fetches).
    EXPECT_EQ(dc.lineSpan(0, 48), 1u);
    EXPECT_EQ(dc.lineSpan(32, 48), 2u);
    EXPECT_EQ(dc.lineSpan(48, 48), 2u);
    EXPECT_EQ(dc.lineSpan(16, 48), 1u);
}

TEST(DisplayCache, PartialHitOnStraddle)
{
    DisplayCache dc(dcCacheConfig());
    dc.access(0, 64); // line 0 cached
    const auto fills = dc.access(32, 48); // needs lines 0 and 1
    EXPECT_EQ(fills.size(), 1u);
    EXPECT_EQ(fills[0], 64u);
}

// ---------------------------------------------------------------------
// MachBuffer
// ---------------------------------------------------------------------

TEST(MachBuffer, InsertLookup)
{
    MachBuffer mb(16, 4);
    const std::vector<std::uint8_t> block(48, 0x77);
    EXPECT_EQ(mb.lookup(0xabc), nullptr);
    mb.insert(0xabc, block);
    const auto *found = mb.lookup(0xabc);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, block);
    EXPECT_EQ(mb.hitCount(), 1u);
    EXPECT_EQ(mb.missCount(), 1u);
}

TEST(MachBuffer, ReinsertRefreshesInPlace)
{
    MachBuffer mb(16, 4);
    mb.insert(0x1, std::vector<std::uint8_t>(48, 1));
    mb.insert(0x1, std::vector<std::uint8_t>(48, 2));
    EXPECT_EQ((*mb.lookup(0x1))[0], 2);
    EXPECT_EQ(mb.insertCount(), 1u); // refresh, not new insert
}

TEST(MachBuffer, LruEvictionInSet)
{
    MachBuffer mb(8, 4); // 2 sets, 4 ways
    // Five digests in set 0 (even digests).
    for (std::uint32_t i = 0; i < 5; ++i) {
        mb.insert(i * 2, std::vector<std::uint8_t>(48,
                  static_cast<std::uint8_t>(i)));
    }
    EXPECT_EQ(mb.lookup(0), nullptr);   // evicted
    EXPECT_NE(mb.lookup(8), nullptr);
}

// ---------------------------------------------------------------------
// FrameReconstructor
// ---------------------------------------------------------------------

TEST(FrameReconstructor, RawModePassthrough)
{
    Random rng(9);
    const Macroblock m = randomMab(rng);
    MabRecord rec;
    rec.base = m.base();
    const Macroblock out =
        FrameReconstructor::rebuildMab(m.bytes(), rec, false);
    EXPECT_EQ(out, m);
}

TEST(FrameReconstructor, GabModeAddsBaseBack)
{
    Random rng(10);
    const Macroblock m = randomMab(rng);
    MabRecord rec;
    rec.base = m.base();
    const Macroblock out = FrameReconstructor::rebuildMab(
        m.gradient().bytes(), rec, true);
    EXPECT_EQ(out, m);
}

TEST(FrameReconstructor, GabSharedAcrossBases)
{
    // One stored gab serves two mabs with different bases.
    Random rng(11);
    const Macroblock m = randomMab(rng);
    const Macroblock shifted = m.shifted(50, 60, 70);
    const auto gab_bytes = m.gradient().bytes();

    MabRecord rec_a;
    rec_a.base = m.base();
    MabRecord rec_b;
    rec_b.base = shifted.base();
    EXPECT_EQ(FrameReconstructor::rebuildMab(gab_bytes, rec_a, true), m);
    EXPECT_EQ(FrameReconstructor::rebuildMab(gab_bytes, rec_b, true),
              shifted);
}

TEST(FrameReconstructor, ChecksumMatchesFrameChecksum)
{
    Random rng(12);
    std::vector<Macroblock> mabs;
    Frame f(0, FrameType::kI, 4, 1, 4);
    for (std::uint32_t i = 0; i < 4; ++i) {
        f.mab(i) = randomMab(rng);
        mabs.push_back(f.mab(i));
    }
    EXPECT_EQ(FrameReconstructor::checksum(mabs), f.contentChecksum());
}

TEST(FrameReconstructorDeath, NonSquareBlockPanics)
{
    MabRecord rec;
    EXPECT_DEATH(FrameReconstructor::rebuildMab(
                     std::vector<std::uint8_t>(47), rec, false),
                 "square pixel block");
}

// ---------------------------------------------------------------------
// DisplayController scan-out
// ---------------------------------------------------------------------

struct DisplayRig
{
    EventQueue queue;
    MemorySystem mem;
    FrameBufferManager fbm;
    DisplayConfig dcfg;

    explicit DisplayRig(std::uint32_t mabs, bool dcache = true,
                        bool mbuffer = true)
        : mem("mem", &queue, DramConfig{}), fbm(mem, mabs, 48, 4096)
    {
        dcfg.use_display_cache = dcache;
        dcfg.use_mach_buffer = mbuffer;
    }
};

Frame
makeFrame(const std::vector<Macroblock> &mabs, std::uint64_t idx)
{
    Frame f(idx, FrameType::kI,
            static_cast<std::uint32_t>(mabs.size()), 1, 4);
    for (std::uint32_t i = 0; i < mabs.size(); ++i) {
        f.mab(i) = mabs[i];
    }
    return f;
}

TEST(DisplayController, LinearScanReadsWholeFrameOnce)
{
    DisplayRig rig(8, false, false);
    DisplayController dc("dc", &rig.queue, rig.mem, rig.fbm, rig.dcfg);

    LinearWriteback wb(rig.mem, rig.fbm);
    Random rng(13);
    std::vector<Macroblock> mabs;
    for (int i = 0; i < 8; ++i) {
        mabs.push_back(randomMab(rng));
    }
    const Frame f = makeFrame(mabs, 0);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    for (std::uint32_t i = 0; i < 8; ++i) {
        wb.writeMab(f.mab(i), i, 0);
    }
    wb.finishFrame(0);

    const ScanStats s = dc.scanOut(layout, 0);
    EXPECT_TRUE(s.verified);
    // 8 * 48 = 384 B = 6 lines of 64 B.
    EXPECT_EQ(s.dram_requests, 6u);
    EXPECT_EQ(s.bytes_read, 384u);
    EXPECT_EQ(s.meta_bytes, 0u);
    EXPECT_EQ(dc.totals().frames_shown, 1u);
}

/** Full VD->memory->DC round trip under the MACH layouts must be
 * pixel-exact (the repo's core lossless-ness property). */
class LayoutRoundTrip
    : public ::testing::TestWithParam<std::tuple<bool, LayoutKind>>
{
};

TEST_P(LayoutRoundTrip, LosslessAndCheaperWithMatches)
{
    const bool gradient = std::get<0>(GetParam());
    const LayoutKind kind = std::get<1>(GetParam());

    DisplayRig rig(12, true, kind == LayoutKind::kPointerDigest);
    DisplayController dc("dc", &rig.queue, rig.mem, rig.fbm, rig.dcfg);

    MachConfig mcfg;
    mcfg.use_gradient = gradient;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, kind);

    // Frame 0: repeated and shifted content.
    Random rng(14);
    const Macroblock u1 = randomMab(rng);
    const Macroblock u2 = randomMab(rng);
    std::vector<Macroblock> mabs = {u1,
                                    u2,
                                    u1,
                                    pure(9),
                                    u1.shifted(3, 3, 3),
                                    pure(9),
                                    u2,
                                    pure(200),
                                    u2.shifted(1, 0, 0),
                                    pure(9),
                                    u1,
                                    pure(200)};
    const Frame f0 = makeFrame(mabs, 0);
    BufferSlot &s0 = rig.fbm.acquire(0);
    FrameLayout l0;
    wb.beginFrame(f0, s0, 0, l0);
    for (std::uint32_t i = 0; i < f0.mabCount(); ++i) {
        wb.writeMab(f0.mab(i), i, 0);
    }
    wb.finishFrame(0);
    const ScanStats scan0 = dc.scanOut(l0, 0);
    EXPECT_TRUE(scan0.verified);

    // Frame 1 repeats frame 0 entirely: inter matches everywhere.
    const Frame f1 = makeFrame(mabs, 1);
    BufferSlot &s1 = rig.fbm.acquire(1);
    FrameLayout l1;
    wb.beginFrame(f1, s1, 1000, l1);
    for (std::uint32_t i = 0; i < f1.mabCount(); ++i) {
        wb.writeMab(f1.mab(i), i, 1000);
    }
    wb.finishFrame(1000);
    const ScanStats scan1 = dc.scanOut(l1, 1000);
    EXPECT_TRUE(scan1.verified);
    EXPECT_GT(wb.totals().inter_matches, 0u);

    if (kind == LayoutKind::kPointerDigest) {
        // Digest records resolved by the MACH buffer without DRAM.
        EXPECT_GT(scan1.digest_records, 0u);
        EXPECT_GT(scan1.mach_buffer_hits, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LayoutRoundTrip,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(LayoutKind::kPointer,
                                         LayoutKind::kPointerDigest)));

TEST(DisplayController, DisplayCacheCutsRepeatFetches)
{
    // Same content scanned with and without the display cache: the
    // cached run must issue fewer DRAM requests (Fig. 10e).
    auto run = [](bool use_cache) {
        DisplayRig rig(16, use_cache, false);
        DisplayController dc("dc", &rig.queue, rig.mem, rig.fbm,
                             rig.dcfg);
        MachConfig mcfg;
        MachArray machs(mcfg);
        MachWriteback wb(rig.mem, rig.fbm, machs,
                         LayoutKind::kPointer);
        std::vector<Macroblock> mabs;
        for (int i = 0; i < 16; ++i) {
            mabs.push_back(pure(static_cast<std::uint8_t>(i % 2)));
        }
        const Frame f = makeFrame(mabs, 0);
        BufferSlot &slot = rig.fbm.acquire(0);
        FrameLayout layout;
        wb.beginFrame(f, slot, 0, layout);
        for (std::uint32_t i = 0; i < 16; ++i) {
            wb.writeMab(f.mab(i), i, 0);
        }
        wb.finishFrame(0);
        return dc.scanOut(layout, 0).dram_requests;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(DisplayController, ReRenderCountsAndReads)
{
    DisplayRig rig(4, false, false);
    DisplayController dc("dc", &rig.queue, rig.mem, rig.fbm, rig.dcfg);
    LinearWriteback wb(rig.mem, rig.fbm);
    const Frame f = makeFrame({pure(1), pure(2), pure(3), pure(4)}, 0);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    for (std::uint32_t i = 0; i < 4; ++i) {
        wb.writeMab(f.mab(i), i, 0);
    }
    wb.finishFrame(0);

    dc.scanOut(layout, 0);
    dc.scanOut(layout, 1000, /*re_render=*/true);
    EXPECT_EQ(dc.totals().frames_shown, 2u);
    EXPECT_EQ(dc.totals().re_renders, 1u);
}

TEST(DisplayController, FragmentationCounted)
{
    // Blocks packed at 48 B offsets: every 4th block is aligned, the
    // rest straddle 64 B lines.
    DisplayRig rig(8, true, false);
    DisplayController dc("dc", &rig.queue, rig.mem, rig.fbm, rig.dcfg);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointer);
    Random rng(15);
    std::vector<Macroblock> mabs;
    for (int i = 0; i < 8; ++i) {
        mabs.push_back(randomMab(rng)); // all unique -> packed
    }
    const Frame f = makeFrame(mabs, 0);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    for (std::uint32_t i = 0; i < 8; ++i) {
        wb.writeMab(f.mab(i), i, 0);
    }
    wb.finishFrame(0);
    const ScanStats s = dc.scanOut(layout, 0);
    // Offsets 0,48,96,144,192,240,288,336 -> straddles at 48,96,240,
    // 288 (paper: >45% of pointer fetches fragment).
    EXPECT_GE(s.fragmented_fetches, 3u);
    EXPECT_EQ(s.pointer_records, 8u);
}

TEST(DisplayController, FramePeriodFromRefreshRate)
{
    DisplayRig rig(4);
    DisplayController dc("dc", &rig.queue, rig.mem, rig.fbm, rig.dcfg);
    EXPECT_EQ(dc.framePeriod(), sim_clock::s / 60);
}

} // namespace
} // namespace vstream
