/**
 * @file
 * Tests for the display side: display cache, MACH buffer, the shown
 * frame's CRC, and the display controller's scan-out of all three
 * frame-buffer layouts (including pixel-exact round trips).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "block_util.hh"
#include "core/mach_array.hh"
#include "core/writeback_stage.hh"
#include "display/display_controller.hh"
#include "display/frame_reconstructor.hh"
#include "display/mach_buffer.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

Block
pure(std::uint8_t v)
{
    return pureMab(Pixel{v, v, v});
}

// ---------------------------------------------------------------------
// Display cache (a SetAssocCache at the DC)
// ---------------------------------------------------------------------

CacheConfig
dcCacheConfig()
{
    CacheConfig cfg;
    cfg.size_bytes = 1024;
    cfg.line_bytes = 64;
    cfg.assoc = 1;
    return cfg;
}

TEST(DisplayCache, SecondFetchOfSameLineHits)
{
    SetAssocCache dc("dc.displayCache", dcCacheConfig());
    EXPECT_EQ(dc.access(0, 48).fills.size(), 1u);
    EXPECT_TRUE(dc.access(0, 48).fills.empty());
    EXPECT_EQ(dc.hitCount(), 1u);
}

TEST(DisplayCache, LineSpanDetectsFragmentation)
{
    SetAssocCache dc("dc.displayCache", dcCacheConfig());
    // 48 B at offset 0 fits one line; at offset 32 it straddles two
    // (the paper's >45% fragmented pointer fetches).
    EXPECT_EQ(dc.access(0, 48).lines, 1u);
    EXPECT_EQ(dc.access(32, 48).lines, 2u);
    EXPECT_EQ(dc.access(48, 48).lines, 2u);
    EXPECT_EQ(dc.access(16, 48).lines, 1u);
}

TEST(DisplayCache, PartialHitOnStraddle)
{
    SetAssocCache dc("dc.displayCache", dcCacheConfig());
    dc.access(0, 64); // line 0 cached
    // Needs lines 0 and 1; only line 1 is fetched.
    const CacheAccessSummary s = dc.access(32, 48);
    ASSERT_EQ(s.fills.size(), 1u);
    EXPECT_EQ(s.fills[0], 64u);
}

// ---------------------------------------------------------------------
// MachBuffer
// ---------------------------------------------------------------------

/** A copy of the block @p mb holds under @p digest; empty on a
 * miss. */
std::vector<std::uint8_t>
lookupBytes(MachBuffer &mb, std::uint32_t digest)
{
    return bytesOf(mb.lookup(digest));
}

TEST(MachBuffer, InsertLookup)
{
    MachBuffer mb(16, 4);
    const std::vector<std::uint8_t> block(48, 0x77);
    EXPECT_TRUE(mb.lookup(0xabc).empty());
    mb.insert(0xabc, block);
    const std::span<const std::uint8_t> found = mb.lookup(0xabc);
    ASSERT_EQ(found.size(), 48u);
    EXPECT_TRUE(std::ranges::equal(found, block));
    // A view into the buffer, not the caller's bytes.
    EXPECT_NE(found.data(), block.data());
    EXPECT_EQ(mb.hitCount(), 1u);
    EXPECT_EQ(mb.missCount(), 1u);
}

TEST(MachBuffer, MissReturnsAnEmptyView)
{
    MachBuffer mb(16, 4);
    EXPECT_TRUE(mb.lookup(0x5).empty()); // nothing stored yet
    mb.insert(0x5, std::vector<std::uint8_t>(48, 5));
    // Same set, other digest; other set.
    EXPECT_TRUE(mb.lookup(0x5 + 4).empty());
    EXPECT_TRUE(mb.lookup(0x6).empty());
    EXPECT_EQ(mb.missCount(), 3u);
    EXPECT_EQ(mb.hitCount(), 0u);
}

TEST(MachBuffer, ReinsertRefreshesInPlace)
{
    MachBuffer mb(16, 4);
    mb.insert(0x1, std::vector<std::uint8_t>(48, 1));
    const std::span<const std::uint8_t> view = mb.lookup(0x1);
    mb.insert(0x1, std::vector<std::uint8_t>(48, 2));
    // The refresh overwrote the bytes the earlier view sees.
    EXPECT_EQ(mb.lookup(0x1).data(), view.data());
    EXPECT_EQ(lookupBytes(mb, 0x1), std::vector<std::uint8_t>(48, 2));
    EXPECT_EQ(view[0], 2);
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
    EXPECT_TRUE(mb.lookup(0).empty()); // evicted
    EXPECT_FALSE(mb.lookup(8).empty());
}

TEST(MachBuffer, VictimReuseServesTheNewBlock)
{
    MachBuffer mb(8, 4); // 2 sets, 4 ways
    Random rng(31);
    std::vector<Block> blocks;
    for (std::uint32_t i = 0; i < 4; ++i) {
        blocks.push_back(randomMab(rng));
        mb.insert(i * 2, blocks.back());
    }
    // Touch 0, 4 and 6: digest 2 is the LRU way of set 0.
    const std::uint8_t *lru = mb.lookup(2).data();
    for (std::uint32_t d : {0u, 4u, 6u}) {
        ASSERT_FALSE(mb.lookup(d).empty());
    }
    const Block fresh = randomMab(rng);
    mb.insert(10, fresh);
    EXPECT_TRUE(mb.lookup(2).empty());
    // The victim's storage now holds the new block.
    EXPECT_EQ(mb.lookup(10).data(), lru);
    EXPECT_EQ(lookupBytes(mb, 10), fresh);
    for (std::uint32_t d : {0u, 4u, 6u}) {
        EXPECT_EQ(lookupBytes(mb, d), blocks[d / 2]) << "digest " << d;
    }
    EXPECT_EQ(mb.insertCount(), 5u);
}

TEST(MachBufferDeath, BlockSizeIsFixedByTheFirstInsert)
{
    MachBuffer mb(16, 4);
    mb.insert(0x1, std::vector<std::uint8_t>(48, 1));
    EXPECT_DEATH(mb.insert(0x2, std::vector<std::uint8_t>(47, 1)),
                 "block size changed");
}

// ---------------------------------------------------------------------
// ShownFrameCrc
// ---------------------------------------------------------------------

TEST(ShownFrameCrc, MatchesFrameChecksum)
{
    Random rng(12);
    Frame f(0, FrameType::kI, 4, 1, 4);
    for (std::uint32_t i = 0; i < 4; ++i) {
        f.setMab(i, randomMab(rng));
    }
    // Raw blocks one by one, and the whole plane as one stored run.
    ShownFrameCrc apart;
    for (std::uint32_t i = 0; i < 4; ++i) {
        const std::vector<std::uint8_t> b = bytesOf(f.mabBytes(i));
        apart.addNow(b, MabRecord{}, false);
    }
    EXPECT_EQ(apart.digest(), f.contentChecksum());
    ShownFrameCrc run;
    for (std::uint32_t i = 0; i < 4; ++i) {
        run.add(f.mabBytes(i), MabRecord{}, false);
    }
    EXPECT_EQ(run.digest(), f.contentChecksum());
    // Gabs get their base re-added.
    ShownFrameCrc gabs;
    std::vector<std::vector<std::uint8_t>> stored;
    for (std::uint32_t i = 0; i < 4; ++i) {
        stored.push_back(gabOf(f.mabBytes(i)));
        MabRecord rec;
        rec.base = f.mabBase(i);
        gabs.add(stored.back(), rec, true);
    }
    EXPECT_EQ(gabs.digest(), f.contentChecksum());
}

TEST(ShownFrameCrc, OneGabServesTwoBases)
{
    // One stored gab shows as two mabs with different bases.
    Random rng(11);
    const Block m = randomMab(rng);
    const Block shifted = shiftedMab(m, Pixel{50, 60, 70});
    Frame f(0, FrameType::kI, 2, 1, 4);
    f.setMab(0, m);
    f.setMab(1, shifted);
    const std::vector<std::uint8_t> gab = gabOf(m);
    ShownFrameCrc crc;
    for (const Block *b : {&m, &shifted}) {
        MabRecord rec;
        rec.base = Pixel{(*b)[0], (*b)[1], (*b)[2]};
        crc.add(gab, rec, true);
    }
    EXPECT_EQ(crc.digest(), f.contentChecksum());
}

// ---------------------------------------------------------------------
// DisplayController scan-out
// ---------------------------------------------------------------------

struct DisplayRig
{
    MemorySystem mem;
    FrameBufferManager fbm;
    DisplayConfig dcfg;

    explicit DisplayRig(std::uint32_t mabs, bool dcache = true,
                        bool mbuffer = true)
        : mem("mem", nullptr, DramConfig{}), fbm(mem, mabs, 48, 4096)
    {
        dcfg.use_display_cache = dcache;
        dcfg.use_mach_buffer = mbuffer;
    }
};

Frame
makeFrame(const std::vector<Block> &mabs, std::uint64_t idx)
{
    Frame f(idx, FrameType::kI,
            static_cast<std::uint32_t>(mabs.size()), 1, 4);
    for (std::uint32_t i = 0; i < mabs.size(); ++i) {
        f.setMab(i, mabs[i]);
    }
    return f;
}

TEST(DisplayController, LinearScanReadsWholeFrameOnce)
{
    DisplayRig rig(8, false, false);
    DisplayController dc("dc", nullptr, rig.mem, rig.fbm, rig.dcfg);

    LinearWriteback wb(rig.mem, rig.fbm);
    Random rng(13);
    std::vector<Block> mabs;
    for (int i = 0; i < 8; ++i) {
        mabs.push_back(randomMab(rng));
    }
    const Frame f = makeFrame(mabs, 0);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
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
    DisplayController dc("dc", nullptr, rig.mem, rig.fbm, rig.dcfg);

    MachConfig mcfg;
    mcfg.use_gradient = gradient;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, kind);

    // Frame 0: repeated and shifted content.
    Random rng(14);
    const Block u1 = randomMab(rng);
    const Block u2 = randomMab(rng);
    std::vector<Block> mabs = {u1,
                                    u2,
                                    u1,
                                    pure(9),
                                    shiftedMab(u1, Pixel{3, 3, 3}),
                                    pure(9),
                                    u2,
                                    pure(200),
                                    shiftedMab(u2, Pixel{1, 0, 0}),
                                    pure(9),
                                    u1,
                                    pure(200)};
    const Frame f0 = makeFrame(mabs, 0);
    BufferSlot &s0 = rig.fbm.acquire(0);
    FrameLayout l0;
    wb.beginFrame(f0, s0, 0, l0);
    writeMabs(wb, f0, 0);
    wb.finishFrame(0);
    const ScanStats scan0 = dc.scanOut(l0, 0);
    EXPECT_TRUE(scan0.verified);

    // Frame 1 repeats frame 0 entirely: inter matches everywhere.
    const Frame f1 = makeFrame(mabs, 1);
    BufferSlot &s1 = rig.fbm.acquire(1);
    FrameLayout l1;
    wb.beginFrame(f1, s1, 1000, l1);
    writeMabs(wb, f1, 1000);
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

/** One scan-out configuration: layout, gab mode, MACH buffer, and
 * whether frames 3 and 5 are written under forged digest collisions. */
struct ScanCase
{
    LayoutKind kind;
    bool gradient;
    bool mach_buffer;
    bool forge;
};

/** CRC32 of @p layout's frame rebuilt mab by mab from the blocks its
 * records point at, a gab's base re-added. */
std::uint32_t
rebuiltCrc(const FrameLayout &layout, const FrameBufferManager &fbm)
{
    Crc32 crc;
    for (std::uint32_t i = 0; i < layout.mabCount(); ++i) {
        const MabRecord &rec = layout.record(i);
        std::vector<std::uint8_t> mab = bytesOf(fbm.loadBlock(rec.data_addr));
        if (layout.gradientMode()) {
            gradientAdd(mab.data(), mab.data(), mab.size(), rec.base);
        }
        crc.update(mab.data(), mab.size());
    }
    return crc.digest();
}

class ShownChecksum : public ::testing::TestWithParam<ScanCase>
{
};

TEST_P(ShownChecksum, FoldedFromStorageEqualsRebuiltFrame)
{
    const ScanCase c = GetParam();
    DisplayRig rig(16, true, c.mach_buffer);
    DisplayController dc("dc", nullptr, rig.mem, rig.fbm, rig.dcfg);

    MachConfig mcfg;
    mcfg.use_gradient = c.gradient;
    MachArray machs(mcfg);
    FaultConfig fcfg;
    if (c.forge) {
        FaultRule rule;
        rule.cls = FaultClass::kDigestCollision;
        rule.probability = 1.0;
        rule.from = 3000;
        rule.until = 4000;
        fcfg.rules.push_back(rule);
        FaultRule late = rule;
        late.from = 5000;
        late.until = 6000;
        fcfg.rules.push_back(late);
    }
    FaultInjector faults("faults", fcfg);
    machs.setFaultInjector(&faults);
    std::unique_ptr<WritebackStage> wb;
    if (c.kind == LayoutKind::kLinear) {
        wb = std::make_unique<LinearWriteback>(rig.mem, rig.fbm);
    } else {
        wb = std::make_unique<MachWriteback>(rig.mem, rig.fbm, machs,
                                             c.kind);
    }

    // Repeats, constant-offset repeats and pure colours, so the MACH
    // layouts mix unique blocks with intra and inter matches.
    Random rng(21);
    std::vector<Block> pool;
    for (int i = 0; i < 4; ++i) {
        pool.push_back(randomMab(rng));
        pool.push_back(shiftedMab(pool.back(), Pixel{5, 6, 7}));
        pool.push_back(pure(static_cast<std::uint8_t>(40 * i)));
    }
    std::vector<FrameLayout> layouts(6);
    std::uint64_t failures = 0;
    for (std::uint32_t f = 0; f < layouts.size(); ++f) {
        std::vector<Block> mabs;
        for (int i = 0; i < 16; ++i) {
            mabs.push_back(pool[rng.uniformInt(0, pool.size() - 1)]);
        }
        const Frame frame = makeFrame(mabs, f);
        const Tick now = 1000ull * f;
        FrameLayout &layout = layouts[f];
        wb->beginFrame(frame, rig.fbm.acquire(f), now, layout);
        writeMabs(*wb, frame, now);
        wb->finishFrame(now);
        // Frame 4's decode-time checksum is damaged: it must fail
        // verification however the blocks are folded.
        const bool damaged = f == 4;
        if (damaged) {
            layout.setSourceChecksum(layout.sourceChecksum() ^ 1u);
        }

        const ScanStats s = dc.scanOut(layout, now);
        const std::uint32_t want = rebuiltCrc(layout, rig.fbm);
        EXPECT_EQ(s.shown_checksum, want) << "frame " << f;
        EXPECT_EQ(s.verified, want == layout.sourceChecksum())
            << "frame " << f;
        const bool forged = c.forge && (f == 3 || f == 5);
        if (!forged && !damaged) {
            EXPECT_TRUE(s.verified) << "frame " << f;
        }
        failures += s.verified ? 0 : 1;
    }
    EXPECT_EQ(dc.totals().verify_failures, failures);
    // The damaged frame, plus both forged ones when collisions were
    // forged (they show a collider's block).
    EXPECT_EQ(failures, c.forge ? 3u : 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ShownChecksum,
    ::testing::Values(
        ScanCase{LayoutKind::kLinear, false, false, false},
        ScanCase{LayoutKind::kPointer, false, false, true},
        ScanCase{LayoutKind::kPointer, true, false, true},
        ScanCase{LayoutKind::kPointerDigest, false, false, true},
        ScanCase{LayoutKind::kPointerDigest, true, false, true},
        ScanCase{LayoutKind::kPointerDigest, false, true, false},
        ScanCase{LayoutKind::kPointerDigest, true, true, false}));

TEST(DisplayController, MachBufferHitSurvivesLaterInsert)
{
    // A one-entry MACH buffer: frame 1 shows X from the buffer, then
    // its unique block Y replaces that entry while the scan is still
    // folding the frame CRC.  X's bytes must already be folded.
    DisplayRig rig(2, true, true);
    rig.dcfg.mach_buffer_entries = 1;
    rig.dcfg.mach_buffer_ways = 1;
    DisplayController dc("dc", nullptr, rig.mem, rig.fbm, rig.dcfg);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointerDigest);
    Random rng(22);
    const Block w = randomMab(rng);
    const Block x = randomMab(rng);
    const Block y = randomMab(rng);
    std::vector<FrameLayout> layouts(2);
    const std::vector<std::vector<Block>> frames = {{w, x}, {x, y}};
    for (std::uint32_t f = 0; f < 2; ++f) {
        const Frame frame = makeFrame(frames[f], f);
        wb.beginFrame(frame, rig.fbm.acquire(f), 1000ull * f, layouts[f]);
        writeMabs(wb, frame, 1000ull * f);
        wb.finishFrame(1000ull * f);
        const ScanStats s = dc.scanOut(layouts[f], 1000ull * f);
        EXPECT_TRUE(s.verified) << "frame " << f;
        if (f == 1) {
            EXPECT_EQ(s.mach_buffer_hits, 1u);
        }
    }
}

TEST(DisplayController, DisplayCacheCutsRepeatFetches)
{
    // Same content scanned with and without the display cache: the
    // cached run must issue fewer DRAM requests (Fig. 10e).
    auto run = [](bool use_cache) {
        DisplayRig rig(16, use_cache, false);
        DisplayController dc("dc", nullptr, rig.mem, rig.fbm, rig.dcfg);
        MachConfig mcfg;
        MachArray machs(mcfg);
        MachWriteback wb(rig.mem, rig.fbm, machs,
                         LayoutKind::kPointer);
        std::vector<Block> mabs;
        for (int i = 0; i < 16; ++i) {
            mabs.push_back(pure(static_cast<std::uint8_t>(i % 2)));
        }
        const Frame f = makeFrame(mabs, 0);
        BufferSlot &slot = rig.fbm.acquire(0);
        FrameLayout layout;
        wb.beginFrame(f, slot, 0, layout);
        writeMabs(wb, f, 0);
        wb.finishFrame(0);
        return dc.scanOut(layout, 0).dram_requests;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(DisplayController, ReRenderCountsAndReads)
{
    DisplayRig rig(4, false, false);
    DisplayController dc("dc", nullptr, rig.mem, rig.fbm, rig.dcfg);
    LinearWriteback wb(rig.mem, rig.fbm);
    const Frame f = makeFrame({pure(1), pure(2), pure(3), pure(4)}, 0);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
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
    DisplayController dc("dc", nullptr, rig.mem, rig.fbm, rig.dcfg);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointer);
    Random rng(15);
    std::vector<Block> mabs;
    for (int i = 0; i < 8; ++i) {
        mabs.push_back(randomMab(rng)); // all unique -> packed
    }
    const Frame f = makeFrame(mabs, 0);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
    wb.finishFrame(0);
    const ScanStats s = dc.scanOut(layout, 0);
    // Offsets 0,48,96,144,192,240,288,336 -> straddles at 48,96,240,
    // 288 (paper: >45% of pointer fetches fragment).
    EXPECT_GE(s.fragmented_fetches, 3u);
    EXPECT_EQ(s.pointer_records, 8u);
}

} // namespace
} // namespace vstream
