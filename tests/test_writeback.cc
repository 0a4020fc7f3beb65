/**
 * @file
 * Tests for the writeback stages, the coalescing buffers, the frame
 * buffer manager, and the layout bookkeeping the display relies on.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "block_util.hh"
#include "core/coalescing_buffer.hh"
#include "core/frame_buffer_manager.hh"
#include "core/writeback_stage.hh"
#include "sim/random.hh"
#include "video/synthetic_video.hh"

namespace vstream
{
namespace
{

struct Rig
{
    MemorySystem mem;
    FrameBufferManager fbm;

    explicit Rig(std::uint32_t mabs = 32)
        : mem("mem", nullptr, DramConfig{}),
          fbm(mem, mabs, 48, 4096)
    {
    }
};

/** A one-row frame of the 4x4 blocks @p mabs. */
Frame
frameOfMabs(const std::vector<Block> &mabs, std::uint64_t index = 0)
{
    Frame f(index, FrameType::kI,
            static_cast<std::uint32_t>(mabs.size()), 1, 4);
    for (std::uint32_t i = 0; i < mabs.size(); ++i) {
        f.setMab(i, mabs[i]);
    }
    return f;
}

Block
pure(std::uint8_t r, std::uint8_t g, std::uint8_t b)
{
    return pureMab(Pixel{r, g, b});
}

// ---------------------------------------------------------------------
// CoalescingBuffer
// ---------------------------------------------------------------------

TEST(CoalescingBuffer, IssuesOnlyWhenFull)
{
    Rig rig;
    std::uint64_t requests = 0;
    CoalescingBuffer buf(rig.mem, requests);
    buf.rebase(1024);
    for (int i = 0; i < 15; ++i) {
        buf.append(4, 0); // 60 bytes: below one transaction
    }
    EXPECT_EQ(requests, 0u);
    EXPECT_EQ(rig.mem.requestCount(), 0u);
    buf.append(4, 0); // 64th byte
    EXPECT_EQ(requests, 1u);
    EXPECT_EQ(rig.mem.requestCount(), 1u);
    EXPECT_EQ(buf.cursor(), 1088u);
    rig.mem.flushWrites(0);
    EXPECT_EQ(rig.mem.energy()
                  .counts(Requester::kVideoDecoder)
                  .bytes_written,
              64u);
}

TEST(CoalescingBuffer, FlushWritesResidue)
{
    Rig rig;
    std::uint64_t requests = 0;
    CoalescingBuffer buf(rig.mem, requests);
    buf.rebase(0);
    buf.append(10, 0);
    buf.flush(0);
    buf.flush(0); // second flush is a no-op
    EXPECT_EQ(requests, 1u);
    EXPECT_EQ(rig.mem.requestCount(), 1u);
    EXPECT_EQ(buf.cursor(), 10u);
}

TEST(CoalescingBuffer, LargeAppendSplits)
{
    Rig rig;
    std::uint64_t requests = 0;
    CoalescingBuffer buf(rig.mem, requests);
    buf.rebase(0);
    buf.append(200, 0); // 3 full transactions + 8 residue
    EXPECT_EQ(requests, 3u);
    buf.flush(0);
    EXPECT_EQ(requests, 4u);
    EXPECT_EQ(rig.mem.requestCount(), 4u);
    EXPECT_EQ(buf.cursor(), 200u);
}

TEST(CoalescingBuffer, BuffersShareTheOwnersRequestCount)
{
    Rig rig;
    std::uint64_t requests = 0;
    CoalescingBuffer a(rig.mem, requests);
    CoalescingBuffer b(rig.mem, requests);
    a.rebase(0);
    b.rebase(4096);
    a.append(64, 0);
    b.append(70, 0);
    a.flush(0);
    b.flush(0);
    EXPECT_EQ(requests, 3u);
    EXPECT_EQ(rig.mem.requestCount(), 3u);
}

TEST(CoalescingBufferDeath, RebaseWithResiduePanics)
{
    Rig rig;
    std::uint64_t requests = 0;
    CoalescingBuffer buf(rig.mem, requests);
    buf.rebase(0);
    buf.append(1, 0);
    EXPECT_DEATH(buf.rebase(64), "unflushed");
}

// ---------------------------------------------------------------------
// FrameBufferManager
// ---------------------------------------------------------------------

TEST(FrameBufferManager, AcquireReleaseRecycles)
{
    Rig rig;
    BufferSlot &a = rig.fbm.acquire(0);
    const Addr data0 = a.data_base;
    rig.fbm.release(0);
    BufferSlot &b = rig.fbm.acquire(1);
    EXPECT_EQ(b.data_base, data0); // recycled slot
    EXPECT_EQ(rig.fbm.slotsAllocated(), 1u);
    EXPECT_EQ(rig.fbm.find(1), &b);
}

TEST(FrameBufferManager, GrowsWhenAllBusy)
{
    Rig rig;
    rig.fbm.acquire(0);
    rig.fbm.acquire(1);
    EXPECT_EQ(rig.fbm.slotsAllocated(), 2u);
    EXPECT_GT(rig.fbm.poolBytes(), 0u);
}

TEST(FrameBufferManager, BlockStoreRoundTrip)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    const std::vector<std::uint8_t> bytes(48, 0x5a);
    rig.fbm.storeBlock(slot, slot.data_base + 96, bytes);
    const std::span<const std::uint8_t> loaded =
        rig.fbm.loadBlock(slot.data_base + 96);
    ASSERT_FALSE(loaded.empty());
    EXPECT_EQ(bytesOf(loaded), bytes);
    EXPECT_TRUE(rig.fbm.loadBlock(slot.data_base + 97).empty());
}

TEST(FrameBufferManager, RecycleClearsBlocks)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    rig.fbm.storeBlock(slot, slot.data_base, std::vector<std::uint8_t>(48, 1));
    rig.fbm.release(0);
    rig.fbm.acquire(5);
    EXPECT_TRUE(rig.fbm.loadBlock(slot.data_base).empty());
}

TEST(FrameBufferManager, SlotMemoFollowsStoresAcrossSlots)
{
    // Loads remember the last slot they matched; hopping between
    // slots, recycling one, and probing just outside every data
    // region must behave as a fresh scan would.
    Rig rig;
    BufferSlot &a = rig.fbm.acquire(0);
    BufferSlot &b = rig.fbm.acquire(1);
    ASSERT_NE(a.data_base, b.data_base);
    const std::vector<std::uint8_t> a1(48, 0xa1), b1(48, 0xb1),
        a2(48, 0xa2), a3(48, 0xa3);

    rig.fbm.storeBlock(a, a.data_base, a1);
    rig.fbm.storeBlock(b, b.data_base + 48, b1);
    rig.fbm.storeBlock(a, a.data_base + 96, a2);
    EXPECT_EQ(bytesOf(rig.fbm.loadBlock(a.data_base)), a1);
    EXPECT_EQ(bytesOf(rig.fbm.loadBlock(b.data_base + 48)), b1);
    EXPECT_EQ(bytesOf(rig.fbm.loadBlock(a.data_base + 96)), a2);

    // Right after a hit in b: addresses in no slot's data region.
    const Addr last_a = a.data_base + a.data_capacity - 48;
    for (const Addr outside :
         {b.data_base - 1, b.data_base + b.data_capacity,
          a.data_base + a.data_capacity, a.meta_base, Addr{0xdeadbeef}}) {
        ASSERT_FALSE(rig.fbm.loadBlock(b.data_base + 48).empty());
        EXPECT_TRUE(rig.fbm.loadBlock(outside).empty()) << "addr " << outside;
    }
    EXPECT_TRUE(rig.fbm.loadBlock(last_a).empty()); // in a, never stored

    // Recycle a for another frame: its old blocks are gone, new ones
    // land in the same region, and b is untouched.
    rig.fbm.release(0);
    BufferSlot &c = rig.fbm.acquire(2);
    ASSERT_EQ(&c, &a);
    EXPECT_TRUE(rig.fbm.loadBlock(a.data_base).empty());
    rig.fbm.storeBlock(c, c.data_base, a3);
    EXPECT_EQ(bytesOf(rig.fbm.loadBlock(b.data_base + 48)), b1);
    EXPECT_EQ(bytesOf(rig.fbm.loadBlock(c.data_base)), a3);
    EXPECT_TRUE(rig.fbm.loadBlock(c.data_base + 96).empty());
}

TEST(FrameBufferManagerDeath, StoreBelowTheLastBlockPanics)
{
    // The writebacks store each block once, in address order.
    Rig rig(8);
    BufferSlot &slot = rig.fbm.acquire(0);
    const Addr base = slot.data_base;
    rig.fbm.storeBlock(slot, base + 5 * 48, std::vector<std::uint8_t>(48, 1));
    EXPECT_DEATH(rig.fbm.storeBlock(slot, base + 48,
                                    std::vector<std::uint8_t>(48, 2)),
                 "out of order");
}

TEST(FrameBufferManagerDeath, StoreOverAStoredBlockPanics)
{
    Rig rig(8);
    BufferSlot &slot = rig.fbm.acquire(0);
    const Addr base = slot.data_base;
    rig.fbm.storeBlock(slot, base, std::vector<std::uint8_t>(48, 1));
    rig.fbm.storeBlock(slot, base + 48, std::vector<std::uint8_t>(48, 2));
    EXPECT_DEATH(rig.fbm.storeBlock(slot, base + 48,
                                    std::vector<std::uint8_t>(48, 3)),
                 "out of order");
}

TEST(FrameBufferManagerDeath, MoreBlocksThanMabsPanics)
{
    // Compacted (DCC) blocks sit closer than a mab apart, but a frame
    // still stores at most one block per mab.
    Rig rig(4);
    BufferSlot &slot = rig.fbm.acquire(0);
    for (std::uint32_t i = 0; i < 4; ++i) {
        rig.fbm.storeBlock(slot, slot.data_base + i * 16U,
                           std::vector<std::uint8_t>(48, 1));
    }
    EXPECT_DEATH(rig.fbm.storeBlock(slot, slot.data_base + 4 * 16U,
                                    std::vector<std::uint8_t>(48, 1)),
                 "out of order");
}

TEST(FrameBufferManager, UnalignedOffsetsMiss)
{
    Rig rig(8);
    BufferSlot &slot = rig.fbm.acquire(0);
    const Addr base = slot.data_base;
    for (std::uint32_t i = 0; i < 4; ++i) {
        rig.fbm.storeBlock(slot, base + i * 48,
                           std::vector<std::uint8_t>(48, 7));
    }
    // Inside stored blocks, between them, and past the last one; each
    // probed after a hit so the lookup memo points next door.
    for (const Addr off : {Addr{1}, Addr{47}, Addr{49}, Addr{95},
                           Addr{100}, Addr{191}, Addr{193}, Addr{240}}) {
        ASSERT_FALSE(rig.fbm.loadBlock(base + (off / 48) * 48 % 192).empty());
        EXPECT_TRUE(rig.fbm.loadBlock(base + off).empty()) << "offset " << off;
    }
}

TEST(FrameBufferManagerDeath, StoreOutsideTheSlotPanics)
{
    Rig rig;
    BufferSlot &a = rig.fbm.acquire(0);
    BufferSlot &b = rig.fbm.acquire(1);
    const std::vector<std::uint8_t> bytes(48, 1);
    EXPECT_DEATH(rig.fbm.storeBlock(a, b.data_base, bytes),
                 "outside its frame buffer");
    EXPECT_DEATH(rig.fbm.storeBlock(a, a.data_base + a.data_capacity, bytes),
                 "outside its frame buffer");
}

TEST(FrameBufferManager, FindBySlotIndex)
{
    Rig rig;
    rig.fbm.acquire(3);
    EXPECT_NE(rig.fbm.find(3), nullptr);
    EXPECT_EQ(rig.fbm.find(4), nullptr);
    rig.fbm.release(3);
    EXPECT_EQ(rig.fbm.find(3), nullptr);
}

// ---------------------------------------------------------------------
// LinearWriteback
// ---------------------------------------------------------------------

TEST(LinearWriteback, WritesEveryMabAtItsLinearAddress)
{
    Rig rig(4);
    LinearWriteback wb(rig.mem, rig.fbm);
    const auto mabs = std::vector<Block>{
        pure(1, 1, 1), pure(1, 1, 1), pure(2, 2, 2), pure(3, 3, 3)};
    const Frame f = frameOfMabs(mabs);

    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
    wb.finishFrame(0);

    EXPECT_EQ(layout.kind(), LayoutKind::kLinear);
    EXPECT_EQ(layout.dataBytes(), 4u * 48u);
    EXPECT_EQ(layout.metaBytes(), 0u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(layout.record(i).storage, MabStorage::kUnique);
        EXPECT_EQ(layout.record(i).data_addr,
                  slot.data_base + i * 48u);
        // Duplicates are NOT deduplicated in the baseline.
        EXPECT_FALSE(rig.fbm.loadBlock(layout.record(i).data_addr).empty());
    }
    EXPECT_EQ(wb.totals().unique_blocks, 4u);
    EXPECT_DOUBLE_EQ(wb.totals().savings(48), 0.0);
    EXPECT_EQ(layout.sourceChecksum(), f.contentChecksum());
}

// ---------------------------------------------------------------------
// MachWriteback
// ---------------------------------------------------------------------

TEST(MachWriteback, DeduplicatesExactRepeats)
{
    Rig rig(4);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointer);

    const auto mabs = std::vector<Block>{
        pure(1, 1, 1), pure(2, 2, 2), pure(1, 1, 1), pure(1, 1, 1)};
    const Frame f = frameOfMabs(mabs);

    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
    wb.finishFrame(0);

    EXPECT_EQ(wb.totals().unique_blocks, 2u);
    EXPECT_EQ(wb.totals().intra_matches, 2u);
    EXPECT_EQ(layout.record(0).storage, MabStorage::kUnique);
    EXPECT_EQ(layout.record(2).storage, MabStorage::kIntraPointer);
    EXPECT_EQ(layout.record(2).data_addr, layout.record(0).data_addr);
    // 2 unique blocks of 48 B; 4 pointers of 4 B.
    EXPECT_EQ(layout.dataBytes(), 96u);
    EXPECT_EQ(layout.metaBytes(), 16u);
    EXPECT_GT(wb.totals().savings(48), 0.0);
}

TEST(MachWriteback, AllUniqueFramePaysMetadataOverhead)
{
    // Paper Fig. 8a/8b: with no matches, MACH writes 52 B per 48 B
    // mab - a net overhead.
    Rig rig(4);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointer);

    Random rng(5);
    std::vector<Block> mabs;
    for (int i = 0; i < 4; ++i) {
        mabs.push_back(randomMab(rng));
    }
    const Frame f = frameOfMabs(mabs);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
    wb.finishFrame(0);
    EXPECT_LT(wb.totals().savings(48), 0.0);
    EXPECT_EQ(wb.totals().totalBytes(), 4u * 52u);
}

TEST(MachWriteback, GabCatchesShiftedBlocks)
{
    Rig rig(3);
    MachConfig mcfg;
    mcfg.use_gradient = true;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointer);

    Random rng(6);
    const Block base = randomMab(rng);
    const auto mabs = std::vector<Block>{
        base, shiftedMab(base, Pixel{10, 20, 30}),
        shiftedMab(base, Pixel{1, 1, 1})};
    const Frame f = frameOfMabs(mabs);

    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
    wb.finishFrame(0);

    EXPECT_EQ(wb.totals().unique_blocks, 1u);
    EXPECT_EQ(wb.totals().intra_matches, 2u);
    // gab metadata: 4 B pointer + 3 B base per mab.
    EXPECT_EQ(layout.metaBytes(), 3u * (4u + 3u));
    // Bases preserved per record for reconstruction.
    EXPECT_EQ(layout.record(1).base,
              (Pixel{mabs[1][0], mabs[1][1], mabs[1][2]}));
    EXPECT_TRUE(layout.gradientMode());
}

TEST(MachWriteback, MabModeMissesShiftedBlocks)
{
    Rig rig(2);
    MachConfig mcfg; // mab mode
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointer);

    const Block base = pure(5, 5, 5);
    const auto mabs =
        std::vector<Block>{base, shiftedMab(base, Pixel{1, 2, 3})};
    const Frame f = frameOfMabs(mabs);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
    wb.finishFrame(0);
    EXPECT_EQ(wb.totals().unique_blocks, 2u);
    EXPECT_EQ(wb.totals().intra_matches, 0u);
}

TEST(MachWriteback, InterMatchesBecomeDigestsInLayoutIii)
{
    Rig rig(2);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs,
                     LayoutKind::kPointerDigest);

    const auto mabs0 =
        std::vector<Block>{pure(9, 9, 9), pure(8, 8, 8)};
    const Frame f0 = frameOfMabs(mabs0, 0);
    BufferSlot &s0 = rig.fbm.acquire(0);
    FrameLayout l0;
    wb.beginFrame(f0, s0, 0, l0);
    writeMabs(wb, f0, 0);
    wb.finishFrame(0);
    EXPECT_EQ(l0.machDump().size(), 2u);
    EXPECT_GT(l0.machDumpBytes(), 0u);

    // Frame 1 repeats frame 0's content: inter matches as digests.
    const Frame f1 = frameOfMabs(mabs0, 1);
    BufferSlot &s1 = rig.fbm.acquire(1);
    FrameLayout l1;
    wb.beginFrame(f1, s1, 0, l1);
    writeMabs(wb, f1, 0);
    wb.finishFrame(0);

    EXPECT_EQ(l1.record(0).storage, MabStorage::kInterDigest);
    EXPECT_EQ(l1.record(1).storage, MabStorage::kInterDigest);
    EXPECT_EQ(wb.totals().inter_matches, 2u);
    EXPECT_EQ(l1.countStorage(MabStorage::kInterDigest), 2u);
}

TEST(MachWriteback, DccShrinksUniqueBlocks)
{
    Rig rig(2);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointer,
                     /*use_dcc=*/true);

    const auto mabs =
        std::vector<Block>{pure(4, 4, 4), pure(200, 1, 7)};
    const Frame f = frameOfMabs(mabs);
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    wb.beginFrame(f, slot, 0, layout);
    writeMabs(wb, f, 0);
    wb.finishFrame(0);

    // Pure-colour blocks compress to a handful of bytes.
    EXPECT_LT(layout.dataBytes(), 2u * 48u / 2);
    EXPECT_GT(wb.totals().dcc_saved_bytes, 60u);
}

TEST(MachWritebackDeath, LinearLayoutRejected)
{
    Rig rig(2);
    MachConfig mcfg;
    MachArray machs(mcfg);
    EXPECT_DEATH(MachWriteback(rig.mem, rig.fbm, machs,
                               LayoutKind::kLinear),
                 "pointer-based layout");
}

TEST(MachWritebackDeath, WriteMabMustViewTheFramesMab)
{
    Rig rig(2);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(rig.mem, rig.fbm, machs, LayoutKind::kPointerDigest);
    const Frame f = frameOfMabs({pure(1, 2, 3), pure(4, 5, 6)});
    FrameLayout layout;
    wb.beginFrame(f, rig.fbm.acquire(0), 0, layout);
    // Equal bytes held elsewhere are not the frame's mab: a stage
    // receives the block where the frame holds it.
    const Block copy = bytesOf(f.mabBytes(0));
    EXPECT_DEATH(wb.writeMab(copy, 0, 0), "must view the frame");
    EXPECT_DEATH(wb.writeMab(f.mabBytes(1), 0, 0), "must view the frame");
    EXPECT_DEATH(wb.writeMab(f.mabBytes(0).first(47), 0, 0),
                 "must view the frame");
    EXPECT_DEATH(wb.writeMab(f.mabBytes(1), 2, 0), "must view the frame");
}

TEST(LinearWritebackDeath, WriteMabMustViewTheFramesMab)
{
    Rig rig(2);
    LinearWriteback wb(rig.mem, rig.fbm);
    const Frame f = frameOfMabs({pure(1, 2, 3), pure(4, 5, 6)});
    FrameLayout layout;
    wb.beginFrame(f, rig.fbm.acquire(0), 0, layout);
    const Block copy = bytesOf(f.mabBytes(0));
    EXPECT_DEATH(wb.writeMab(copy, 0, 0), "must view the frame");
    EXPECT_DEATH(wb.writeMab(f.mabBytes(0), 1, 0), "must view the frame");
}

TEST(WritebackTotals, SavingsArithmetic)
{
    WritebackTotals t;
    t.mabs = 100;
    t.data_bytes = 2400; // 50 blocks
    t.meta_bytes = 400;
    EXPECT_EQ(t.baselineBytes(48), 4800u);
    EXPECT_EQ(t.totalBytes(), 2800u);
    EXPECT_NEAR(t.savings(48), 1.0 - 2800.0 / 4800.0, 1e-12);
}

} // namespace
} // namespace vstream
