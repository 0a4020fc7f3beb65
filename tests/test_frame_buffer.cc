/**
 * @file
 * Tests for the frame-buffer slot pool (core/frame_buffer_manager.hh):
 * lowest-indexed-free acquisition (the order the DRAM address
 * assignment, and with it every simulated timing, depends on),
 * slot references that survive growth, no growth under steady
 * churn, recycled layouts that keep their capacity, the store-order
 * assert, and the block store: arithmetic lookups on the mab grid,
 * region offsets listed only for a slot whose blocks left it (DCC).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "block_util.hh"
#include "core/frame_buffer_manager.hh"

namespace vstream
{
namespace
{

constexpr std::uint32_t kMabs = 16;
constexpr std::uint32_t kMabBytes = 48;

struct Rig
{
    MemorySystem mem;
    FrameBufferManager fbm;

    Rig()
        : mem("mem", nullptr, DramConfig{}),
          fbm(mem, kMabs, kMabBytes, 4096)
    {
    }
};

TEST(FrameBufferPool, AcquireReturnsLowestIndexedFreeSlot)
{
    Rig rig;
    BufferSlot &s0 = rig.fbm.acquire(0);
    BufferSlot &s1 = rig.fbm.acquire(1);
    BufferSlot &s2 = rig.fbm.acquire(2);
    ASSERT_EQ(rig.fbm.slotsAllocated(), 3u);

    // Slots take their DRAM regions in acquisition order: each new
    // slot's data region sits above the previous one's.
    EXPECT_LT(s0.data_base, s1.data_base);
    EXPECT_LT(s1.data_base, s2.data_base);
    EXPECT_EQ(s0.data_capacity,
              static_cast<std::uint64_t>(kMabs) * kMabBytes);

    // Free slots 0 and 2: the next acquires hand them back in index
    // order (0 first), not in release order, with their regions.
    rig.fbm.release(2);
    rig.fbm.release(0);
    const Addr data0 = s0.data_base;
    const Addr data2 = s2.data_base;
    BufferSlot &r3 = rig.fbm.acquire(3);
    BufferSlot &r4 = rig.fbm.acquire(4);
    EXPECT_EQ(&r3, &s0);
    EXPECT_EQ(r3.data_base, data0);
    EXPECT_EQ(&r4, &s2);
    EXPECT_EQ(r4.data_base, data2);
    EXPECT_EQ(rig.fbm.find(3), &s0);
    EXPECT_EQ(rig.fbm.find(4), &s2);
    EXPECT_EQ(rig.fbm.find(0), nullptr);
    EXPECT_EQ(rig.fbm.find(2), nullptr);

    // All slots held again: the next acquire grows a fresh slot,
    // above every earlier region.
    BufferSlot &grown = rig.fbm.acquire(5);
    EXPECT_EQ(rig.fbm.slotsAllocated(), 4u);
    EXPECT_GT(grown.data_base, data2);
    EXPECT_EQ(&s1, rig.fbm.find(1));
}

TEST(FrameBufferPool, SlotReferencesSurviveGrowth)
{
    Rig rig;
    std::vector<BufferSlot *> held;
    std::vector<Addr> bases;
    for (std::uint64_t f = 0; f < 100; ++f) {
        BufferSlot &slot = rig.fbm.acquire(f);
        held.push_back(&slot);
        bases.push_back(slot.data_base);
        const std::vector<std::uint8_t> bytes(
            kMabBytes, static_cast<std::uint8_t>(f));
        rig.fbm.storeBlock(slot, slot.data_base, bytes);
    }
    // Growth to 100 slots moved no earlier slot or its bytes.
    for (std::uint64_t f = 0; f < 100; ++f) {
        EXPECT_EQ(rig.fbm.find(f), held[f]);
        EXPECT_EQ(held[f]->data_base, bases[f]);
        EXPECT_EQ(held[f]->frame_index, f);
        EXPECT_EQ(bytesOf(rig.fbm.loadBlock(bases[f])),
                  std::vector<std::uint8_t>(
                      kMabBytes, static_cast<std::uint8_t>(f)));
    }
    EXPECT_EQ(rig.fbm.slotsAllocated(), 100u);
}

TEST(FrameBufferPool, SteadyChurnMakesNoNewSlot)
{
    Rig rig;
    // Warmup: a high-water mark of 8 frames held at once.
    for (std::uint64_t f = 0; f < 8; ++f) {
        rig.fbm.acquire(f);
    }
    const std::uint64_t dram = rig.mem.allocatedBytes();
    const std::uint64_t pool = rig.fbm.poolBytes();

    // A sliding window of 1..8 live frames: every acquire recycles,
    // and no DRAM region is allocated after warmup.
    std::uint64_t oldest = 0;
    for (std::uint64_t f = 8; f < 400; ++f) {
        const std::uint64_t live = 1 + f % 8;
        while (f - oldest >= live) {
            rig.fbm.release(oldest++);
        }
        rig.fbm.acquire(f);
        ASSERT_EQ(rig.fbm.slotsAllocated(), 8u) << "frame " << f;
    }
    EXPECT_EQ(rig.mem.allocatedBytes(), dram);
    EXPECT_EQ(rig.fbm.poolBytes(), pool);
}

TEST(FrameBufferPool, RecycledSlotKeepsLayoutCapacity)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    slot.layout.reinit(0, LayoutKind::kPointerDigest, kMabs, kMabBytes,
                       /*gradient_mode=*/true);
    auto &dump = slot.layout.machDumpMutable();
    dump.reserve(64);
    dump.emplace_back(7u, Addr{0x40});
    const std::size_t dump_cap = dump.capacity();
    rig.fbm.storeBlock(slot, slot.data_base,
                       std::vector<std::uint8_t>(kMabBytes, 1));
    const std::size_t arena_cap = slot.arena.capacity();
    rig.fbm.release(0);

    // The next frame gets the same slot: its blocks are gone, but the
    // layout's dump and the arena keep the storage they had.
    BufferSlot &again = rig.fbm.acquire(1);
    ASSERT_EQ(&again, &slot);
    EXPECT_TRUE(again.arena.empty());
    EXPECT_TRUE(rig.fbm.loadBlock(again.data_base).empty());
    EXPECT_EQ(again.arena.capacity(), arena_cap);
    again.layout.reinit(1, LayoutKind::kPointerDigest, kMabs, kMabBytes,
                        /*gradient_mode=*/true);
    EXPECT_EQ(again.layout.frameIndex(), 1u);
    EXPECT_EQ(again.layout.mabCount(), kMabs);
    EXPECT_EQ(again.layout.machDumpMutable().capacity(), dump_cap);
}

TEST(FrameBufferPoolDeath, StoreOutOfAddressOrderPanics)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    rig.fbm.storeBlock(slot, slot.data_base + kMabBytes,
                       std::vector<std::uint8_t>(kMabBytes, 1));
    EXPECT_DEATH(rig.fbm.storeBlock(slot, slot.data_base,
                                    std::vector<std::uint8_t>(kMabBytes, 2)),
                 "out of order");
}

TEST(ExactDivision, EqualsDivisionBelowEveryFrameCapacity)
{
    // Mabs of 2x2, 4x4, 8x8 and 16x16 RGB pixels, at the largest
    // frame the simulator runs (3840x2160): every offset below the
    // slot's data capacity, and the capacity-1 edge of smaller
    // frames through the same divider.
    for (const std::uint32_t side : {2u, 4u, 8u, 16u}) {
        const std::uint32_t mab_bytes = side * side * 3;
        const std::uint64_t capacity =
            static_cast<std::uint64_t>(3840 / side) * (2160 / side) *
            mab_bytes;
        SCOPED_TRACE(::testing::Message() << "mab " << mab_bytes);
        const ExactDivision div(mab_bytes, capacity);
        std::uint64_t wrong = 0;
        for (std::uint32_t off = 0; off < capacity; ++off) {
            wrong += div(off) != off / mab_bytes ? 1 : 0;
        }
        EXPECT_EQ(wrong, 0u);
    }
    // The largest bound it accepts, at its top and its multiples.
    for (const std::uint32_t d : {1u, 3u, 12u, 768u, 65537u}) {
        const std::uint64_t bound = std::uint64_t{1} << 31;
        const ExactDivision div(d, bound);
        for (std::uint64_t n = bound - 4096; n < bound; ++n) {
            const auto n32 = static_cast<std::uint32_t>(n);
            ASSERT_EQ(div(n32), n32 / d) << "d " << d << " n " << n;
        }
        for (std::uint64_t q = 1; q * d < bound; q = q * 2 + 1) {
            const auto n32 = static_cast<std::uint32_t>(q * d);
            ASSERT_EQ(div(n32), q) << "d " << d;
            ASSERT_EQ(div(n32 - 1), q - 1) << "d " << d;
        }
    }
}

TEST(FrameBufferPool, LoadsEveryBlockOfAFrame)
{
    // Blocks at every mab index come back, found by arithmetic.
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    for (std::uint32_t i = 0; i < kMabs; ++i) {
        rig.fbm.storeBlock(slot, slot.data_base + i * kMabBytes,
                           std::vector<std::uint8_t>(
                               kMabBytes, static_cast<std::uint8_t>(i)));
    }
    for (std::uint32_t i = 0; i < kMabs; ++i) {
        const std::span<const std::uint8_t> b =
            rig.fbm.loadBlock(slot.data_base + i * kMabBytes);
        ASSERT_FALSE(b.empty());
        EXPECT_EQ(b.size(), kMabBytes);
        EXPECT_EQ(b[0], i);
        EXPECT_TRUE(
            rig.fbm.loadBlock(slot.data_base + i * kMabBytes + 1).empty());
    }
}

TEST(FrameBufferPool, OnGridSlotAllocatesNoIndex)
{
    // A frame stored a mab apart (every layout but DCC's) keeps no
    // region offsets: lookups and the whole-frame run are arithmetic.
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    std::vector<std::uint8_t> frame;
    for (std::uint32_t i = 0; i < kMabs; ++i) {
        const std::vector<std::uint8_t> block(
            kMabBytes, static_cast<std::uint8_t>(3 * i + 1));
        rig.fbm.storeBlock(slot, slot.data_base + i * kMabBytes, block);
        frame.insert(frame.end(), block.begin(), block.end());
    }
    EXPECT_EQ(slot.packed.capacity(), 0u);
    const std::span<const std::uint8_t> all =
        rig.fbm.loadRun(slot.data_base, frame.size());
    ASSERT_FALSE(all.empty());
    EXPECT_EQ(bytesOf(all), frame);
    // A run from the middle, one block past the end, or not a whole
    // number of blocks is no run.
    EXPECT_EQ(bytesOf(rig.fbm.loadRun(slot.data_base + 5 * kMabBytes,
                                      3 * kMabBytes)),
              std::vector<std::uint8_t>(frame.begin() + 5 * kMabBytes,
                                        frame.begin() + 8 * kMabBytes));
    EXPECT_TRUE(
        rig.fbm.loadRun(slot.data_base + kMabBytes, frame.size()).empty());
    EXPECT_TRUE(rig.fbm.loadRun(slot.data_base, 2 * kMabBytes + 1).empty());
    EXPECT_TRUE(rig.fbm.loadRun(slot.data_base + 1, kMabBytes).empty());
    // A slot holding part of a frame: nothing past its last block.
    rig.fbm.release(0);
    BufferSlot &again = rig.fbm.acquire(1);
    rig.fbm.storeBlock(again, again.data_base,
                       std::vector<std::uint8_t>(kMabBytes, 9));
    EXPECT_FALSE(rig.fbm.loadBlock(again.data_base).empty());
    EXPECT_TRUE(rig.fbm.loadBlock(again.data_base + kMabBytes).empty());
    EXPECT_TRUE(rig.fbm.loadRun(again.data_base, 2 * kMabBytes).empty());
    EXPECT_EQ(again.packed.capacity(), 0u);
}

TEST(FrameBufferPool, PackedStoresLoadBack)
{
    // DCC: unique blocks of mixed compressed sizes pack closer than a
    // mab apart; each keeps its region offset and loads back whole.
    Rig rig;
    rig.fbm.expectPackedStores();
    BufferSlot &slot = rig.fbm.acquire(0);
    const std::size_t reserved = slot.packed.capacity();
    EXPECT_GE(reserved, kMabs);
    const std::uint32_t sizes[kMabs] = {48, 48, 20, 7,  48, 33, 48, 48,
                                        48, 1,  12, 48, 48, 40, 5, 48};
    std::vector<Addr> addrs;
    Addr addr = slot.data_base;
    for (std::uint32_t i = 0; i < kMabs; ++i) {
        addrs.push_back(addr);
        rig.fbm.storeBlock(slot, addr,
                           std::vector<std::uint8_t>(
                               kMabBytes, static_cast<std::uint8_t>(i)));
        addr += sizes[i];
    }
    EXPECT_EQ(slot.packed.capacity(), reserved); // never grown
    for (std::uint32_t i = 0; i < kMabs; ++i) {
        EXPECT_EQ(bytesOf(rig.fbm.loadBlock(addrs[i])),
                  std::vector<std::uint8_t>(kMabBytes,
                                            static_cast<std::uint8_t>(i)))
            << "block " << i;
    }
    for (const Addr off : {Addr{1}, Addr{100}, Addr{500}, Addr{600}}) {
        EXPECT_TRUE(rig.fbm.loadBlock(slot.data_base + off).empty())
            << "offset " << off;
    }
    // Blocks 6 to 9 sit a mab apart (6, 7 and 8 stored 48 B each):
    // they are a run, but nothing that crosses a compressed block is.
    EXPECT_EQ(rig.fbm.loadRun(addrs[6], 4 * kMabBytes).data(),
              rig.fbm.loadBlock(addrs[6]).data());
    EXPECT_TRUE(rig.fbm.loadRun(addrs[6], 5 * kMabBytes).empty());
    EXPECT_TRUE(rig.fbm.loadRun(addrs[2], 2 * kMabBytes).empty());
    EXPECT_FALSE(rig.fbm.loadRun(addrs[0], 2 * kMabBytes).empty());
}

TEST(FrameBufferPool, StoresLeavingTheGridKeepEarlierBlocks)
{
    // Without expectPackedStores(), the first block off the grid
    // lists the offsets of the blocks before it.
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    const Addr at[] = {0, 48, 96, 130, 178, 400};
    for (std::uint32_t i = 0; i < std::size(at); ++i) {
        rig.fbm.storeBlock(slot, slot.data_base + at[i],
                           std::vector<std::uint8_t>(
                               kMabBytes, static_cast<std::uint8_t>(i)));
    }
    ASSERT_EQ(slot.packed.size(), std::size(at));
    for (std::uint32_t i = 0; i < std::size(at); ++i) {
        const std::span<const std::uint8_t> b =
            rig.fbm.loadBlock(slot.data_base + at[i]);
        ASSERT_FALSE(b.empty()) << "block " << i;
        EXPECT_EQ(b[0], i);
    }
    EXPECT_TRUE(rig.fbm.loadBlock(slot.data_base + 144).empty());
    EXPECT_FALSE(rig.fbm.loadRun(slot.data_base, 3 * kMabBytes).empty());
    EXPECT_TRUE(rig.fbm.loadRun(slot.data_base, 4 * kMabBytes).empty());
}

TEST(FrameBufferPoolDeath, StoreOfAPartBlockPanics)
{
    // Every stored block is one mab: a mab, or its gab.
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    EXPECT_DEATH(rig.fbm.storeBlock(slot, slot.data_base,
                                    std::vector<std::uint8_t>(20, 1)),
                 "one mab");
}

} // namespace
} // namespace vstream
