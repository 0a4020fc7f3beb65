/**
 * @file
 * Tests for the frame-buffer layout bookkeeping (Fig. 9c).
 */

#include <gtest/gtest.h>

#include "core/framebuffer_layout.hh"

namespace vstream
{
namespace
{

TEST(LayoutKind, Names)
{
    EXPECT_EQ(layoutKindName(LayoutKind::kLinear), "linear");
    EXPECT_EQ(layoutKindName(LayoutKind::kPointer), "pointer");
    EXPECT_EQ(layoutKindName(LayoutKind::kPointerDigest),
              "pointer+digest");
}

TEST(FrameLayout, ConstructionDefaults)
{
    FrameLayout l(7, LayoutKind::kPointerDigest, 10, 48, true);
    EXPECT_EQ(l.frameIndex(), 7u);
    EXPECT_EQ(l.kind(), LayoutKind::kPointerDigest);
    EXPECT_EQ(l.mabCount(), 10u);
    EXPECT_EQ(l.mabBytes(), 48u);
    EXPECT_TRUE(l.gradientMode());
    EXPECT_EQ(l.totalBytes(), 0u);
    EXPECT_TRUE(l.machDump().empty());
    for (std::uint32_t i = 0; i < 10; ++i) {
        EXPECT_EQ(l.record(i).storage, MabStorage::kUnique);
    }
}

TEST(FrameLayout, CountStorage)
{
    FrameLayout l(0, LayoutKind::kPointer, 6, 48, false);
    l.record(0).storage = MabStorage::kUnique;
    l.record(1).storage = MabStorage::kIntraPointer;
    l.record(2).storage = MabStorage::kIntraPointer;
    l.record(3).storage = MabStorage::kInterPointer;
    l.record(4).storage = MabStorage::kInterDigest;
    l.record(5).storage = MabStorage::kInterDigest;
    EXPECT_EQ(l.countStorage(MabStorage::kUnique), 1u);
    EXPECT_EQ(l.countStorage(MabStorage::kIntraPointer), 2u);
    EXPECT_EQ(l.countStorage(MabStorage::kInterPointer), 1u);
    EXPECT_EQ(l.countStorage(MabStorage::kInterDigest), 2u);
}

TEST(FrameLayout, ByteAccounting)
{
    FrameLayout l(0, LayoutKind::kPointer, 4, 48, false);
    l.setDataBytes(96);
    l.setMetaBytes(16);
    EXPECT_EQ(l.totalBytes(), 112u);
}

TEST(FrameLayout, MachDumpRoundTrip)
{
    FrameLayout l(0, LayoutKind::kPointerDigest, 2, 48, false);
    std::vector<std::pair<std::uint32_t, Addr>> dump = {{0xaa, 100},
                                                        {0xbb, 200}};
    l.machDumpMutable() = dump;
    l.setMachDumpBytes(16);
    l.setMachDumpBase(4096);
    ASSERT_EQ(l.machDump().size(), 2u);
    EXPECT_EQ(l.machDump()[1].first, 0xbbu);
    EXPECT_EQ(l.machDump()[1].second, 200u);
    EXPECT_EQ(l.machDumpBytes(), 16u);
    EXPECT_EQ(l.machDumpBase(), 4096u);
}

TEST(FrameLayout, BasesAndChecksums)
{
    FrameLayout l(0, LayoutKind::kLinear, 1, 48, false);
    l.setMetaBase(10);
    l.setDataBase(20);
    l.setSourceChecksum(0x1234);
    EXPECT_EQ(l.metaBase(), 10u);
    EXPECT_EQ(l.dataBase(), 20u);
    EXPECT_EQ(l.sourceChecksum(), 0x1234u);
}

TEST(FrameLayout, RecordOutOfRangeThrows)
{
    FrameLayout l(0, LayoutKind::kLinear, 2, 48, false);
    EXPECT_THROW(l.record(2), std::out_of_range);
}

} // namespace
} // namespace vstream
