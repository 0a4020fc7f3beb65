/**
 * @file
 * Tests for the memory system's statistics output and the energy
 * ledger's dump format.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mem/memory_system.hh"
#include "sim/stats_registry.hh"

namespace vstream
{
namespace
{

TEST(MemStats, DumpListsRequesters)
{
    DramConfig cfg;
    cfg.capacity_bytes = 64ULL << 20;
    MemorySystem mem("mem", nullptr, cfg);
    mem.read(0, 64, Requester::kVideoDecoder, 0);
    mem.write(4096, 64, Requester::kDisplayController, 0);

    StatsRegistry r;
    mem.regStats(r);
    std::ostringstream os;
    r.dumpText(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("mem.requests"), std::string::npos);
    EXPECT_NE(out.find("dram.vd.activations"), std::string::npos);
    EXPECT_NE(out.find("dram.dc.bytesWritten"), std::string::npos);
    EXPECT_NE(out.find("dram.net."), std::string::npos);
    EXPECT_NE(out.find("actPreEnergyJ"), std::string::npos);
}

TEST(MemStats, ActivityCountsAccumulate)
{
    DramActivityCounts a;
    a.activations = 3;
    a.bytes_read = 96;
    DramActivityCounts b;
    b.activations = 2;
    b.row_hits = 5;
    a += b;
    EXPECT_EQ(a.activations, 5u);
    EXPECT_EQ(a.row_hits, 5u);
    EXPECT_EQ(a.bytes_read, 96u);
}

TEST(MemStats, RequesterNames)
{
    EXPECT_EQ(requesterName(Requester::kVideoDecoder), "vd");
    EXPECT_EQ(requesterName(Requester::kDisplayController), "dc");
    EXPECT_EQ(requesterName(Requester::kStreamBuffer), "net");
    EXPECT_EQ(requesterName(Requester::kOther), "other");
}

TEST(MemStats, PeakAllocationTracksHighWater)
{
    DramConfig cfg;
    cfg.capacity_bytes = 64ULL << 20;
    MemorySystem mem("mem", nullptr, cfg);
    mem.allocate(1024, "a");
    mem.allocate(2048, "b");
    EXPECT_EQ(mem.peakAllocatedBytes(), 3072u);
    EXPECT_EQ(mem.allocatedBytes(), 3072u);
}

} // namespace
} // namespace vstream
