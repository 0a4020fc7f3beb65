/**
 * @file
 * Tests for the DRAM controller's posted-write queue.
 */

#include <gtest/gtest.h>

#include "mem/dram_controller.hh"

namespace vstream
{
namespace
{

DramConfig
baseConfig()
{
    DramConfig cfg;
    cfg.capacity_bytes = 64ULL << 20;
    cfg.row_open_timeout = 100 * sim_clock::ns; // tight on purpose
    return cfg;
}

TEST(WriteQueue, DepthZeroIssuesImmediately)
{
    DramController ctrl(baseConfig());
    ctrl.access(MemRequest{0, 32, MemOp::kWrite,
                           Requester::kVideoDecoder},
                0);
    EXPECT_EQ(ctrl.pendingWrites(), 0u);
    EXPECT_EQ(ctrl.energy().totalCounts().write_bursts, 1u);
}

TEST(WriteQueue, PostsUntilWatermark)
{
    DramConfig cfg = baseConfig();
    cfg.write_queue_depth = 4;
    DramController ctrl(cfg);

    // Three bursts into one bank: all pending, nothing charged yet.
    for (int i = 0; i < 3; ++i) {
        ctrl.access(MemRequest{static_cast<Addr>(i) * 64, 32,
                               MemOp::kWrite,
                               Requester::kVideoDecoder},
                    0);
    }
    EXPECT_EQ(ctrl.pendingWrites(), 3u);
    EXPECT_EQ(ctrl.energy().totalCounts().write_bursts, 0u);

    // The fourth write to the same bank hits the watermark.
    ctrl.access(MemRequest{3 * 64, 32, MemOp::kWrite,
                           Requester::kVideoDecoder},
                0);
    EXPECT_EQ(ctrl.pendingWrites(), 0u);
    EXPECT_EQ(ctrl.energy().totalCounts().write_bursts, 4u);
}

TEST(WriteQueue, FlushDrainsEverything)
{
    DramConfig cfg = baseConfig();
    cfg.write_queue_depth = 64;
    DramController ctrl(cfg);
    for (int i = 0; i < 10; ++i) {
        ctrl.access(MemRequest{static_cast<Addr>(i) * 4096, 32,
                               MemOp::kWrite,
                               Requester::kDisplayController},
                    0);
    }
    EXPECT_GT(ctrl.pendingWrites(), 0u);
    ctrl.flushWrites(1000);
    EXPECT_EQ(ctrl.pendingWrites(), 0u);
    EXPECT_EQ(ctrl.energy().totalCounts().write_bursts, 10u);
}

TEST(WriteQueue, BatchingRecoversRowLocality)
{
    // Scattered writes alternating between two rows of one bank,
    // spaced beyond the row timeout: immediate issue re-activates
    // every time; queued-and-sorted service activates once per row.
    auto run = [](std::uint32_t depth) {
        DramConfig cfg = baseConfig();
        cfg.write_queue_depth = depth;
        DramController ctrl(cfg);
        // Same bank, alternating rows (bank stride is 32 KB).
        for (int i = 0; i < 16; ++i) {
            const Addr row = (i % 2) ? 0 : (256ULL << 10);
            const Tick t = static_cast<Tick>(i) * sim_clock::us;
            ctrl.access(MemRequest{row + (i / 2) * 64ULL, 32,
                                   MemOp::kWrite,
                                   Requester::kVideoDecoder},
                        t);
        }
        ctrl.flushWrites(20 * sim_clock::us);
        return ctrl.energy().totalCounts().activations;
    };
    const auto direct = run(0);
    const auto queued = run(32);
    EXPECT_GE(direct, 16u);  // every scattered write re-activates
    EXPECT_LE(queued, 4u);   // one activation per row in the batch
}

TEST(WriteQueue, TotalBurstCountUnchanged)
{
    auto run = [](std::uint32_t depth) {
        DramConfig cfg = baseConfig();
        cfg.write_queue_depth = depth;
        DramController ctrl(cfg);
        for (int i = 0; i < 37; ++i) {
            ctrl.access(MemRequest{static_cast<Addr>(i) * 48, 48,
                                   MemOp::kWrite,
                                   Requester::kVideoDecoder},
                        0);
        }
        ctrl.flushWrites(0);
        return ctrl.energy().totalCounts().write_bursts;
    };
    EXPECT_EQ(run(0), run(8));
}

TEST(WriteQueue, ReadsUnaffected)
{
    DramConfig cfg = baseConfig();
    cfg.write_queue_depth = 16;
    DramController ctrl(cfg);
    const MemResult r = ctrl.access(
        MemRequest{0, 64, MemOp::kRead, Requester::kVideoDecoder}, 0);
    EXPECT_EQ(r.bursts, 2u);
    EXPECT_GT(r.finish_tick, 0u);
    EXPECT_EQ(ctrl.pendingWrites(), 0u);
}

} // namespace
} // namespace vstream
