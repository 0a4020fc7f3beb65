/**
 * @file
 * Tests for the configurable address-interleaving orders and the
 * DVFS slack-scaling option.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/video_pipeline.hh"
#include "mem/address_map.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

DramConfig
configFor(AddrMapOrder order)
{
    DramConfig cfg;
    cfg.capacity_bytes = 64ULL << 20;
    cfg.map_order = order;
    return cfg;
}

TEST(AddrMapOrder, Names)
{
    EXPECT_EQ(addrMapOrderName(AddrMapOrder::kRoRaBaCoCh),
              "RoRaBaCoCh");
    EXPECT_EQ(addrMapOrderName(AddrMapOrder::kRoRaBaChCo),
              "RoRaBaChCo");
    EXPECT_EQ(addrMapOrderName(AddrMapOrder::kRoRaCoBaCh),
              "RoRaCoBaCh");
}

class MapOrderSweep : public ::testing::TestWithParam<AddrMapOrder>
{
};

TEST_P(MapOrderSweep, RoundTripAllOrders)
{
    const AddressMap map(configFor(GetParam()));
    for (Addr a = 0; a < (2u << 20); a += 4096 + 96) {
        const DramCoord c = map.decompose(a);
        EXPECT_EQ(map.compose(c), a / 32 * 32) << "addr " << a;
    }
}

TEST_P(MapOrderSweep, CoordinatesStayInBounds)
{
    const DramConfig cfg = configFor(GetParam());
    const AddressMap map(cfg);
    for (Addr a = 0; a < (1u << 20); a += 1777) {
        const DramCoord c = map.decompose(a);
        EXPECT_LT(c.channel, cfg.channels);
        EXPECT_LT(c.bank, cfg.banks_per_rank);
        EXPECT_LT(c.rank, cfg.ranks_per_channel);
        EXPECT_LT(c.column, map.columnsPerRow());
    }
}

TEST_P(MapOrderSweep, DistinctAddressesDistinctCoords)
{
    const AddressMap map(configFor(GetParam()));
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint64_t, std::uint32_t>>
        seen;
    for (Addr a = 0; a < (1u << 18); a += 32) {
        const DramCoord c = map.decompose(a);
        EXPECT_TRUE(
            seen.emplace(c.channel, c.rank, c.bank, c.row, c.column)
                .second)
            << "aliased at " << a;
    }
}

/**
 * Field-by-field reference decomposition: wrap with a plain modulo,
 * then peel each field off the burst index by dividing by its value
 * count, LSB first, in the order the map's name spells MSB first.
 */
DramCoord
referenceDecompose(const DramConfig &cfg, Addr addr)
{
    Addr a = (addr % cfg.capacity_bytes) / cfg.bytesPerBurst();
    const auto take = [&a](std::uint64_t values) {
        const auto v = static_cast<std::uint32_t>(a % values);
        a /= values;
        return v;
    };
    const std::uint64_t columns = cfg.row_bytes / cfg.bytesPerBurst();
    DramCoord c;
    switch (cfg.map_order) {
      case AddrMapOrder::kRoRaBaCoCh:
        c.channel = take(cfg.channels);
        c.column = take(columns);
        c.bank = take(cfg.banks_per_rank);
        break;
      case AddrMapOrder::kRoRaBaChCo:
        c.column = take(columns);
        c.channel = take(cfg.channels);
        c.bank = take(cfg.banks_per_rank);
        break;
      case AddrMapOrder::kRoRaCoBaCh:
        c.channel = take(cfg.channels);
        c.bank = take(cfg.banks_per_rank);
        c.column = take(columns);
        break;
    }
    c.rank = take(cfg.ranks_per_channel);
    c.row = a;
    return c;
}

TEST_P(MapOrderSweep, DecomposeMatchesFieldByFieldReference)
{
    for (const std::uint32_t ranks : {1u, 2u}) {
        // A power-of-two and a non-power-of-two capacity.
        for (const std::uint64_t capacity : {64ULL << 20, 48ULL << 20}) {
            DramConfig cfg = configFor(GetParam());
            cfg.ranks_per_channel = ranks;
            cfg.capacity_bytes = capacity;
            const AddressMap map(cfg);

            // Below capacity (no wrap), at and just past it, several
            // capacities up, and at the top of the address space.
            std::vector<Addr> addrs = {0,
                                       31,
                                       32,
                                       capacity - 1,
                                       capacity,
                                       capacity + 32,
                                       2 * capacity - 32,
                                       7 * capacity + 4096 + 96,
                                       ~Addr{0}};
            Random rng(0xadd7ULL + ranks);
            for (int i = 0; i < 4000; ++i) {
                addrs.push_back(rng.uniformInt(0, capacity - 1));
                addrs.push_back(rng.uniformInt(capacity, 16 * capacity));
            }
            for (const Addr a : addrs) {
                const DramCoord got = map.decompose(a);
                const DramCoord want = referenceDecompose(cfg, a);
                ASSERT_EQ(got.channel, want.channel) << "addr " << a;
                ASSERT_EQ(got.rank, want.rank) << "addr " << a;
                ASSERT_EQ(got.bank, want.bank) << "addr " << a;
                ASSERT_EQ(got.row, want.row) << "addr " << a;
                ASSERT_EQ(got.column, want.column) << "addr " << a;
                ASSERT_EQ(map.compose(got),
                          a % capacity / cfg.bytesPerBurst() *
                              cfg.bytesPerBurst())
                    << "addr " << a;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, MapOrderSweep,
    ::testing::Values(AddrMapOrder::kRoRaBaCoCh,
                      AddrMapOrder::kRoRaBaChCo,
                      AddrMapOrder::kRoRaCoBaCh));

TEST(AddressMapOrders, ChannelPlacementDiffers)
{
    const AddressMap low_ch(configFor(AddrMapOrder::kRoRaBaCoCh));
    const AddressMap high_ch(configFor(AddrMapOrder::kRoRaBaChCo));

    // Channel-lowest: adjacent bursts alternate channels.
    EXPECT_NE(low_ch.decompose(0).channel,
              low_ch.decompose(32).channel);
    // Channel-above-column: adjacent bursts share a channel.
    EXPECT_EQ(high_ch.decompose(0).channel,
              high_ch.decompose(32).channel);
    EXPECT_EQ(high_ch.decompose(0).column + 1,
              high_ch.decompose(32).column);
}

TEST(AddressMapOrders, BankInterleavedOrderSpreadsBanks)
{
    const AddressMap map(configFor(AddrMapOrder::kRoRaCoBaCh));
    // With bank bits directly above the channel bit, addresses 64 B
    // apart land in different banks.
    EXPECT_NE(map.decompose(0).bank, map.decompose(64).bank);
}

// ---------------------------------------------------------------------
// DVFS slack scaling
// ---------------------------------------------------------------------

VideoProfile
dvfsProfile()
{
    VideoProfile p;
    p.key = "F";
    p.width = 96;
    p.height = 48;
    p.frame_count = 60;
    p.seed = 99;
    p.mean_decode_frac = 0.80;
    p.complexity_sigma = 0.25;
    return p;
}

TEST(DvfsSlack, SitsBetweenTheFixedFrequencies)
{
    const VideoProfile p = dvfsProfile();
    const double low =
        simulateScheme(p, SchemeConfig::make(Scheme::kBaseline))
            .energy.vd_processing;
    const double high =
        simulateScheme(p, SchemeConfig::make(Scheme::kRacing))
            .energy.vd_processing;

    SchemeConfig dvfs = SchemeConfig::make(Scheme::kRacing);
    dvfs.dvfs_slack = true;
    const double mixed =
        simulateScheme(p, dvfs).energy.vd_processing;

    EXPECT_GT(mixed, low * 0.99);
    EXPECT_LT(mixed, high);
}

TEST(DvfsSlack, StillDropsFramesUnlikeRaceToSleep)
{
    const VideoProfile p = dvfsProfile();
    SchemeConfig dvfs = SchemeConfig::make(Scheme::kRacing);
    dvfs.dvfs_slack = true;
    const auto predicted = simulateScheme(p, dvfs);
    const auto rts =
        simulateScheme(p, SchemeConfig::make(Scheme::kRaceToSleep));
    // The paper's argument: prediction-based scaling keeps dropping
    // frames; race-to-sleep does not.
    EXPECT_GT(predicted.drops, 0u);
    EXPECT_EQ(rts.drops, 0u);
}

TEST(DvfsSlack, AggressiveMarginDropsMore)
{
    const VideoProfile p = dvfsProfile();
    SchemeConfig safe = SchemeConfig::make(Scheme::kRacing);
    safe.dvfs_slack = true;
    safe.dvfs_margin = 0.60;
    SchemeConfig aggressive = safe;
    aggressive.dvfs_margin = 1.05;
    const auto a = simulateScheme(p, safe);
    const auto b = simulateScheme(p, aggressive);
    EXPECT_LE(a.drops, b.drops);
    EXPECT_GE(a.energy.vd_processing, b.energy.vd_processing);
}

TEST(PipelineMapping, AllOrdersRunLossless)
{
    for (AddrMapOrder order :
         {AddrMapOrder::kRoRaBaCoCh, AddrMapOrder::kRoRaBaChCo,
          AddrMapOrder::kRoRaCoBaCh}) {
        PipelineConfig cfg;
        cfg.profile = dvfsProfile();
        cfg.profile.frame_count = 20;
        cfg.scheme = SchemeConfig::make(Scheme::kGab);
        cfg.dram.map_order = order;
        VideoPipeline pipe(std::move(cfg));
        const PipelineResult r = pipe.run();
        EXPECT_TRUE(r.all_verified ||
                    r.mach.collisions_undetected > 0)
            << addrMapOrderName(order);
        EXPECT_EQ(r.drops, 0u) << addrMapOrderName(order);
    }
}

} // namespace
} // namespace vstream
