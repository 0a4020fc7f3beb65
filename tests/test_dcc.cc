/**
 * @file
 * Tests for the Delta Color Compression model (the paper's Sec. 6.2
 * comparator).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "block_util.hh"
#include "core/dcc.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

Block
pure(std::uint8_t r, std::uint8_t g, std::uint8_t b)
{
    return pureMab(Pixel{r, g, b});
}

/** A 4x4 grey block whose pixel i is @p level(i). */
template <typename Level>
Block
grey(Level level)
{
    Block m(48);
    for (std::uint32_t i = 0; i < 16; ++i) {
        const auto v = static_cast<std::uint8_t>(level(i));
        std::fill_n(m.begin() + i * kBytesPerPixel, kBytesPerPixel, v);
    }
    return m;
}

TEST(Dcc, PureColorCompressesToHeaderPlusBase)
{
    const DccResult r = dccCompress(pure(120, 0, 255));
    EXPECT_TRUE(r.compressed);
    // 2 B header + 3 B base + 0 payload bits.
    EXPECT_EQ(r.compressed_bytes, 5u);
    EXPECT_LT(r.ratio(48), 0.15);
}

TEST(Dcc, SmallDeltasPackTightly)
{
    const Block m = grey([](std::uint32_t i) { return 100 + i % 2; });
    const DccResult r = dccCompress(m);
    EXPECT_TRUE(r.compressed);
    // Delta of 1 -> 2 signed bits per channel; 15 pixels * 6 bits.
    EXPECT_EQ(r.compressed_bytes, 2u + 3u + (15u * 6u + 7u) / 8u);
}

TEST(Dcc, RandomNoiseIsIncompressible)
{
    Random rng(21);
    int incompressible = 0;
    for (int t = 0; t < 50; ++t) {
        const DccResult r = dccCompress(randomMab(rng));
        if (!r.compressed) {
            // Raw fallback: original size plus the mode byte.
            EXPECT_EQ(r.compressed_bytes, 49u);
            ++incompressible;
        }
    }
    EXPECT_GT(incompressible, 40);
}

TEST(Dcc, GradientRampCompresses)
{
    // Pixel i sits at x = i % 4, y = i / 4.
    const Block m =
        grey([](std::uint32_t i) { return 50 + 4 * (i % 4) + i / 4; });
    const DccResult r = dccCompress(m);
    EXPECT_TRUE(r.compressed);
    // Max delta 15 -> 5 signed bits/channel: 34 of 48 bytes.
    EXPECT_LT(r.ratio(48), 0.75);
}

TEST(Dcc, NeverLargerThanRawPlusHeader)
{
    Random rng(22);
    for (int t = 0; t < 200; ++t) {
        const DccResult r = dccCompress(randomMab(rng));
        EXPECT_LE(r.compressed_bytes, 49u);
        EXPECT_GE(r.compressed_bytes, 5u);
    }
}

TEST(Dcc, LargerBlocksAmortizeTheBase)
{
    // 8x8 pure-colour block: still 5 bytes.
    const Block m = pureMab(Pixel{1, 2, 3}, 8);
    const DccResult r = dccCompress(m);
    EXPECT_EQ(r.compressed_bytes, 5u);
    EXPECT_LT(r.ratio(m.size()), 0.03);
}

TEST(Dcc, RatioOfZeroRawIsOne)
{
    DccResult r;
    r.compressed_bytes = 10;
    EXPECT_DOUBLE_EQ(r.ratio(0), 1.0);
}

} // namespace
} // namespace vstream
