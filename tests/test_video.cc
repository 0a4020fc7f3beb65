/**
 * @file
 * Tests for the video substrate: the gradient transform (the algebra
 * MACH's gab mode rests on), frames, GOP structure, profiles, and the
 * synthetic generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "block_util.hh"
#include "hash/hasher.hh"
#include "sim/random.hh"
#include "sim/ticks.hh"
#include "video/frame.hh"
#include "video/gop.hh"
#include "video/synthetic_video.hh"
#include "video/video_profile.hh"
#include "video/workloads.hh"

namespace vstream
{
namespace
{

TEST(Gradient, PureColorHasZeroGab)
{
    for (const std::uint8_t b : gabOf(pureMab(Pixel{200, 100, 50}))) {
        EXPECT_EQ(b, 0);
    }
}

TEST(Gradient, GabFirstPixelAlwaysZero)
{
    Random rng(4);
    for (int i = 0; i < 50; ++i) {
        const auto gab = gabOf(randomMab(rng));
        EXPECT_EQ((Pixel{gab[0], gab[1], gab[2]}), (Pixel{0, 0, 0}));
    }
}

TEST(Gradient, GabInvariantUnderShift)
{
    // The core gab property (paper Fig. 8e): shifting every pixel by
    // a constant leaves the gradient block, and so its digest,
    // unchanged, while the block itself differs.
    Random rng(2);
    for (int i = 0; i < 200; ++i) {
        const Block m = randomMab(rng);
        const Pixel offset{static_cast<std::uint8_t>(rng.next()),
                           static_cast<std::uint8_t>(rng.next()),
                           static_cast<std::uint8_t>(rng.next())};
        const Block shifted = shiftedMab(m, offset);
        const auto gab = gabOf(m);
        EXPECT_EQ(gab, gabOf(shifted));
        if (offset != Pixel{0, 0, 0}) {
            EXPECT_NE(m, shifted);
            EXPECT_EQ(digest32(HashKind::kCrc32, gab.data(), gab.size()),
                      digest32(HashKind::kCrc32,
                               gabOf(shifted).data(), gab.size()));
        }
    }
}

TEST(Gradient, ShiftWrapsModulo256)
{
    const Block s =
        shiftedMab(pureMab(Pixel{250, 250, 250}, 2), Pixel{10, 10, 10});
    EXPECT_EQ((Pixel{s[0], s[1], s[2]}), (Pixel{4, 4, 4}));
}

TEST(Frame, GeometryAndChecksum)
{
    Frame f(3, FrameType::kP, 8, 4, 4);
    EXPECT_EQ(f.mabCount(), 32u);
    EXPECT_EQ(f.decodedBytes(), 32u * 48u);
    const auto c0 = f.contentChecksum();
    const Block m = pureMab(Pixel{9, 9, 9});
    f.setMab(7, m);
    EXPECT_NE(f.contentChecksum(), c0);
    EXPECT_TRUE(std::ranges::equal(f.mabBytes(7), m));
    // Mab i is a view into the one plane.
    EXPECT_EQ(f.mabBytes(7).data(), f.plane().data() + 7 * 48);
    EXPECT_EQ(f.mabBase(7), (Pixel{9, 9, 9}));
}

TEST(Gop, PatternParsing)
{
    const GopStructure gop("IBBPBBPBB");
    EXPECT_EQ(gop.period(), 9u);
    EXPECT_EQ(gop.frameType(0), FrameType::kI);
    EXPECT_EQ(gop.frameType(1), FrameType::kB);
    EXPECT_EQ(gop.frameType(3), FrameType::kP);
    EXPECT_EQ(gop.frameType(9), FrameType::kI);
    EXPECT_NEAR(gop.typeFraction(FrameType::kI), 1.0 / 9.0, 1e-12);
    EXPECT_NEAR(gop.typeFraction(FrameType::kB), 6.0 / 9.0, 1e-12);
}

TEST(Gop, FrameZeroForcedI)
{
    const GopStructure gop("PPPPI");
    EXPECT_EQ(gop.frameType(0), FrameType::kI);
}

TEST(GopDeath, RejectsBadPatterns)
{
    EXPECT_DEATH(GopStructure(""), "empty");
    EXPECT_DEATH(GopStructure("IPX"), "bad GOP pattern");
    EXPECT_DEATH(GopStructure("PPP"), "at least one I");
}

TEST(VideoProfile, DerivedQuantities)
{
    VideoProfile p;
    p.width = 256;
    p.height = 144;
    p.mab_dim = 4;
    p.fps = 60;
    EXPECT_EQ(p.mabsX(), 64u);
    EXPECT_EQ(p.mabsY(), 36u);
    EXPECT_EQ(p.mabsPerFrame(), 2304u);
    EXPECT_EQ(p.decodedFrameBytes(), 256u * 144u * 3u);
    EXPECT_EQ(p.framePeriodTicks(),
              sim_clock::s / 60);
    p.validate();
}

TEST(VideoProfileDeath, RejectsBadGeometry)
{
    VideoProfile p;
    p.width = 255; // not a multiple of mab_dim
    EXPECT_DEATH(p.validate(), "multiples of mab_dim");
}

TEST(VideoProfileDeath, RejectsOverfullRates)
{
    VideoProfile p;
    p.intra_match_rate = 0.6;
    p.inter_match_rate = 0.5;
    EXPECT_DEATH(p.validate(), "similarity rates");
}

VideoProfile
testProfile()
{
    VideoProfile p;
    p.key = "T";
    p.width = 64;
    p.height = 32;
    p.frame_count = 20;
    p.seed = 77;
    return p;
}

TEST(SyntheticVideo, DeterministicForSeed)
{
    SyntheticVideo a(testProfile());
    SyntheticVideo b(testProfile());
    while (!a.done()) {
        const Frame fa = a.nextFrame();
        const Frame fb = b.nextFrame();
        ASSERT_EQ(fa.contentChecksum(), fb.contentChecksum());
        ASSERT_EQ(fa.type(), fb.type());
        ASSERT_DOUBLE_EQ(fa.complexity(), fb.complexity());
    }
    EXPECT_TRUE(b.done());
}

TEST(SyntheticVideo, DifferentSeedsDifferentContent)
{
    auto p2 = testProfile();
    p2.seed = 78;
    SyntheticVideo a(testProfile());
    SyntheticVideo b(p2);
    EXPECT_NE(a.nextFrame().contentChecksum(),
              b.nextFrame().contentChecksum());
}

/** @p rate for one content class of a 256x144 video, every other
 * class's rate 0: each later mab of its first frame is that class
 * with probability @p rate, and unique noise otherwise. */
VideoProfile
onlyClass(double VideoProfile::*cls, double rate)
{
    VideoProfile p = testProfile();
    p.width = 256;
    p.height = 144;
    p.intra_match_rate = 0.0;
    p.inter_match_rate = 0.0;
    p.gradient_shift_rate = 0.0;
    p.pure_color_rate = 0.0;
    p.smooth_rate = 0.0;
    p.*cls = rate;
    return p;
}

/** Of the mabs of @p f after the first, the shares equal to an
 * earlier mab, and whose gab alone equals an earlier mab's. */
struct RepeatShares
{
    double exact = 0.0;
    double gab_only = 0.0;
};

RepeatShares
repeatShares(const Frame &f)
{
    const std::uint32_t size = f.mabSizeBytes();
    std::vector<std::uint8_t> gabs;
    for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
        const std::vector<std::uint8_t> gab = gabOf(f.mabBytes(i));
        gabs.insert(gabs.end(), gab.begin(), gab.end());
    }
    const auto gab = [&](std::uint32_t i) {
        return std::span<const std::uint8_t>(gabs.data() + i * size, size);
    };
    std::uint32_t exact = 0;
    std::uint32_t gab_only = 0;
    for (std::uint32_t i = 1; i < f.mabCount(); ++i) {
        bool mab_seen = false;
        bool gab_seen = false;
        for (std::uint32_t j = 0; j < i && !mab_seen; ++j) {
            mab_seen = blockEqual(f.mabBytes(j), f.mabBytes(i));
            gab_seen = gab_seen || blockEqual(gab(j), gab(i));
        }
        exact += mab_seen ? 1 : 0;
        gab_only += !mab_seen && gab_seen ? 1 : 0;
    }
    const double later = f.mabCount() - 1.0;
    return {exact / later, gab_only / later};
}

TEST(SyntheticVideo, IntraCopiesAreExactDuplicates)
{
    // 2303 later mabs: one standard deviation of the share is ~0.01.
    SyntheticVideo v(onlyClass(&VideoProfile::intra_match_rate, 0.4));
    const RepeatShares s = repeatShares(v.nextFrame());
    EXPECT_NEAR(s.exact, 0.4, 0.05);
    EXPECT_EQ(s.gab_only, 0.0);
}

TEST(SyntheticVideo, GradientShiftsMatchOnlyUnderGab)
{
    SyntheticVideo v(onlyClass(&VideoProfile::gradient_shift_rate, 0.4));
    const RepeatShares s = repeatShares(v.nextFrame());
    EXPECT_NEAR(s.gab_only, 0.4, 0.05);
    EXPECT_EQ(s.exact, 0.0);
}

TEST(SyntheticVideo, ComplexityMeanNearOne)
{
    auto p = testProfile();
    p.frame_count = 400;
    SyntheticVideo v(p);
    double sum = 0.0;
    while (!v.done()) {
        sum += v.nextFrame().complexity();
    }
    EXPECT_NEAR(sum / 400.0, 1.0, 0.05);
}

TEST(SyntheticVideo, EncodedBytesLargerForIFrames)
{
    auto p = testProfile();
    p.gop_pattern = "IPPPPPPP";
    p.frame_count = 16;
    SyntheticVideo v(p);
    std::uint64_t i_bytes = 0, p_bytes = 0, i_n = 0, p_n = 0;
    while (!v.done()) {
        const Frame f = v.nextFrame();
        if (f.type() == FrameType::kI) {
            i_bytes += f.encodedBytes();
            ++i_n;
        } else {
            p_bytes += f.encodedBytes();
            ++p_n;
        }
    }
    EXPECT_GT(i_bytes / i_n, 2 * (p_bytes / p_n));
}

TEST(SyntheticVideoDeath, ExhaustionPanics)
{
    auto p = testProfile();
    p.frame_count = 1;
    SyntheticVideo v(p);
    v.nextFrame();
    EXPECT_DEATH(v.nextFrame(), "exhausted");
}

TEST(Workloads, TableHasSixteenDistinctVideos)
{
    const auto &table = workloadTable();
    ASSERT_EQ(table.size(), 16u);
    std::set<std::string> keys;
    std::set<std::uint64_t> seeds;
    for (const auto &p : table) {
        keys.insert(p.key);
        seeds.insert(p.seed);
        p.validate();
    }
    EXPECT_EQ(keys.size(), 16u);
    EXPECT_EQ(seeds.size(), 16u);
    EXPECT_EQ(workload("V8").name, "007 Skyfall");
    EXPECT_EQ(workload("V1").frame_count, 6507u);
}

TEST(WorkloadsDeath, UnknownKeyFatal)
{
    EXPECT_DEATH(workload("V17"), "unknown workload");
}

TEST(Workloads, ScaledCapsFramesAndResolution)
{
    const VideoProfile p = scaledWorkload("V3", 50, 128, 64);
    EXPECT_EQ(p.frame_count, 50u);
    EXPECT_EQ(p.width, 128u);
    EXPECT_EQ(p.height, 64u);
    // No cap requested leaves the count alone.
    EXPECT_EQ(scaledWorkload("V3", 0).frame_count, 3593u);
}

class WorkloadSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(WorkloadSweep, GeneratorHonorsFrameTypeSchedule)
{
    const auto &p0 = workloadTable()[GetParam()];
    VideoProfile p = scaledWorkload(p0.key, 12, 64, 32);
    const GopStructure gop(p.gop_pattern);
    SyntheticVideo v(p);
    for (std::uint64_t i = 0; !v.done(); ++i) {
        EXPECT_EQ(v.nextFrame().type(), gop.frameType(i));
    }
}

INSTANTIATE_TEST_SUITE_P(AllVideos, WorkloadSweep,
                         ::testing::Range(0, 16));

} // namespace
} // namespace vstream
