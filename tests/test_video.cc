/**
 * @file
 * Tests for the video substrate: macroblocks and the gradient
 * transform (the algebra MACH's gab mode rests on), frames, GOP
 * structure, profiles, and the synthetic generator.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/random.hh"
#include "sim/ticks.hh"
#include "video/frame.hh"
#include "video/gop.hh"
#include "video/macroblock.hh"
#include "video/synthetic_video.hh"
#include "video/video_profile.hh"
#include "video/workloads.hh"

namespace vstream
{
namespace
{

Macroblock
randomMab(Random &rng, std::uint32_t dim = 4)
{
    Macroblock m(dim);
    for (auto &b : m.bytes()) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    return m;
}

TEST(Macroblock, SizeAndAccessors)
{
    Macroblock m(4);
    EXPECT_EQ(m.pixelCount(), 16u);
    EXPECT_EQ(m.sizeBytes(), 48u);
    m.setPixel(5, Pixel{10, 20, 30});
    EXPECT_EQ(m.pixel(5), (Pixel{10, 20, 30}));
    EXPECT_EQ(m.pixel(0), (Pixel{0, 0, 0}));
}

TEST(Macroblock, FillMakesPureColor)
{
    Macroblock m(4);
    m.fill(Pixel{1, 2, 3});
    for (std::uint32_t i = 0; i < m.pixelCount(); ++i) {
        EXPECT_EQ(m.pixel(i), (Pixel{1, 2, 3}));
    }
    EXPECT_EQ(m.base(), (Pixel{1, 2, 3}));
}

TEST(Macroblock, GradientOfPureColorIsZero)
{
    Macroblock m(4);
    m.fill(Pixel{200, 100, 50});
    const Macroblock gab = m.gradient();
    for (std::uint8_t b : gab.bytes()) {
        EXPECT_EQ(b, 0);
    }
}

TEST(Macroblock, GradientRoundTripIsLossless)
{
    Random rng(1);
    for (int i = 0; i < 200; ++i) {
        const Macroblock m = randomMab(rng);
        const Macroblock rebuilt =
            Macroblock::fromGradient(m.gradient(), m.base());
        EXPECT_EQ(rebuilt, m) << "iteration " << i;
    }
}

TEST(Macroblock, GradientInvariantUnderShift)
{
    // The core gab property (paper Fig. 8e): shifting every pixel by
    // a constant leaves the gradient block unchanged.
    Random rng(2);
    for (int i = 0; i < 200; ++i) {
        const Macroblock m = randomMab(rng);
        const auto dr = static_cast<std::uint8_t>(rng.next());
        const auto dg = static_cast<std::uint8_t>(rng.next());
        const auto db = static_cast<std::uint8_t>(rng.next());
        const Macroblock shifted = m.shifted(dr, dg, db);
        EXPECT_EQ(m.gradient(), shifted.gradient());
        if (dr || dg || db) {
            // Content differs but gradient digest matches.
            EXPECT_EQ(m.gradientDigest(HashKind::kCrc32),
                      shifted.gradientDigest(HashKind::kCrc32));
        }
    }
}

TEST(Macroblock, ShiftWrapsModulo256)
{
    Macroblock m(2);
    m.fill(Pixel{250, 250, 250});
    const Macroblock s = m.shifted(10, 10, 10);
    EXPECT_EQ(s.pixel(0), (Pixel{4, 4, 4}));
}

TEST(Macroblock, DigestDiscriminatesContent)
{
    Random rng(3);
    const Macroblock a = randomMab(rng);
    Macroblock b = a;
    b.bytes()[17] ^= 1;
    EXPECT_NE(a.digest(HashKind::kCrc32), b.digest(HashKind::kCrc32));
    EXPECT_EQ(a.digest(HashKind::kCrc32),
              Macroblock(a).digest(HashKind::kCrc32));
}

TEST(Macroblock, GradientFirstPixelAlwaysZero)
{
    Random rng(4);
    for (int i = 0; i < 50; ++i) {
        const Macroblock gab = randomMab(rng).gradient();
        EXPECT_EQ(gab.pixel(0), (Pixel{0, 0, 0}));
    }
}

TEST(MacroblockDeath, WrongByteCount)
{
    EXPECT_DEATH(Macroblock(4, std::vector<std::uint8_t>(47)),
                 "byte count");
}

TEST(Frame, GeometryAndChecksum)
{
    Frame f(3, FrameType::kP, 8, 4, 4);
    EXPECT_EQ(f.mabCount(), 32u);
    EXPECT_EQ(f.decodedBytes(), 32u * 48u);
    const auto c0 = f.contentChecksum();
    Macroblock m(4);
    m.fill(Pixel{9, 9, 9});
    f.setMab(7, m.bytes());
    EXPECT_NE(f.contentChecksum(), c0);
    EXPECT_EQ(f.mab(7), m);
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

TEST(SyntheticVideo, IntraCopiesAreExactDuplicates)
{
    SyntheticVideo v(testProfile());
    const Frame f = v.nextFrame();
    std::uint32_t checked = 0;
    for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
        if (f.origin(i) != MabOrigin::kIntraCopy) {
            continue;
        }
        // An intra copy must match some earlier mab exactly.
        bool found = false;
        for (std::uint32_t j = 0; j < i && !found; ++j) {
            found = (f.mab(j) == f.mab(i));
        }
        EXPECT_TRUE(found) << "mab " << i;
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

TEST(SyntheticVideo, GradientShiftsMatchOnlyUnderGab)
{
    auto p = testProfile();
    p.intra_match_rate = 0.0;
    p.inter_match_rate = 0.0;
    p.gradient_shift_rate = 0.5;
    p.pure_color_rate = 0.0;
    p.smooth_rate = 0.0;
    SyntheticVideo v(p);
    const Frame f = v.nextFrame();
    std::uint32_t gab_only = 0;
    for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
        if (f.origin(i) != MabOrigin::kGradientShift) {
            continue;
        }
        bool exact = false, gab = false;
        for (std::uint32_t j = 0; j < i; ++j) {
            exact = exact || f.mab(j) == f.mab(i);
            gab = gab || f.mab(j).gradient() == f.mab(i).gradient();
        }
        EXPECT_TRUE(gab) << "mab " << i;
        if (!exact) {
            ++gab_only;
        }
    }
    EXPECT_GT(gab_only, 0u);
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
