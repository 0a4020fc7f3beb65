/**
 * @file
 * Tests for the video-decoder IP model: cost-model calibration,
 * decode timing, memory traffic, and frequency scaling.
 */

#include <gtest/gtest.h>

#include "core/frame_buffer_manager.hh"
#include "core/writeback_stage.hh"
#include "decoder/decode_cost_model.hh"
#include "decoder/video_decoder.hh"
#include "video/synthetic_video.hh"

namespace vstream
{
namespace
{

VideoProfile
tinyProfile()
{
    VideoProfile p;
    p.key = "D";
    p.width = 96;
    p.height = 48;
    p.frame_count = 8;
    p.seed = 31;
    return p;
}

struct DecoderRig
{
    MemorySystem mem;
    FrameBufferManager fbm;
    VideoDecoder vd;
    LinearWriteback wb;

    explicit DecoderRig(const VideoProfile &p,
                        const DecoderConfig &cfg = {})
        : mem("mem", nullptr, DramConfig{}),
          fbm(mem, p.mabsPerFrame(), p.mab_dim * p.mab_dim * 3, 0),
          vd("vd", nullptr, mem, cfg, p), wb(mem, fbm)
    {
    }
};

TEST(DecodeCostModel, CalibratedToMeanDecodeFraction)
{
    const VideoProfile p = tinyProfile();
    const VdPowerConfig power;
    const DecodeCostModel cost(p, power);

    // Mean frame compute time at the low frequency must equal the
    // profile's target fraction of the frame period.
    const double period_s = 1.0 / p.fps;
    EXPECT_NEAR(cost.meanFrameSeconds(VdFrequency::kLow),
                p.mean_decode_frac * period_s, 1e-12);
    // Doubling the clock halves the compute time.
    EXPECT_NEAR(cost.meanFrameSeconds(VdFrequency::kHigh),
                0.5 * cost.meanFrameSeconds(VdFrequency::kLow),
                1e-12);
    EXPECT_GT(cost.baseCycles(), 0.0);
}

TEST(DecodeCostModel, TypeWeightsOrdered)
{
    const VideoProfile p = tinyProfile();
    const DecodeCostModel cost(p, VdPowerConfig{});
    const double i = cost.mabCycles(FrameType::kI, 1.0, 1.0);
    const double pp = cost.mabCycles(FrameType::kP, 1.0, 1.0);
    const double b = cost.mabCycles(FrameType::kB, 1.0, 1.0);
    EXPECT_GT(i, pp);
    EXPECT_GT(pp, b);
    // Complexity and jitter multiply in.
    EXPECT_DOUBLE_EQ(cost.mabCycles(FrameType::kP, 2.0, 1.0), 2 * pp);
    EXPECT_DOUBLE_EQ(cost.mabCycles(FrameType::kP, 1.0, 0.5),
                     0.5 * pp);
}

TEST(DecodeCostModel, MeanMabSecondsConsistent)
{
    const VideoProfile p = tinyProfile();
    const DecodeCostModel cost(p, VdPowerConfig{});
    EXPECT_NEAR(cost.meanMabSeconds(VdFrequency::kLow) *
                    p.mabsPerFrame(),
                cost.meanFrameSeconds(VdFrequency::kLow), 1e-15);
}

TEST(VideoDecoder, DecodeTimeNearCalibration)
{
    const VideoProfile p = tinyProfile();
    DecoderRig rig(p);
    SyntheticVideo video(p);

    double total_ms = 0.0;
    Tick t = 0;
    const BufferSlot *prev = nullptr;
    FrameLayout layout;
    for (int i = 0; i < 8; ++i) {
        const Frame f = video.nextFrame();
        BufferSlot &slot = rig.fbm.acquire(i);
        const FrameDecodeResult r =
            rig.vd.decodeFrame(f, rig.wb, slot, prev, t, layout);
        rig.wb.finishFrame(r.finish);
        total_ms += ticksToMs(r.busy());
        t = r.finish;
        prev = &slot;
    }
    // Mean 0.72 * 16.67 ms = 12 ms plus memory stalls.
    const double mean = total_ms / 8.0;
    EXPECT_GT(mean, 9.0);
    EXPECT_LT(mean, 17.0);
}

TEST(VideoDecoder, HighFrequencyRoughlyHalvesComputeTime)
{
    const VideoProfile p = tinyProfile();
    SyntheticVideo video_a(p), video_b(p);

    DecoderRig low(p);
    DecoderRig high(p);
    high.vd.setFrequency(VdFrequency::kHigh);
    EXPECT_EQ(high.vd.frequency(), VdFrequency::kHigh);

    const Frame fa = video_a.nextFrame();
    const Frame fb = video_b.nextFrame();

    BufferSlot &sa = low.fbm.acquire(0);
    BufferSlot &sb = high.fbm.acquire(0);
    FrameLayout la, lb;
    const auto ra = low.vd.decodeFrame(fa, low.wb, sa, nullptr, 0, la);
    low.wb.finishFrame(ra.finish);
    const auto rb =
        high.vd.decodeFrame(fb, high.wb, sb, nullptr, 0, lb);
    high.wb.finishFrame(rb.finish);

    const double ratio = static_cast<double>(rb.busy()) /
                         static_cast<double>(ra.busy());
    EXPECT_GT(ratio, 0.45);
    EXPECT_LT(ratio, 0.65); // memory stalls keep it above 0.5
}

TEST(VideoDecoder, DeterministicAcrossInstances)
{
    const VideoProfile p = tinyProfile();
    SyntheticVideo va(p), vb(p);
    DecoderRig a(p), b(p);
    const Frame fa = va.nextFrame();
    const Frame fb = vb.nextFrame();
    BufferSlot &sa = a.fbm.acquire(0);
    BufferSlot &sb = b.fbm.acquire(0);
    FrameLayout la, lb;
    const auto ra = a.vd.decodeFrame(fa, a.wb, sa, nullptr, 0, la);
    const auto rb = b.vd.decodeFrame(fb, b.wb, sb, nullptr, 0, lb);
    EXPECT_EQ(ra.finish, rb.finish);
    EXPECT_EQ(ra.mem_stall, rb.mem_stall);
}

TEST(VideoDecoder, PFramesIssueReferenceReads)
{
    VideoProfile p = tinyProfile();
    p.gop_pattern = "IPPPPPPP";
    SyntheticVideo video(p);
    DecoderRig rig(p);

    const Frame f0 = video.nextFrame(); // I
    const Frame f1 = video.nextFrame(); // P

    BufferSlot &s0 = rig.fbm.acquire(0);
    FrameLayout l0, l1;
    const auto r0 = rig.vd.decodeFrame(f0, rig.wb, s0, nullptr, 0, l0);
    rig.wb.finishFrame(r0.finish);
    EXPECT_EQ(r0.mc_reads, 0u); // I frame: no motion compensation

    BufferSlot &s1 = rig.fbm.acquire(1);
    const auto r1 =
        rig.vd.decodeFrame(f1, rig.wb, s1, &s0, r0.finish, l1);
    rig.wb.finishFrame(r1.finish);
    EXPECT_EQ(r1.mc_reads, f1.mabCount());
    EXPECT_GT(r1.mem_stall, 0u);
}

TEST(VideoDecoder, EncodedBytesReadMatchFrame)
{
    const VideoProfile p = tinyProfile();
    SyntheticVideo video(p);
    DecoderRig rig(p);
    const Frame f = video.nextFrame();
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    const auto r =
        rig.vd.decodeFrame(f, rig.wb, slot, nullptr, 0, layout);
    rig.wb.finishFrame(r.finish);
    EXPECT_EQ(r.encoded_bytes, f.encodedBytes());
    EXPECT_EQ(r.mabs, f.mabCount());
    // The VD cache saw traffic.
    EXPECT_GT(rig.vd.cache().hitCount() + rig.vd.cache().missCount(),
              0u);
}

TEST(VideoDecoder, MemStallWithinBusyTime)
{
    const VideoProfile p = tinyProfile();
    SyntheticVideo video(p);
    DecoderRig rig(p);
    const Frame f = video.nextFrame();
    BufferSlot &slot = rig.fbm.acquire(0);
    FrameLayout layout;
    const auto r =
        rig.vd.decodeFrame(f, rig.wb, slot, nullptr, 1000, layout);
    EXPECT_GE(r.start, 1000u);
    EXPECT_LE(r.mem_stall, r.busy());
    rig.wb.finishFrame(r.finish);
}

TEST(DecoderConfigDeath, RejectsBadJitter)
{
    DecoderConfig cfg;
    cfg.cost.jitter = 1.5;
    EXPECT_DEATH(cfg.validate(), "jitter");
}

TEST(DecoderConfig, DefaultsValid)
{
    DecoderConfig cfg;
    cfg.validate();
    EXPECT_EQ(cfg.cache.size_bytes, 64u * 1024u);
}

class FrequencySweep : public ::testing::TestWithParam<VdFrequency>
{
};

TEST_P(FrequencySweep, TrafficVolumeIndependentOfFrequency)
{
    // The same frame decoded at either frequency touches the same
    // addresses in the same order (timing differs, traffic doesn't).
    auto run = [](VdFrequency freq) {
        const VideoProfile p = tinyProfile();
        SyntheticVideo video(p);
        const Frame f = video.nextFrame();
        DecoderRig rig(p);
        rig.vd.setFrequency(freq);
        BufferSlot &slot = rig.fbm.acquire(0);
        FrameLayout layout;
        const auto r =
            rig.vd.decodeFrame(f, rig.wb, slot, nullptr, 0, layout);
        rig.wb.finishFrame(r.finish);
        return rig.mem.energy().counts(Requester::kVideoDecoder);
    };
    const auto ref = run(VdFrequency::kLow);
    const auto got = run(GetParam());
    EXPECT_EQ(got.read_bursts, ref.read_bursts);
    EXPECT_EQ(got.write_bursts, ref.write_bursts);
    EXPECT_EQ(got.bytes_written, ref.bytes_written);
    EXPECT_GT(got.bytes_written, 0u);
}

INSTANTIATE_TEST_SUITE_P(Freqs, FrequencySweep,
                         ::testing::Values(VdFrequency::kLow,
                                           VdFrequency::kHigh));

} // namespace
} // namespace vstream
