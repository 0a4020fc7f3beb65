/**
 * @file
 * End-to-end pipeline integration and property tests: the paper's
 * headline behaviours (drop elimination, energy ordering, sleep
 * residency, buffer counts) plus internal consistency of the energy
 * and time ledgers.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/video_pipeline.hh"
#include "sim/fault_injector.hh"
#include "sim/trace_event.hh"
#include "video/workloads.hh"

namespace vstream
{
namespace
{

VideoProfile
tinyProfile(std::uint32_t frames = 40)
{
    VideoProfile p;
    p.key = "T";
    p.width = 96;
    p.height = 48;
    p.frame_count = frames;
    p.seed = 4242;
    return p;
}

PipelineResult
run(const VideoProfile &p, Scheme s, std::uint32_t batch = 16)
{
    return simulateScheme(p, SchemeConfig::make(s, batch));
}

TEST(SchemeConfig, CanonicalSettings)
{
    const auto l = SchemeConfig::make(Scheme::kBaseline);
    EXPECT_EQ(l.batch, 1u);
    EXPECT_EQ(l.freq, VdFrequency::kLow);
    EXPECT_FALSE(l.mach);

    const auto r = SchemeConfig::make(Scheme::kRacing);
    EXPECT_EQ(r.batch, 1u);
    EXPECT_EQ(r.freq, VdFrequency::kHigh);

    const auto g = SchemeConfig::make(Scheme::kGab, 8);
    EXPECT_EQ(g.batch, 8u);
    EXPECT_TRUE(g.mach);
    EXPECT_TRUE(g.gradient);
    EXPECT_EQ(g.layout, LayoutKind::kPointerDigest);
    EXPECT_TRUE(g.display_cache);
    EXPECT_TRUE(g.mach_buffer);

    const auto m = SchemeConfig::make(Scheme::kMab);
    EXPECT_TRUE(m.mach);
    EXPECT_FALSE(m.gradient);

    EXPECT_EQ(schemeKey(Scheme::kRaceToSleep), "S");
    EXPECT_EQ(schemeName(Scheme::kBatching), "Batching");
}

TEST(PipelineConfig, FinalizeDerivesRowTimeout)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.finalize();
    // The timeout sits below the low-frequency mab interval.
    const double low_mab_s =
        cfg.profile.mean_decode_frac / cfg.profile.fps /
        cfg.profile.mabsPerFrame();
    EXPECT_NEAR(ticksToSeconds(cfg.dram.row_open_timeout),
                0.75 * low_mab_s, 1e-9);
    EXPECT_GT(cfg.trafficEnergyScale(), 1.0);
}

TEST(PipelineConfigDeath, MachNeedsPointerLayout)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.scheme.mach = true;
    cfg.scheme.layout = LayoutKind::kLinear;
    EXPECT_DEATH(cfg.finalize(), "pointer-based layout");
}

TEST(PipelineConfigDeath, ZeroBatchRejected)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.scheme.batch = 0;
    EXPECT_DEATH(cfg.validate(), "batch size must be >= 1");
}

TEST(PipelineConfigDeath, MachBufferNeedsPointerDigestLayout)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.scheme.mach = true;
    cfg.scheme.mach_buffer = true;
    cfg.scheme.layout = LayoutKind::kPointer;
    EXPECT_DEATH(cfg.validate(), "pointer\\+digest layout");
}

TEST(PipelineConfigDeath, ZeroPrerollRejected)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.preroll_frames = 0;
    EXPECT_DEATH(cfg.validate(), "pre-rolled frame");
}

TEST(Pipeline, BatchingEliminatesDrops)
{
    // Give the baseline a tail heavy enough to drop frames.
    VideoProfile p = tinyProfile(60);
    p.mean_decode_frac = 0.80;
    p.complexity_sigma = 0.25;

    const auto base = run(p, Scheme::kBaseline);
    const auto batched = run(p, Scheme::kBatching);
    EXPECT_GT(base.drops, 0u);
    EXPECT_EQ(batched.drops, 0u);
}

TEST(Pipeline, RaceToSleepEliminatesDrops)
{
    VideoProfile p = tinyProfile(60);
    p.mean_decode_frac = 0.85;
    p.complexity_sigma = 0.25;
    EXPECT_EQ(run(p, Scheme::kRaceToSleep).drops, 0u);
    EXPECT_EQ(run(p, Scheme::kGab).drops, 0u);
}

TEST(Pipeline, EnergyBreakdownSumsToTotal)
{
    const auto r = run(tinyProfile(), Scheme::kGab);
    const auto &e = r.energy;
    const double sum = e.dc + e.mem_background + e.vd_processing +
                       e.sleep + e.short_slack + e.mem_burst +
                       e.mem_act_pre + e.transition + e.mach_overhead;
    EXPECT_NEAR(e.total(), sum, 1e-12);
    EXPECT_GT(e.total(), 0.0);
}

TEST(Pipeline, SchemeEnergyOrdering)
{
    // The paper's headline ordering: G < M < S < L, and R > L.
    const VideoProfile p = scaledWorkload("V8", 60, 128, 64);
    const double l = run(p, Scheme::kBaseline).totalEnergy();
    const double r = run(p, Scheme::kRacing).totalEnergy();
    const double s = run(p, Scheme::kRaceToSleep).totalEnergy();
    const double m = run(p, Scheme::kMab).totalEnergy();
    const double g = run(p, Scheme::kGab).totalEnergy();

    EXPECT_LT(g, m);
    EXPECT_LT(m, s);
    EXPECT_LT(s, l);
    EXPECT_GT(r, l); // racing alone loses
}

TEST(Pipeline, BatchingRaisesDeepSleepResidency)
{
    const VideoProfile p = tinyProfile(60);
    const auto base = run(p, Scheme::kBaseline);
    const auto rts = run(p, Scheme::kRaceToSleep);
    EXPECT_GT(rts.s3Residency(), 2.0 * base.s3Residency());
    EXPECT_GT(rts.s3Residency(), 0.3);
}

TEST(Pipeline, BatchingCutsTransitionEnergy)
{
    const VideoProfile p = tinyProfile(60);
    const auto base = run(p, Scheme::kBaseline);
    const auto batched = run(p, Scheme::kBatching);
    EXPECT_LT(batched.energy.transition,
              0.5 * base.energy.transition);
    EXPECT_LT(batched.sleep_events, base.sleep_events);
}

TEST(Pipeline, RacingSpeedsDecodingUp)
{
    const VideoProfile p = tinyProfile(40);
    const auto low = run(p, Scheme::kBaseline);
    const auto high = run(p, Scheme::kRacing);
    EXPECT_LT(high.vd_time.execution, low.vd_time.execution);
    EXPECT_GT(high.vd_time.execution,
              Tick(0.4 * low.vd_time.execution));
    // Higher P-state power though.
    EXPECT_GT(high.energy.vd_processing, low.energy.vd_processing);
}

TEST(Pipeline, RacingReducesActPreEnergy)
{
    const VideoProfile p = tinyProfile(60);
    const auto low = run(p, Scheme::kBaseline);
    const auto high = run(p, Scheme::kRacing);
    EXPECT_LT(high.energy.mem_act_pre, low.energy.mem_act_pre);
}

TEST(Pipeline, GabSavesMoreWritebackThanMab)
{
    const VideoProfile p = scaledWorkload("V8", 48, 128, 64);
    const auto m = run(p, Scheme::kMab);
    const auto g = run(p, Scheme::kGab);
    EXPECT_GT(g.writeback.savings(48), m.writeback.savings(48));
    EXPECT_GT(m.writeback.savings(48), 0.0);
    EXPECT_GT(g.mach.hits(), m.mach.hits());
}

TEST(Pipeline, MachSchemesCutDisplayTraffic)
{
    const VideoProfile p = scaledWorkload("V8", 48, 128, 64);
    const auto s = run(p, Scheme::kRaceToSleep);
    const auto g = run(p, Scheme::kGab);
    EXPECT_LT(g.display.dram_requests, s.display.dram_requests);
    EXPECT_GT(g.display.digest_records, 0u);
    EXPECT_GT(g.mach_buffer_hits, 0u);
    EXPECT_GT(g.display_cache_hits, 0u);
}

TEST(Pipeline, BufferCountsFollowScheme)
{
    const VideoProfile p = tinyProfile(60);
    const auto base = run(p, Scheme::kBaseline);
    const auto rts = run(p, Scheme::kRaceToSleep, 16);
    const auto gab = run(p, Scheme::kGab, 16);
    // Triple buffering in the baseline.
    EXPECT_LE(base.peak_buffers, 3u);
    // Batching needs roughly batch+2 buffers...
    EXPECT_GT(rts.peak_buffers, 8u);
    // ...plus the MACH reference window.
    EXPECT_GT(gab.peak_buffers, rts.peak_buffers);
}

TEST(Pipeline, SmallerBatchesNeedFewerBuffers)
{
    const VideoProfile p = tinyProfile(60);
    const auto b4 = run(p, Scheme::kRaceToSleep, 4);
    const auto b16 = run(p, Scheme::kRaceToSleep, 16);
    EXPECT_LT(b4.peak_buffers, b16.peak_buffers);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    const VideoProfile p = tinyProfile(30);
    const auto a = run(p, Scheme::kGab);
    const auto b = run(p, Scheme::kGab);
    EXPECT_DOUBLE_EQ(a.totalEnergy(), b.totalEnergy());
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.dram_total.activations, b.dram_total.activations);
    EXPECT_EQ(a.writeback.totalBytes(), b.writeback.totalBytes());
}

TEST(Pipeline, TraceHoldsExactlyTheModelTracks)
{
    TraceEventSink sink;
    PipelineConfig cfg;
    cfg.profile = tinyProfile(8);
    cfg.scheme = SchemeConfig::make(Scheme::kGab, 4);
    cfg.trace = &sink;
    VideoPipeline(std::move(cfg)).run();

    // Each track writes one thread_name record, in track-id order.
    std::ostringstream os;
    sink.writeJson(os);
    const std::string json = os.str();
    const std::string key = "\"name\":\"thread_name\",\"args\":{\"name\":\"";
    std::vector<std::string> tracks;
    for (auto at = json.find(key); at != std::string::npos;
         at = json.find(key, at)) {
        at += key.size();
        tracks.push_back(json.substr(at, json.find('"', at) - at));
    }
    EXPECT_EQ(tracks, (std::vector<std::string>{"vd.decode", "vd.power",
                                                "dc.scanout", "dram"}));
    EXPECT_EQ(sink.trackCount(), tracks.size());
}

TEST(Pipeline, DisplayVerifiedLossless)
{
    // No collisions expected at this tiny scale; every displayed
    // frame must be byte-identical to the decoded one.
    for (Scheme s : {Scheme::kBaseline, Scheme::kRaceToSleep,
                     Scheme::kMab, Scheme::kGab}) {
        const auto r = run(tinyProfile(30), s);
        EXPECT_TRUE(r.all_verified ||
                    r.mach.collisions_undetected > 0)
            << schemeKey(s);
    }
}

TEST(Pipeline, FrameRecordsCoverAllFrames)
{
    const auto r = run(tinyProfile(25), Scheme::kBaseline);
    ASSERT_EQ(r.frame_records.size(), 25u);
    for (const auto &rec : r.frame_records) {
        EXPECT_GT(rec.exec, 0u);
        EXPECT_GE(rec.finish, rec.start);
        EXPECT_GT(rec.e_exec, 0.0);
    }
    EXPECT_EQ(r.frames, 25u);
    EXPECT_GT(r.span, 0u);
}

TEST(Pipeline, VdTimeFitsWithinSpan)
{
    const auto r = run(tinyProfile(30), Scheme::kRaceToSleep);
    EXPECT_LE(r.vd_time.total(), r.span + r.span / 10);
    EXPECT_GT(r.vd_time.s3, 0u);
}

TEST(Pipeline, CoMachEliminatesUndetectedCollisions)
{
    // Force collisions by decoding lots of content under GAB; then
    // verify CO-MACH's deep hash removes them (Sec. 6.3).
    VideoProfile p = scaledWorkload("V15", 80, 128, 64);

    SchemeConfig with = SchemeConfig::make(Scheme::kGab);
    with.co_mach = true;
    const auto r = simulateScheme(p, with);
    EXPECT_EQ(r.mach.collisions_undetected, 0u);
    EXPECT_TRUE(r.all_verified);
}

TEST(Pipeline, DccOnTopOfGabShrinksWriteback)
{
    const VideoProfile p = scaledWorkload("V8", 40, 128, 64);
    SchemeConfig plain = SchemeConfig::make(Scheme::kGab);
    SchemeConfig dcc = plain;
    dcc.dcc = true;
    const auto a = simulateScheme(p, plain);
    const auto b = simulateScheme(p, dcc);
    EXPECT_LT(b.writeback.data_bytes, a.writeback.data_bytes);
    EXPECT_GT(b.writeback.dcc_saved_bytes, 0u);
    EXPECT_TRUE(b.all_verified || b.mach.collisions_undetected > 0);
}

/** FNV-1a of the stats JSON and the MACH and writeback counters of a
 * G playback of @p profile whose MACH array injects digest collisions
 * (decided per mab, at each block's decode tick). */
std::uint64_t
collisionDigest(const VideoProfile &profile, bool verify_on_hit)
{
    PipelineConfig cfg;
    cfg.profile = profile;
    cfg.scheme = SchemeConfig::make(Scheme::kGab);
    cfg.mach.verify_on_hit = verify_on_hit;
    FaultRule rule;
    rule.cls = FaultClass::kDigestCollision;
    rule.probability = 0.05;
    cfg.faults.rules.push_back(rule);
    std::ostringstream json;
    cfg.stats_json = &json;
    const PipelineResult r = VideoPipeline(std::move(cfg)).run();
    EXPECT_GT(r.mach.injected_collisions + r.mach.false_hits, 0u);

    std::ostringstream os;
    os.precision(17);
    const MachStats &m = r.mach;
    const WritebackTotals &w = r.writeback;
    os << json.str() << m.lookups << ' ' << m.hits() << ' '
       << m.collisions_undetected << ' ' << m.inserts << ' '
       << m.injected_collisions << ' ' << m.false_hits << ' '
       << w.unique_blocks << ' ' << w.totalBytes() << ' '
       << r.totalEnergy() << ' ' << r.all_verified;
    for (const double share : r.top_match_shares) {
        os << ' ' << share;
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : os.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(Pipeline, InjectedCollisionsArePinned)
{
    // Digests of the pipeline that looked up and inserted every mab
    // inside writeMab(): a streamed playback (prepared on the helper
    // thread) and a shared-content one verifying every hit.
    EXPECT_EQ(collisionDigest(scaledWorkload("V8", 40, 512, 288), false),
              0xbdcbe6c84177882bULL);
    EXPECT_EQ(collisionDigest(scaledWorkload("V8", 40, 256, 144), true),
              0xb407c2bbbd7f4dc1ULL);
}

TEST(Pipeline, RunTwicePanics)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile(10);
    VideoPipeline pipe(cfg);
    pipe.run();
    EXPECT_DEATH(pipe.run(), "only simulate once");
}

class BatchSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BatchSweep, DrainingKeepsSleepEventsRare)
{
    // With drain-mode batching the decoder wakes per network chunk,
    // not per frame: far fewer sleep transitions than the baseline's
    // one-per-frame regime, for every batch size.
    const VideoProfile p = tinyProfile(64);
    const auto base = run(p, Scheme::kBaseline);
    const auto r = run(p, Scheme::kBatching, GetParam());
    RecordProperty("sleepEvents",
                   static_cast<int>(r.sleep_events));
    // A 2-deep batch with its 4-slot pool still wakes almost per
    // frame pair; from 4-deep on the decoder sleeps per batch.
    if (GetParam() >= 4) {
        EXPECT_LT(r.sleep_events + 4, base.sleep_events);
    } else {
        EXPECT_LE(r.sleep_events, base.sleep_events + 4);
    }
    EXPECT_LT(r.energy.transition, base.energy.transition);
    // Deeper batches eliminate drops outright; even a 2-deep batch
    // must not drop more than the baseline.
    if (GetParam() >= 4) {
        EXPECT_EQ(r.drops, 0u);
    } else {
        EXPECT_LE(r.drops, base.drops);
    }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSweep,
                         ::testing::Values(2u, 4u, 8u, 16u));

class SchemeSweep : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(SchemeSweep, LedgersConsistent)
{
    const auto r = run(tinyProfile(30), GetParam());
    // DRAM counters: vd + dc never exceed the total.
    EXPECT_LE(r.dram_vd.activations + r.dram_dc.activations,
              r.dram_total.activations);
    EXPECT_GT(r.dram_total.read_bursts, 0u);
    EXPECT_GT(r.dram_total.write_bursts, 0u);
    // Energy categories non-negative.
    EXPECT_GE(r.energy.sleep, 0.0);
    EXPECT_GE(r.energy.transition, 0.0);
    EXPECT_GE(r.energy.short_slack, 0.0);
    EXPECT_GT(r.energy.dc, 0.0);
    EXPECT_GT(r.energy.mem_burst, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Values(Scheme::kBaseline, Scheme::kBatching,
                      Scheme::kRacing, Scheme::kRaceToSleep,
                      Scheme::kMab, Scheme::kGab));

} // namespace
} // namespace vstream
