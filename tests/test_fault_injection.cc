/**
 * @file
 * Fault-injection subsystem tests: spec parsing, schedule
 * determinism, graceful degradation across every pipeline layer, and
 * the zero-cost-when-off guarantee.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/video_pipeline.hh"
#include "sim/fault_injector.hh"
#include "video/arrival_model.hh"

namespace vstream
{
namespace
{

VideoProfile
tinyProfile(std::uint32_t frames = 48)
{
    VideoProfile p;
    p.key = "FI";
    p.width = 96;
    p.height = 48;
    p.frame_count = frames;
    p.seed = 1337;
    return p;
}

PipelineConfig
faultyConfig(std::uint32_t frames = 48)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile(frames);
    cfg.scheme = SchemeConfig::make(Scheme::kRaceToSleep);
    cfg.arrival.enabled = true;
    cfg.arrival.bandwidth_mbps = 2.0;
    cfg.arrival.jitter_frac = 0.3;
    cfg.arrival.seed = 99;
    cfg.faults.seed = 7;
    return cfg;
}

// ---- rule parsing ----------------------------------------------------

TEST(FaultRule, ParsesFullSpec)
{
    const FaultRule r = parseFaultRule(
        FaultClass::kNetworkStall,
        "p=0.25,from=200ms,until=1.5s,max=3,len=250ms");
    EXPECT_EQ(r.cls, FaultClass::kNetworkStall);
    EXPECT_DOUBLE_EQ(r.probability, 0.25);
    EXPECT_EQ(r.from, 200 * sim_clock::ms);
    EXPECT_EQ(r.until, 1500 * sim_clock::ms);
    EXPECT_EQ(r.max_count, 3u);
    EXPECT_EQ(r.duration, 250 * sim_clock::ms);
}

TEST(FaultRule, AtIsOneShotShorthand)
{
    const FaultRule r =
        parseFaultRule(FaultClass::kDramTimeout, "at=1.2s");
    EXPECT_DOUBLE_EQ(r.probability, 1.0);
    EXPECT_EQ(r.max_count, 1u);
    EXPECT_EQ(r.from, 1200 * sim_clock::ms);
    EXPECT_EQ(r.until, maxTick);
}

TEST(FaultRule, BareNumbersAreMilliseconds)
{
    const FaultRule r = parseFaultRule(FaultClass::kNetworkStall,
                                       "at=250,len=100");
    EXPECT_EQ(r.from, 250 * sim_clock::ms);
    EXPECT_EQ(r.duration, 100 * sim_clock::ms);
}

TEST(FaultRuleDeath, RejectsMalformedSpecs)
{
    EXPECT_DEATH(
        parseFaultRule(FaultClass::kNetworkStall, "p=1.5"),
        "bad probability");
    EXPECT_DEATH(
        parseFaultRule(FaultClass::kNetworkStall, "nonsense"),
        "not key=value");
    EXPECT_DEATH(
        parseFaultRule(FaultClass::kNetworkStall, "zzz=3"),
        "unknown key");
    EXPECT_DEATH(
        parseFaultRule(FaultClass::kNetworkStall,
                       "from=2s,until=1s"),
        "empty fault window");
    EXPECT_DEATH(
        parseFaultRule(FaultClass::kNetworkStall, "at=1parsec"),
        "unknown time unit");
}

TEST(FaultRule, TryParseAcceptsWhatParseAccepts)
{
    FaultRule rule;
    std::string error;
    ASSERT_TRUE(tryParseFaultRule(
        FaultClass::kDramTimeout,
        "p=0.01,from=200ms,until=1.5s,max=3,len=250ms", rule, error))
        << error;
    EXPECT_DOUBLE_EQ(rule.probability, 0.01);
    EXPECT_EQ(rule.from, 200 * sim_clock::ms);
    EXPECT_EQ(rule.until, 1500 * sim_clock::ms);
    EXPECT_EQ(rule.max_count, 3u);
    EXPECT_EQ(rule.duration, 250 * sim_clock::ms);
}

TEST(FaultRule, AtWithExplicitMaxKeepsIt)
{
    // Regression: the one-shot defaulting used to clobber an
    // explicit max= because parsing max never recorded it was seen.
    FaultRule rule;
    std::string error;
    ASSERT_TRUE(tryParseFaultRule(FaultClass::kNetworkStall,
                                  "at=5ms,max=3,len=1ms", rule, error))
        << error;
    EXPECT_EQ(rule.max_count, 3u);
    EXPECT_DOUBLE_EQ(rule.probability, 1.0); // still defaulted
}

TEST(FaultRule, TryParseRejectsHostileSpecs)
{
    // Every spec here used to either crash the process (fine for
    // config files, useless for fuzzing) or worse: slip through the
    // old validation into undefined behaviour at the float-to-Tick
    // cast, or clobber max_count via strtoull's quiet failures.
    const char *hostile[] = {
        "p=nan",     // NaN passed "p < 0 || p > 1"
        "p=inf",
        "at=nan",    // NaN passed "x < 0", then UB at the cast
        "at=inf",
        "from=1e300s",       // finite, but 1e300 * scale > 2^63: UB
        "len=999999999999s", // plausible-looking, still past 2^63
        "max=",      // strtoull: quiet 0
        "max=abc",   // strtoull: quiet 0
        "max=-3",    // strtoull: wraps to 2^64 - 3
        "max=18446744073709551616", // overflow clamps with errno
        "max=3x",    // trailing junk
        "p=0.5,p",   // field with no '='
        "until=",    // empty value
    };
    for (const char *spec : hostile) {
        FaultRule rule;
        std::string error;
        EXPECT_FALSE(tryParseFaultRule(FaultClass::kNetworkStall,
                                       spec, rule, error))
            << "accepted hostile spec: " << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

TEST(FaultRule, TryParseBoundaryTimes)
{
    FaultRule rule;
    std::string error;
    // The largest second count whose tick product stays below 2^63
    // with ps resolution (1e12 ticks/s): 9.2e6 s is in range...
    ASSERT_TRUE(tryParseFaultRule(FaultClass::kNetworkStall,
                                  "at=9000000s,len=1ms", rule, error))
        << error;
    // ...while 1e7 s crosses 2^63 ticks and must be rejected, not
    // wrapped or UB'd.
    EXPECT_FALSE(tryParseFaultRule(FaultClass::kNetworkStall,
                                   "at=10000000s,len=1ms", rule,
                                   error));
}

TEST(FaultConfigDeath, StallRulesNeedDuration)
{
    FaultConfig cfg;
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kNetworkStall, "p=0.5"));
    EXPECT_DEATH(cfg.validate(), "need a duration");
}

// ---- injector determinism --------------------------------------------

TEST(FaultInjector, SameSeedSameSchedule)
{
    FaultConfig cfg;
    cfg.seed = 42;
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDramTimeout, "p=0.1"));
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDigestCollision, "p=0.05"));

    FaultInjector a("a", cfg);
    FaultInjector b("b", cfg);
    for (Tick t = 0; t < 2000; ++t) {
        ASSERT_EQ(a.shouldInject(FaultClass::kDramTimeout, t),
                  b.shouldInject(FaultClass::kDramTimeout, t));
        ASSERT_EQ(a.shouldInject(FaultClass::kDigestCollision, t),
                  b.shouldInject(FaultClass::kDigestCollision, t));
    }
    EXPECT_EQ(a.injected(FaultClass::kDramTimeout),
              b.injected(FaultClass::kDramTimeout));
    EXPECT_GT(a.injected(FaultClass::kDramTimeout), 0u);
}

TEST(FaultInjector, ClassStreamsAreIndependent)
{
    // Drawing for one class must not perturb another class's
    // schedule: run the dram stream alone, then interleaved with
    // digest draws, and require identical dram decisions.
    FaultConfig cfg;
    cfg.seed = 42;
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDramTimeout, "p=0.1"));
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDigestCollision, "p=0.5"));

    FaultInjector alone("alone", cfg);
    FaultInjector mixed("mixed", cfg);
    std::vector<bool> want, got;
    for (Tick t = 0; t < 1000; ++t) {
        want.push_back(
            alone.shouldInject(FaultClass::kDramTimeout, t));
        mixed.shouldInject(FaultClass::kDigestCollision, t);
        got.push_back(
            mixed.shouldInject(FaultClass::kDramTimeout, t));
    }
    EXPECT_EQ(want, got);
}

TEST(FaultInjector, PerClassStreamsArePinned)
{
    // The first 64 draws of each class's stream for a fixed seed,
    // one bit per p=0.5 opportunity.  The streams are seeded in
    // class order from one SplitMix chain, so these masks move if a
    // class is added, removed or reordered ahead of them.
    FaultConfig cfg;
    cfg.seed = 42;
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kNetworkStall, "p=0.5,len=1ms"));
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDigestCollision, "p=0.5"));
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDramTimeout, "p=0.5"));
    FaultInjector inj("inj", cfg);

    const auto draws = [&inj](FaultClass c) {
        std::uint64_t mask = 0;
        for (unsigned i = 0; i < 64; ++i) {
            if (inj.shouldInject(c, i)) {
                mask |= std::uint64_t(1) << i;
            }
        }
        return mask;
    };
    EXPECT_EQ(draws(FaultClass::kNetworkStall), 0x86771daafb5a28c3u);
    EXPECT_EQ(draws(FaultClass::kDigestCollision), 0x1c04a7246751fe02u);
    EXPECT_EQ(draws(FaultClass::kDramTimeout), 0x8fd97f16b87f33ceu);
}

TEST(FaultInjector, ConsultsForAClassWithoutRulesChangeNothing)
{
    // The pipeline hands the injector only to layers whose class has
    // a rule.  That is exact because a consult for a class with no
    // rule draws nothing and counts nothing: interleaving such
    // consults must leave the dram schedule, the per-class counts
    // and the totals as if they never happened.
    FaultConfig cfg;
    cfg.seed = 7;
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDramTimeout, "p=0.3,max=40"));
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kNetworkStall, "p=0.2,len=5ms"));

    FaultInjector alone("alone", cfg);
    FaultInjector mixed("mixed", cfg);
    std::vector<bool> want, got;
    for (Tick t = 0; t < 1000; ++t) {
        want.push_back(alone.shouldInject(FaultClass::kDramTimeout, t));
        EXPECT_FALSE(mixed.shouldInject(FaultClass::kDigestCollision, t));
        got.push_back(mixed.shouldInject(FaultClass::kDramTimeout, t));
        if (t % 10 == 0) {
            ASSERT_EQ(alone.injectStall(t), mixed.injectStall(t)) << t;
        }
    }
    EXPECT_EQ(want, got);
    for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
        const auto cls = static_cast<FaultClass>(c);
        EXPECT_EQ(mixed.injected(cls), alone.injected(cls))
            << faultClassName(cls);
    }
    EXPECT_EQ(mixed.injected(FaultClass::kDramTimeout), 40u);
    EXPECT_GT(mixed.injected(FaultClass::kNetworkStall), 0u);
    EXPECT_EQ(mixed.totals().injected, alone.totals().injected);
    EXPECT_EQ(mixed.totals().recovered, alone.totals().recovered);
    EXPECT_EQ(mixed.totals().abandoned, alone.totals().abandoned);
}

TEST(FaultInjector, WindowAndCapRespected)
{
    FaultConfig cfg;
    cfg.rules.push_back(parseFaultRule(
        FaultClass::kDramTimeout, "p=1,from=100,until=200,max=5"));
    FaultInjector inj("inj", cfg);

    EXPECT_FALSE(
        inj.shouldInject(FaultClass::kDramTimeout, 0));
    EXPECT_FALSE(inj.shouldInject(FaultClass::kDramTimeout,
                                  99 * sim_clock::ms));
    std::uint64_t fired = 0;
    for (Tick t = 100 * sim_clock::ms; t < 200 * sim_clock::ms;
         t += sim_clock::ms) {
        if (inj.shouldInject(FaultClass::kDramTimeout, t)) {
            ++fired;
        }
    }
    EXPECT_EQ(fired, 5u); // max= cap, not the window, limits it
    EXPECT_FALSE(inj.shouldInject(FaultClass::kDramTimeout,
                                  150 * sim_clock::ms));
    EXPECT_EQ(inj.injected(FaultClass::kDramTimeout), 5u);
}

TEST(FaultInjector, DisabledInjectorIsInert)
{
    FaultInjector inj("inj", FaultConfig{});
    EXPECT_FALSE(inj.enabled());
    EXPECT_FALSE(inj.shouldInject(FaultClass::kDramTimeout, 123));
    EXPECT_EQ(inj.injectStall(123), 0u);
    EXPECT_EQ(inj.totals().injected, 0u);
}

TEST(FaultInjector, MayInjectWindowEdges)
{
    FaultConfig cfg;
    FaultRule rule;
    rule.cls = FaultClass::kDramTimeout;
    rule.probability = 0.5;
    rule.from = 100;
    rule.until = 200;
    cfg.rules.push_back(rule);
    const FaultInjector inj("inj", cfg);
    const FaultClass c = FaultClass::kDramTimeout;

    // [from, until) against the rule's [100, 200).
    EXPECT_FALSE(inj.mayInject(c, 0, 100)); // ends exactly at from
    EXPECT_TRUE(inj.mayInject(c, 0, 101));
    EXPECT_TRUE(inj.mayInject(c, 99, 101));
    EXPECT_TRUE(inj.mayInject(c, 100, 101));
    EXPECT_TRUE(inj.mayInject(c, 199, 200));
    EXPECT_TRUE(inj.mayInject(c, 199, 1000));
    EXPECT_FALSE(inj.mayInject(c, 200, 1000)); // starts at until
    EXPECT_FALSE(inj.mayInject(c, 500, 1000));
    EXPECT_TRUE(inj.mayInject(c, 0, maxTick)); // covers the rule
    EXPECT_FALSE(inj.mayInject(c, 150, 150)); // empty interval
}

TEST(FaultInjector, MayInjectMatchesShouldInjectOpportunities)
{
    // Wherever mayInject says no, shouldInject neither fires nor
    // draws: skipping those opportunities leaves the stream intact.
    FaultConfig cfg;
    cfg.seed = 11;
    cfg.rules.push_back(parseFaultRule(FaultClass::kDramTimeout,
                                       "p=0.3,from=50ns,until=80ns"));
    FaultInjector all("all", cfg);
    FaultInjector skip("skip", cfg);
    for (Tick t = 0; t < 150 * sim_clock::ns; t += 1000) {
        const bool want = all.shouldInject(FaultClass::kDramTimeout, t);
        if (skip.mayInject(FaultClass::kDramTimeout, t, t + 1)) {
            ASSERT_EQ(skip.shouldInject(FaultClass::kDramTimeout, t),
                      want);
        } else {
            ASSERT_FALSE(want) << "t=" << t;
        }
    }
    EXPECT_GT(all.injected(FaultClass::kDramTimeout), 0u);
    EXPECT_EQ(skip.injected(FaultClass::kDramTimeout),
              all.injected(FaultClass::kDramTimeout));
}

TEST(FaultInjector, MayInjectFalseOnceRuleIsExhausted)
{
    FaultConfig cfg;
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDramTimeout, "p=1,max=2"));
    FaultInjector inj("inj", cfg);
    const FaultClass c = FaultClass::kDramTimeout;
    EXPECT_TRUE(inj.mayInject(c, 0, maxTick));
    EXPECT_TRUE(inj.shouldInject(c, 10));
    EXPECT_TRUE(inj.mayInject(c, 0, maxTick)); // one left
    EXPECT_TRUE(inj.shouldInject(c, 20));
    EXPECT_FALSE(inj.mayInject(c, 0, maxTick));
    EXPECT_FALSE(inj.shouldInject(c, 30));
}

TEST(FaultInjector, MayInjectFalseWhenDisabled)
{
    const FaultInjector inj("inj", FaultConfig{});
    for (std::size_t k = 0; k < kNumFaultClasses; ++k) {
        EXPECT_FALSE(
            inj.mayInject(static_cast<FaultClass>(k), 0, maxTick));
    }
}

TEST(FaultInjector, MayInjectIgnoresOtherClassesAndZeroProbability)
{
    FaultConfig cfg;
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDigestCollision, "p=1"));
    cfg.rules.push_back(
        parseFaultRule(FaultClass::kDramTimeout, "p=0"));
    const FaultInjector inj("inj", cfg);
    EXPECT_FALSE(inj.mayInject(FaultClass::kDramTimeout, 0, maxTick));
    EXPECT_FALSE(inj.mayInject(FaultClass::kNetworkStall, 0, maxTick));
    EXPECT_TRUE(
        inj.mayInject(FaultClass::kDigestCollision, 0, maxTick));
}

// ---- arrival model ---------------------------------------------------

TEST(ArrivalModel, PrerollArrivesAtZeroRestIsMonotonic)
{
    ArrivalConfig cfg;
    cfg.enabled = true;
    cfg.bandwidth_mbps = 10.0;
    cfg.jitter_frac = 0.4;
    cfg.preroll_frames = 8;
    cfg.seed = 5;
    const VideoProfile p = tinyProfile(32);
    ArrivalModel model(p, cfg, nullptr);

    ASSERT_EQ(model.frameCount(), 32u);
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(model.arrivalTick(i), 0u);
    }
    Tick prev = 0;
    for (std::uint32_t i = 8; i < 32; ++i) {
        EXPECT_GT(model.arrivalTick(i), prev);
        prev = model.arrivalTick(i);
    }
    EXPECT_EQ(model.framesArrivedBy(0), 8u);
    EXPECT_EQ(model.framesArrivedBy(prev), 32u);
}

TEST(ArrivalModel, InjectedStallDelaysEverythingAfter)
{
    ArrivalConfig cfg;
    cfg.enabled = true;
    cfg.bandwidth_mbps = 10.0;
    cfg.preroll_frames = 4;
    cfg.seed = 5;
    const VideoProfile p = tinyProfile(24);

    ArrivalModel clean(p, cfg, nullptr);

    FaultConfig fcfg;
    fcfg.rules.push_back(parseFaultRule(FaultClass::kNetworkStall,
                                        "at=0ms,len=500ms"));
    FaultInjector inj("inj", fcfg);
    ArrivalModel stalled(p, cfg, &inj);

    EXPECT_EQ(stalled.stallTicks(), 500 * sim_clock::ms);
    EXPECT_EQ(inj.injected(FaultClass::kNetworkStall), 1u);
    // Everything from the stalled frame on shifts by the stall.
    EXPECT_EQ(stalled.arrivalTick(23),
              clean.arrivalTick(23) + 500 * sim_clock::ms);
}

// ---- end-to-end degradation ------------------------------------------

TEST(FaultPipeline, UnderrunDegradesGracefully)
{
    PipelineConfig cfg = faultyConfig();
    // The 2 Mbps timeline for this tiny clip ends ~113 ms in, so the
    // stall must start inside that window to hit in-flight frames.
    cfg.faults.rules.push_back(parseFaultRule(
        FaultClass::kNetworkStall, "at=20ms,len=700ms"));
    VideoPipeline pipe(std::move(cfg));
    const PipelineResult r = pipe.run();

    // The run completes (no panic) and the damage is accounted:
    // missed vsyncs show the previous frame again.
    EXPECT_GT(r.underruns, 0u);
    EXPECT_GT(r.display.underrun_repeats, 0u);
    EXPECT_GT(r.drops, 0u);
    EXPECT_LE(r.display.underrun_repeats, r.underruns);
    EXPECT_EQ(r.faults.injected, 1u);
}

TEST(FaultPipeline, FaultRunsAreDeterministic)
{
    auto make = [] {
        PipelineConfig cfg = faultyConfig();
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kNetworkStall, "at=20ms,len=400ms"));
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDramTimeout, "p=0.001"));
        return cfg;
    };
    VideoPipeline p1(make()), p2(make());
    const PipelineResult a = p1.run();
    const PipelineResult b = p2.run();

    EXPECT_DOUBLE_EQ(a.totalEnergy(), b.totalEnergy());
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.underruns, b.underruns);
    EXPECT_EQ(a.batch_shrinks, b.batch_shrinks);
    EXPECT_EQ(a.dram_retries, b.dram_retries);
    EXPECT_EQ(a.faults.injected, b.faults.injected);
    EXPECT_EQ(a.faults.recovered, b.faults.recovered);
    EXPECT_EQ(a.faults.abandoned, b.faults.abandoned);
}

TEST(FaultPipeline, DramRetriesAreBoundedAndAccounted)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.scheme = SchemeConfig::make(Scheme::kRaceToSleep);
    cfg.faults.seed = 11;
    cfg.faults.dram_retry_limit = 2;
    cfg.faults.rules.push_back(
        parseFaultRule(FaultClass::kDramTimeout, "p=0.6"));
    VideoPipeline pipe(std::move(cfg));
    const PipelineResult r = pipe.run();

    EXPECT_GT(r.dram_retries, 0u);
    EXPECT_GT(r.dram_abandoned, 0u); // p=.6 with limit 2 must abandon
    EXPECT_EQ(r.faults.recovered + r.faults.abandoned,
              r.faults.injected);
    EXPECT_EQ(r.drops, 0u); // timing damage only, playback survives
}

TEST(FaultPipeline, VerifyOnHitCatchesAllInjectedCollisions)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.scheme = SchemeConfig::make(Scheme::kGab);
    cfg.mach.verify_on_hit = true;
    cfg.faults.seed = 23;
    cfg.faults.rules.push_back(
        parseFaultRule(FaultClass::kDigestCollision, "p=0.02"));
    VideoPipeline pipe(std::move(cfg));
    const PipelineResult r = pipe.run();

    // Every injected collision that produced a wrong-block hit was
    // caught by the byte compare and demoted to a miss...
    EXPECT_GT(r.mach.injected_collisions, 0u);
    EXPECT_EQ(r.mach.false_hits, r.mach.injected_collisions);
    EXPECT_EQ(r.mach.collisions_undetected, 0u);
    // ...so the displayed frames stay bit-exact.
    EXPECT_TRUE(r.all_verified);
}

TEST(FaultPipeline, WithoutVerifyOnHitCollisionsCorrupt)
{
    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.scheme = SchemeConfig::make(Scheme::kGab);
    cfg.faults.seed = 23;
    cfg.faults.rules.push_back(
        parseFaultRule(FaultClass::kDigestCollision, "p=0.02"));
    VideoPipeline pipe(std::move(cfg));
    const PipelineResult r = pipe.run();

    EXPECT_GT(r.mach.collisions_undetected, 0u);
    EXPECT_FALSE(r.all_verified);
    EXPECT_EQ(r.drops, 0u); // corruption degrades, never crashes
}

TEST(FaultPipeline, ZeroCostWhenOff)
{
    // A default config (no rules, no arrival model) must reproduce
    // the pristine pipeline bit-for-bit.
    const PipelineResult base =
        simulateScheme(tinyProfile(),
                       SchemeConfig::make(Scheme::kGab));

    PipelineConfig cfg;
    cfg.profile = tinyProfile();
    cfg.scheme = SchemeConfig::make(Scheme::kGab);
    VideoPipeline pipe(std::move(cfg));
    const PipelineResult r = pipe.run();

    EXPECT_DOUBLE_EQ(r.totalEnergy(), base.totalEnergy());
    EXPECT_EQ(r.drops, base.drops);
    EXPECT_EQ(r.mach.lookups, base.mach.lookups);
    EXPECT_EQ(r.mach.false_hits, 0u);
    EXPECT_EQ(r.underruns, 0u);
    EXPECT_EQ(r.dram_retries, 0u);
    EXPECT_EQ(r.faults.injected, 0u);
}

} // namespace
} // namespace vstream
