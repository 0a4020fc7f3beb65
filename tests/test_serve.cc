/**
 * @file
 * Multi-session server tests: circuit-breaker state machine,
 * degradation-ladder bookkeeping, single-shard admission control
 * through the Placer, session isolation (bit-identity with solo
 * runs), and a trace-corruption fuzz pass over the per-session fault
 * domain.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "serve/placer.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "video/trace.hh"

namespace vstream
{
namespace
{

VideoProfile
tinyProfile(std::uint32_t frames = 48, std::uint64_t seed = 4242)
{
    VideoProfile p;
    p.key = "T";
    p.width = 96;
    p.height = 48;
    p.frame_count = frames;
    p.seed = seed;
    return p;
}

SessionConfig
tinySession(std::uint64_t id, Scheme scheme = Scheme::kGab)
{
    SessionConfig s;
    s.id = id;
    s.pipeline.profile = tinyProfile(48, 4242 + id);
    s.pipeline.scheme = SchemeConfig::make(scheme);
    return s;
}

std::vector<std::uint8_t>
traceBlob(const VideoProfile &p)
{
    std::ostringstream os(std::ios::binary);
    writeTrace(os, p);
    const std::string s = os.str();
    return {s.begin(), s.end()};
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

BreakerConfig
testBreaker()
{
    BreakerConfig b;
    b.false_hit_threshold = 0.10;
    b.min_lookups = 10;
    b.cooldown_base = 100 * sim_clock::ms;
    b.cooldown_cap = 400 * sim_clock::ms;
    b.jitter_frac = 0.0; // deterministic cooldown edges
    return b;
}

TEST(CircuitBreaker, StartsClosedAndIgnoresCleanWindows)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
    EXPECT_FALSE(cb.onWindow(100, 0, sim_clock::ms, rng));
    EXPECT_FALSE(cb.bypass());
    EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreaker, TripsOnFalseHitStorm)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    // 20 false hits out of 100 lookups = 20% > 10% threshold.
    EXPECT_TRUE(cb.onWindow(100, 20, sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
    EXPECT_TRUE(cb.bypass());
    EXPECT_EQ(cb.trips(), 1u);
    EXPECT_EQ(cb.cooldownEnd(), sim_clock::ms + 100 * sim_clock::ms);
}

TEST(CircuitBreaker, BelowMinLookupsNeverTrips)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    // 9 lookups, all false: storm-dense but statistically tiny.
    EXPECT_FALSE(cb.onWindow(9, 9, sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, ReprobesAfterCooldownAndCloses)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    cb.onWindow(100, 20, 0, rng);
    ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);

    // Still cooling: samples are ignored, state stays Open.
    EXPECT_FALSE(cb.onWindow(100, 0, 50 * sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);

    // Cooldown expired: re-probe (bypass lifts for one window).
    EXPECT_TRUE(cb.onWindow(100, 0, 150 * sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
    EXPECT_FALSE(cb.bypass());
    EXPECT_EQ(cb.reprobes(), 1u);

    // Clean probe window: the breaker closes for good.
    EXPECT_TRUE(cb.onWindow(100, 0, 170 * sim_clock::ms, rng));
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(cb.trips(), 1u);
}

TEST(CircuitBreaker, RetripDoublesCooldownUpToCap)
{
    CircuitBreaker cb(testBreaker());
    Random rng(1);
    // Trip 1: cooldown 100ms.
    cb.onWindow(100, 20, 0, rng);
    EXPECT_EQ(cb.cooldownEnd(), 100 * sim_clock::ms);
    // Re-probe at 150ms, storm again: trip 2, cooldown 200ms.
    cb.onWindow(100, 0, 150 * sim_clock::ms, rng);
    ASSERT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
    cb.onWindow(100, 20, 160 * sim_clock::ms, rng);
    ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(cb.trips(), 2u);
    EXPECT_EQ(cb.cooldownEnd(),
              160 * sim_clock::ms + 200 * sim_clock::ms);
    // Trips 3 and 4: 400ms cap reached (and held).
    cb.onWindow(100, 0, 500 * sim_clock::ms, rng);
    cb.onWindow(100, 20, 510 * sim_clock::ms, rng);
    EXPECT_EQ(cb.cooldownEnd(),
              510 * sim_clock::ms + 400 * sim_clock::ms);
    cb.onWindow(100, 0, sim_clock::s, rng);
    cb.onWindow(100, 20, sim_clock::s + sim_clock::ms, rng);
    EXPECT_EQ(cb.cooldownEnd(),
              sim_clock::s + sim_clock::ms + 400 * sim_clock::ms);
}

TEST(CircuitBreaker, JitterStaysWithinFraction)
{
    BreakerConfig cfg = testBreaker();
    cfg.jitter_frac = 0.5;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        CircuitBreaker cb(cfg);
        Random rng(seed);
        cb.onWindow(100, 20, 0, rng);
        const Tick base = 100 * sim_clock::ms;
        EXPECT_GE(cb.cooldownEnd(), base);
        EXPECT_LE(cb.cooldownEnd(), base + base / 2);
    }
}

// ---------------------------------------------------------------------
// Health ladder
// ---------------------------------------------------------------------

TEST(HealthLadder, TracksDwellPerState)
{
    HealthLadder ladder;
    EXPECT_EQ(ladder.state(), HealthState::kHealthy);
    ladder.transitionTo(HealthState::kDegraded, 100);
    ladder.transitionTo(HealthState::kHealthy, 250);
    ladder.transitionTo(HealthState::kQuarantined, 400);
    EXPECT_EQ(ladder.dwell(HealthState::kHealthy, 500), 100 + 150u);
    EXPECT_EQ(ladder.dwell(HealthState::kDegraded, 500), 150u);
    EXPECT_EQ(ladder.dwell(HealthState::kQuarantined, 500), 100u);
    EXPECT_EQ(ladder.transitions(), 3u);
    EXPECT_FALSE(ladder.evicted());
    ladder.transitionTo(HealthState::kEvicted, 450);
    EXPECT_TRUE(ladder.evicted());
}

// ---------------------------------------------------------------------
// Single-shard serving harness
// ---------------------------------------------------------------------

/** What a finished single-shard run exposes (a Placer runs once). */
struct ServeRun
{
    /** Every outcome, in completion order. */
    std::vector<SessionOutcome> outcomes;
    std::uint64_t admitted = 0;
    std::uint64_t queued = 0;
    std::uint64_t rejected = 0;
    std::uint64_t peak_active = 0;
    std::uint64_t peak_waiting = 0;
    StatsSnapshot served;
};

/** Serve @p cfgs through a one-shard Placer: all arrive at tick 0,
 * in order (the arrival's mix indexes @p cfgs). */
ServeRun
serveAll(const ServeConfig &serve, const std::vector<SessionConfig> &cfgs,
         unsigned jobs = 1)
{
    FleetConfig fleet;
    fleet.serve = serve;
    fleet.jobs = jobs;
    std::vector<ArrivalEvent> arrivals(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        arrivals[i].id = cfgs[i].id;
        arrivals[i].mix = static_cast<std::uint32_t>(i);
    }
    ServeRun run;
    Placer placer(
        fleet, [&](const ArrivalEvent &a) { return cfgs[a.mix]; },
        [&](const SessionOutcome &o) { run.outcomes.push_back(o); });
    placer.run(arrivals);
    run.admitted = placer.admitted();
    run.queued = placer.queuedTotal();
    run.rejected = placer.rejected();
    run.peak_active = placer.peakActive();
    run.peak_waiting = placer.peakWaiting();
    run.served = placer.fleetSnapshot();
    return run;
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(Admission, RejectsWhatCouldNeverFit)
{
    ServeConfig cfg;
    cfg.bandwidth_budget_mbps = 1.0; // below any session's demand
    const ServeRun run = serveAll(cfg, {tinySession(0)});
    EXPECT_EQ(run.rejected, 1u);
    EXPECT_EQ(run.admitted, 0u);
    EXPECT_TRUE(run.outcomes.empty());
}

TEST(Admission, QueuesOverBudgetAndDrainsFifo)
{
    const double demand =
        Session::demandMBps(tinySession(0).pipeline);
    ServeConfig cfg;
    // Room for exactly two concurrent sessions.
    cfg.bandwidth_budget_mbps = 2.5 * demand;
    const ServeRun run =
        serveAll(cfg, {tinySession(0), tinySession(1), tinySession(2),
                       tinySession(3)});
    // Two admitted at once, two queued behind them.  Everyone
    // eventually ran, and the Placer's drain asserts that every
    // reservation was released.
    EXPECT_EQ(run.queued, 2u);
    EXPECT_EQ(run.peak_waiting, 2u);
    EXPECT_EQ(run.peak_active, 2u);
    EXPECT_EQ(run.outcomes.size(), 4u);
    EXPECT_EQ(run.admitted, 4u);
    // Queued sessions start only after a finisher releases budget,
    // and in FIFO order.
    Tick start2 = 0;
    Tick start3 = 0;
    for (const SessionOutcome &o : run.outcomes) {
        if (o.id >= 2) {
            EXPECT_GT(o.start_offset, 0u);
        } else {
            EXPECT_EQ(o.start_offset, 0u);
        }
        if (o.id == 2) {
            start2 = o.start_offset;
        } else if (o.id == 3) {
            start3 = o.start_offset;
        }
    }
    EXPECT_LE(start2, start3);
}

TEST(Admission, MaxActiveCapQueues)
{
    ServeConfig cfg;
    cfg.max_active = 1;
    const ServeRun run = serveAll(cfg, {tinySession(0), tinySession(1)});
    EXPECT_EQ(run.queued, 1u);
    EXPECT_EQ(run.peak_active, 1u);
    EXPECT_EQ(run.outcomes.size(), 2u);
}

// ---------------------------------------------------------------------
// Isolation: concurrent no-fault sessions == solo runs, bit for bit
// ---------------------------------------------------------------------

TEST(Isolation, CleanSessionsMatchSoloRunsBitIdentical)
{
    const Scheme schemes[] = {Scheme::kBaseline, Scheme::kRaceToSleep,
                              Scheme::kMab, Scheme::kGab};
    std::vector<SessionConfig> cfgs;
    for (std::uint64_t id = 0; id < 8; ++id) {
        cfgs.push_back(tinySession(id, schemes[id % 4]));
    }
    const ServeRun run = serveAll(ServeConfig{}, cfgs);
    ASSERT_EQ(run.admitted, 8u);
    ASSERT_EQ(run.outcomes.size(), 8u);

    for (const SessionOutcome &o : run.outcomes) {
        VideoPipeline solo(tinySession(o.id, schemes[o.id % 4]).pipeline);
        const PipelineResult r = solo.run();
        EXPECT_EQ(o.final_state, HealthState::kHealthy);
        // EXPECT_EQ on doubles: bit-identity, not approximation.
        EXPECT_EQ(r.totalEnergy(), o.result.totalEnergy());
        EXPECT_EQ(r.drops, o.result.drops);
        EXPECT_EQ(r.underruns, o.result.underruns);
        EXPECT_EQ(r.sleep_events, o.result.sleep_events);
        EXPECT_EQ(r.mach.lookups, o.result.mach.lookups);
    }
}

// ---------------------------------------------------------------------
// Fault domains: one session's damage never leaks to neighbours
// ---------------------------------------------------------------------

TEST(FaultDomain, DramStormEvictsOnlyTheFaultySession)
{
    SessionConfig faulty = tinySession(1);
    faulty.pipeline.faults.dram_retry_limit = 2;
    faulty.pipeline.faults.rules.push_back(parseFaultRule(
        FaultClass::kDramTimeout, "p=0.6,from=10ms,until=600ms"));
    faulty.pipeline.faults = faulty.pipeline.faults.forSession(1);
    faulty.health.window_vsyncs = 8;
    faulty.health.abandon_budget = 4;
    faulty.health.evict_windows = 2;

    const ServeRun run = serveAll(
        ServeConfig{},
        {tinySession(0), std::move(faulty), tinySession(2)});
    ASSERT_EQ(run.admitted, 3u);
    ASSERT_EQ(run.outcomes.size(), 3u);

    for (const SessionOutcome &o : run.outcomes) {
        if (o.id == 1) {
            EXPECT_EQ(o.final_state, HealthState::kEvicted);
            continue;
        }
        // Neighbours: healthy and bit-identical to solo.
        VideoPipeline solo(tinySession(o.id).pipeline);
        const PipelineResult r = solo.run();
        EXPECT_EQ(o.final_state, HealthState::kHealthy);
        EXPECT_EQ(r.totalEnergy(), o.result.totalEnergy());
        EXPECT_EQ(r.drops, o.result.drops);
    }
    EXPECT_EQ(run.served.count("state.evicted"), 1u);
}

TEST(FaultDomain, CorruptTraceQuarantinesAtStart)
{
    std::vector<std::uint8_t> blob = traceBlob(tinyProfile(4, 7));
    blob[blob.size() / 2] ^= 0xff;

    SessionConfig bad = tinySession(0);
    bad.trace_blob = std::move(blob);
    bad.health.evict_windows = 1;
    const ServeRun run = serveAll(ServeConfig{}, {std::move(bad)});
    ASSERT_EQ(run.outcomes.size(), 1u);
    const SessionOutcome &o = run.outcomes.front();
    EXPECT_EQ(o.final_state, HealthState::kEvicted);
    EXPECT_NE(o.trace_error, TraceError::kNone);
}

TEST(FaultDomain, IntactTraceStaysHealthy)
{
    SessionConfig good = tinySession(0);
    good.trace_blob = traceBlob(tinyProfile(4, 7));
    const ServeRun run = serveAll(ServeConfig{}, {std::move(good)});
    ASSERT_EQ(run.outcomes.size(), 1u);
    EXPECT_EQ(run.outcomes.front().final_state, HealthState::kHealthy);
    EXPECT_EQ(run.outcomes.front().trace_error, TraceError::kNone);
}

/**
 * Trace-corruption fuzz: random byte flips, truncations, and garbage
 * prefixes must never crash the server - every damaged blob
 * quarantines its session at tick 0 with the loader's TraceError, a
 * tail past the trailer is ignored, and a clean neighbour session
 * stays bit-identical to its solo run.
 */
TEST(FaultDomain, TraceCorruptionFuzzNeverLeaks)
{
    const std::vector<std::uint8_t> intact = traceBlob(tinyProfile(4, 7));
    VideoPipeline solo_pipe(tinySession(99).pipeline);
    const PipelineResult solo = solo_pipe.run();
    Random rng(20260806);

    for (int round = 0; round < 40; ++round) {
        std::vector<std::uint8_t> blob = intact;
        const std::uint64_t kind = rng.next() % 4;
        if (kind == 0) {
            // Flip 1..8 random bytes.
            const std::uint64_t flips = 1 + rng.next() % 8;
            for (std::uint64_t f = 0; f < flips; ++f) {
                blob[rng.next() % blob.size()] ^=
                    static_cast<std::uint8_t>(1 + rng.next() % 255);
            }
        } else if (kind == 1) {
            // Truncate at a random point.
            blob.resize(rng.next() % blob.size());
        } else if (kind == 2) {
            // Garbage prefix (bad magic).
            for (std::size_t b = 0; b < 4 && b < blob.size(); ++b) {
                blob[b] = static_cast<std::uint8_t>(rng.next());
            }
        } else {
            // Random tail past the trailer: never read.
            blob.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        std::istringstream is(std::string(blob.begin(), blob.end()));
        const TraceError want = loadTrace(is).error;
        ASSERT_EQ(want == TraceError::kNone, kind == 3)
            << "round " << round;

        SessionConfig fuzzed = tinySession(0);
        fuzzed.trace_blob = std::move(blob);
        fuzzed.health.evict_windows = 1;
        const ServeRun run = serveAll(
            ServeConfig{}, {std::move(fuzzed), tinySession(99)});
        ASSERT_EQ(run.admitted, 2u);
        ASSERT_EQ(run.outcomes.size(), 2u);

        for (const SessionOutcome &o : run.outcomes) {
            if (o.id == 0) {
                EXPECT_EQ(o.trace_error, want) << "round " << round;
                if (want == TraceError::kNone) {
                    EXPECT_EQ(o.final_state, HealthState::kHealthy);
                    continue;
                }
                // Quarantined at tick 0: no dwell in Healthy or
                // Degraded, then evicted after one window.
                EXPECT_EQ(o.final_state, HealthState::kEvicted);
                EXPECT_EQ(o.dwell[static_cast<std::size_t>(
                              HealthState::kHealthy)],
                          0u);
                EXPECT_EQ(o.dwell[static_cast<std::size_t>(
                              HealthState::kDegraded)],
                          0u);
                EXPECT_GT(o.dwell[static_cast<std::size_t>(
                              HealthState::kQuarantined)],
                          0u);
                continue;
            }
            // The clean neighbour never notices the fuzzed blob.
            EXPECT_EQ(o.final_state, HealthState::kHealthy);
            EXPECT_EQ(o.result.totalEnergy(), solo.totalEnergy());
            EXPECT_EQ(o.result.drops, solo.drops);
        }
    }
}

// ---------------------------------------------------------------------
// Breaker inside a session: storm trips it, recovery closes it
// ---------------------------------------------------------------------

TEST(SessionBreaker, StormTripsAndCooldownRecovers)
{
    SessionConfig s = tinySession(0, Scheme::kGab);
    s.pipeline.profile.frame_count = 120;
    s.pipeline.mach.verify_on_hit = true;
    s.pipeline.faults.rules.push_back(parseFaultRule(
        FaultClass::kDigestCollision, "p=0.25,from=100ms,until=700ms"));
    s.pipeline.faults = s.pipeline.faults.forSession(0);
    s.health.window_vsyncs = 8;
    s.breaker.min_lookups = 16;
    s.breaker.cooldown_base = 100 * sim_clock::ms;
    const ServeRun run = serveAll(ServeConfig{}, {std::move(s)});
    ASSERT_EQ(run.outcomes.size(), 1u);

    const SessionOutcome &o = run.outcomes.front();
    EXPECT_GT(o.breaker_trips, 0u);
    EXPECT_GT(o.breaker_reprobes, 0u);
    // The storm ends at 700ms of a 2s playback: the last re-probe
    // sees a clean window and the breaker ends Closed.
    EXPECT_EQ(o.breaker_state, CircuitBreaker::State::kClosed);
    EXPECT_EQ(o.final_state, HealthState::kHealthy);
    EXPECT_EQ(run.served.count("breaker.trips"),
              o.breaker_trips);
}

// ---------------------------------------------------------------------
// Rehearsal: parallel fan-out is invisible in the outcome stream, and
// it rides the persistent pool (no per-wave spawns)
// ---------------------------------------------------------------------

TEST(Rehearsal, OutcomeStreamIdenticalAtAnyJobs)
{
    // Room for three at a time, so most sessions queue and start at
    // staggered offsets; mixed schemes and a faulty session make the
    // finish order non-trivial.
    const Scheme schemes[] = {Scheme::kBaseline, Scheme::kRaceToSleep,
                              Scheme::kMab, Scheme::kGab};
    std::vector<SessionConfig> cfgs;
    for (std::uint64_t id = 0; id < 12; ++id) {
        SessionConfig s = tinySession(id, schemes[id % 4]);
        s.pipeline.profile.frame_count = 24 + 8 * (id % 3);
        if (id == 5) {
            s.pipeline.faults.rules.push_back(parseFaultRule(
                FaultClass::kNetworkStall,
                "p=0.5,from=1ms,until=200ms,len=80ms"));
            s.pipeline.arrival.enabled = true;
            s.pipeline.arrival.bandwidth_mbps = 2.0;
            s.pipeline.faults = s.pipeline.faults.forSession(id);
            s.health.window_vsyncs = 8;
        }
        cfgs.push_back(std::move(s));
    }
    ServeConfig serve;
    serve.max_active = 3;
    const ServeRun serial = serveAll(serve, cfgs, 1);
    const ServeRun parallel = serveAll(serve, cfgs, 4);

    ASSERT_EQ(serial.outcomes.size(), cfgs.size());
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    EXPECT_GT(serial.queued, 0u);
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        const SessionOutcome &a = serial.outcomes[i];
        const SessionOutcome &b = parallel.outcomes[i];
        EXPECT_EQ(a.id, b.id) << "completion order differs at " << i;
        EXPECT_EQ(a.start_offset, b.start_offset);
        EXPECT_EQ(a.end_tick, b.end_tick);
        EXPECT_EQ(a.result.totalEnergy(), b.result.totalEnergy());
        EXPECT_EQ(a.result.drops, b.result.drops);
        EXPECT_EQ(a.final_state, b.final_state);
        EXPECT_EQ(a.dwell, b.dwell);
    }
}

TEST(Rehearsal, WavesSpawnThreadsOnlyOnce)
{
    const auto makeWave = [](std::uint64_t base) {
        std::vector<SessionConfig> wave;
        for (std::uint64_t i = 0; i < 6; ++i) {
            wave.push_back(tinySession(base + i));
        }
        return wave;
    };

    // Warmup wave: the pool grows to the requested width here (and
    // only here - parallelMap used to spawn+join per call).
    serveAll(ServeConfig{}, makeWave(0), 4);
    const std::uint64_t spawned =
        ThreadPool::instance().threadsSpawned();

    // Steady state: every later wave - rehearsal fan-out, admission
    // and replay on the serving timeline - reuses the warm workers.
    for (std::uint64_t round = 0; round < 3; ++round) {
        const ServeRun run =
            serveAll(ServeConfig{}, makeWave(100 * (round + 1)), 4);
        EXPECT_EQ(run.admitted, 6u);
        EXPECT_EQ(run.outcomes.size(), 6u);
    }
    EXPECT_EQ(ThreadPool::instance().threadsSpawned(), spawned);
}

} // namespace
} // namespace vstream
