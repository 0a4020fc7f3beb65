/**
 * @file
 * Fleet serving tests: shard bookkeeping, arrival processes, and the
 * placer's headline contract - the merged fleet report is
 * byte-identical at any shard count, any jobs count, and any
 * rebalance cadence, and admission (queue/reject/peaks) is the same
 * global decision at one shard as at many.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "serve/arrivals.hh"
#include "serve/fleet_report.hh"
#include "serve/placer.hh"
#include "serve/shard.hh"

namespace vstream
{
namespace
{

VideoProfile
tinyProfile(std::uint64_t seed, std::uint32_t width = 96,
            std::uint32_t height = 48)
{
    VideoProfile p;
    p.key = "T";
    p.width = width;
    p.height = height;
    p.frame_count = 48;
    p.seed = seed;
    return p;
}

/** Mix 99 marks a whale: a profile no budget in these tests can
 * hold.  Everything else is a tiny clean session keyed by id. */
SessionConfig
fleetSession(const ArrivalEvent &a)
{
    SessionConfig s;
    const bool whale = a.mix == 99;
    s.pipeline.profile = whale ? tinyProfile(7, 1920, 1080)
                               : tinyProfile(4242 + a.id);
    s.pipeline.scheme = SchemeConfig::make(Scheme::kGab);
    s.stats_group = a.mix % 2 == 0 ? "even" : "odd";
    return s;
}

/** Global budgets sized off one probe session: ~6 concurrent by
 * bandwidth, capped at 6 by max_active, frame buffers plentiful. */
FleetConfig
fleetConfig(std::uint32_t shards, unsigned jobs,
            Tick rebalance = 0)
{
    const SessionConfig probe = fleetSession(ArrivalEvent{});
    FleetConfig cfg;
    cfg.serve.bandwidth_budget_mbps =
        Session::demandMBps(probe.pipeline) * 6.5;
    cfg.serve.framebuffer_budget_bytes =
        Session::framebufferBytes(probe.pipeline) * 100;
    cfg.serve.max_active = 6;
    cfg.shards = shards;
    cfg.jobs = jobs;
    cfg.rehearse_block = 16; // several blocks per run
    cfg.rebalance_period = rebalance;
    return cfg;
}

/** Arrivals fast enough to overrun the 6-session budget (48 frames
 * at 60 fps is 0.8 s of playback; ~7.5/s service vs 20/s offered),
 * with a 35% mid-stream leave rate. */
std::vector<ArrivalEvent>
pressureArrivals(std::uint64_t count = 72)
{
    PoissonArrivalConfig p;
    p.seed = 0xabc;
    p.rate_per_s = 20.0;
    p.count = count;
    p.leave_probability = 0.35;
    p.min_watch = 100 * sim_clock::ms;
    p.max_watch = 500 * sim_clock::ms;
    p.num_mixes = 2;
    return poissonArrivals(p);
}

/** Everything a finished run exposes, so a Placer (single-use,
 * non-copyable) can be compared against another run's outcome. */
struct FleetRun
{
    std::string report;
    StatsSnapshot snapshot;
    std::uint64_t admitted = 0;
    std::uint64_t queued = 0;
    std::uint64_t rejected = 0;
    std::uint64_t rebalances = 0;
    std::uint64_t peak_active = 0;
    std::uint64_t peak_waiting = 0;
    std::vector<std::uint64_t> per_shard_absorbed;
};

FleetRun
runFleet(const FleetConfig &cfg,
         const std::vector<ArrivalEvent> &arrivals)
{
    Placer placer(cfg, fleetSession);
    placer.run(arrivals);
    FleetRun r;
    std::ostringstream os;
    // Pin the only nondeterministic field so runs byte-compare.
    writeFleetReport(os, placer, "test_shard", arrivals.size(),
                     /*wall_clock_seconds=*/0.0,
                     /*invariant_failures=*/0);
    r.report = os.str();
    r.snapshot = placer.fleetSnapshot();
    r.admitted = placer.admitted();
    r.queued = placer.queuedTotal();
    r.rejected = placer.rejected();
    r.rebalances = placer.rebalances();
    r.peak_active = placer.peakActive();
    r.peak_waiting = placer.peakWaiting();
    for (const Shard &s : placer.shards()) {
        r.per_shard_absorbed.push_back(s.absorbed());
    }
    return r;
}

// ---------------------------------------------------------------------
// Shard bookkeeping
// ---------------------------------------------------------------------

TEST(Shard, TracksReservationsAndLoad)
{
    Shard s(3);
    EXPECT_EQ(s.id(), 3u);
    s.setSlices(100.0, 1000.0);
    EXPECT_DOUBLE_EQ(s.load(), 0.0);

    s.reserve(30.0, 200);
    EXPECT_EQ(s.active(), 1u);
    EXPECT_DOUBLE_EQ(s.load(), 0.3); // bw ratio dominates

    s.reserve(10.0, 700);
    EXPECT_EQ(s.active(), 2u);
    EXPECT_DOUBLE_EQ(s.load(), 0.9); // fb ratio dominates now

    s.release(30.0, 200);
    s.release(10.0, 700);
    EXPECT_EQ(s.active(), 0u);
    EXPECT_DOUBLE_EQ(s.load(), 0.0);
    EXPECT_EQ(s.fbReservedBytes(), 0u);
}

TEST(Shard, AbsorbFoldsOutcomeIntoSnapshot)
{
    Shard s(0);
    SessionOutcome o;
    o.id = 17;
    o.final_state = HealthState::kEvicted;
    o.breaker_trips = 2;
    o.breaker_state = CircuitBreaker::State::kClosed;
    o.left_early = false;
    o.group = "stall";
    o.start_offset = 10 * sim_clock::ms;
    o.end_tick = 250 * sim_clock::ms;
    o.dwell[static_cast<std::size_t>(HealthState::kHealthy)] =
        200 * sim_clock::ms;
    s.absorb(o);

    SessionOutcome clean;
    clean.end_tick = 800 * sim_clock::ms;
    clean.left_early = true;
    s.absorb(clean);

    const StatsSnapshot &snap = s.snapshot();
    EXPECT_EQ(s.absorbed(), 2u);
    EXPECT_EQ(snap.count("sessions"), 2u);
    EXPECT_EQ(snap.count("state.evicted"), 1u);
    EXPECT_EQ(snap.count("state.healthy"), 1u);
    EXPECT_EQ(snap.count("breaker.trips"), 2u);
    // Tripped but ended closed: the session recovered.
    EXPECT_EQ(snap.count("breaker.recoveredSessions"), 1u);
    EXPECT_EQ(snap.count("leftEarly"), 1u);
    EXPECT_EQ(snap.count("mix.stall.sessions"), 1u);
    EXPECT_EQ(snap.count("mix.stall.evicted"), 1u);
    ASSERT_NE(snap.histogram("spanUs"), nullptr);
    EXPECT_EQ(snap.histogram("spanUs")->count(), 2u);
    EXPECT_EQ(snap.histogram("spanUs")->min(), 240000u);
    EXPECT_EQ(snap.histogram("spanUs")->max(), 800000u);
}

// ---------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------

TEST(Arrivals, PoissonIsDeterministicAndOrdered)
{
    const std::vector<ArrivalEvent> a = pressureArrivals();
    const std::vector<ArrivalEvent> b = pressureArrivals();
    ASSERT_EQ(a.size(), 72u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tick, b[i].tick) << i;
        EXPECT_EQ(a[i].id, i);
        EXPECT_EQ(a[i].leave_after, b[i].leave_after) << i;
        EXPECT_EQ(a[i].mix, i % 2);
        if (i > 0) {
            EXPECT_GE(a[i].tick, a[i - 1].tick) << i;
        }
    }
}

TEST(Arrivals, TraceParsesWellFormedInput)
{
    std::istringstream is("# comment\n"
                          "0 0 0\n"
                          "1500 200000 1  # inline comment\n"
                          "\n"
                          "1500 0 2\n");
    const ArrivalTraceResult r = parseArrivalTrace(is, 10);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.events.size(), 3u);
    EXPECT_EQ(r.events[0].tick, 0u);
    EXPECT_EQ(r.events[0].id, 10u);
    EXPECT_EQ(r.events[1].tick, 1500 * sim_clock::us);
    EXPECT_EQ(r.events[1].leave_after, 200000 * sim_clock::us);
    EXPECT_EQ(r.events[1].mix, 1u);
    EXPECT_EQ(r.events[2].tick, r.events[1].tick); // ties allowed
    EXPECT_EQ(r.events[2].id, 12u);
}

TEST(Arrivals, TraceParseFailsClosed)
{
    // Short line.
    std::istringstream missing("100 200\n");
    EXPECT_FALSE(parseArrivalTrace(missing).ok());

    // Trailing junk.
    std::istringstream junk("100 200 0 extra\n");
    const ArrivalTraceResult j = parseArrivalTrace(junk);
    EXPECT_FALSE(j.ok());
    EXPECT_NE(j.error.find("line 1"), std::string::npos) << j.error;

    // Out-of-order arrivals.
    std::istringstream order("200 0 0\n100 0 0\n");
    const ArrivalTraceResult o = parseArrivalTrace(order);
    EXPECT_FALSE(o.ok());
    EXPECT_NE(o.error.find("line 2"), std::string::npos) << o.error;

    // Tick overflow.
    std::istringstream big("18446744073709551615 0 0\n");
    EXPECT_FALSE(parseArrivalTrace(big).ok());
}

// ---------------------------------------------------------------------
// Placer: the invariance contract
// ---------------------------------------------------------------------

TEST(Placer, ReportIsShardCountInvariant)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals();
    const FleetRun one = runFleet(fleetConfig(1, 1), arrivals);
    const FleetRun three = runFleet(fleetConfig(3, 1), arrivals);
    const FleetRun seven = runFleet(fleetConfig(7, 1), arrivals);

    // Byte-identical JSON and equal merged snapshots.
    EXPECT_EQ(one.report, three.report);
    EXPECT_EQ(one.report, seven.report);
    EXPECT_EQ(one.snapshot, three.snapshot);
    EXPECT_EQ(one.snapshot, seven.snapshot);

    // Admission is global: identical regardless of partitioning.
    EXPECT_EQ(one.admitted, seven.admitted);
    EXPECT_EQ(one.queued, seven.queued);
    EXPECT_EQ(one.rejected, seven.rejected);
    EXPECT_EQ(one.peak_active, seven.peak_active);
    EXPECT_EQ(one.peak_waiting, seven.peak_waiting);

    // Accounting closes: every arrival admitted or rejected, every
    // admitted session absorbed by exactly one shard.
    EXPECT_EQ(one.admitted + one.rejected, arrivals.size());
    EXPECT_EQ(one.snapshot.count("sessions"), one.admitted);
    std::uint64_t absorbed = 0;
    for (const std::uint64_t n : seven.per_shard_absorbed) {
        absorbed += n;
    }
    EXPECT_EQ(absorbed, seven.admitted);
    EXPECT_EQ(one.snapshot.count("mix.even.sessions") +
                  one.snapshot.count("mix.odd.sessions"),
              one.admitted);
}

TEST(Placer, ReportIsJobsInvariant)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals(48);
    const FleetRun serial = runFleet(fleetConfig(4, 1), arrivals);
    const FleetRun threaded = runFleet(fleetConfig(4, 4), arrivals);
    EXPECT_EQ(serial.report, threaded.report);
    EXPECT_EQ(serial.snapshot, threaded.snapshot);
}

TEST(Placer, RebalanceIsStatsNeutral)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals(48);
    const FleetRun never = runFleet(fleetConfig(4, 1, 0), arrivals);
    const FleetRun slow =
        runFleet(fleetConfig(4, 1, 500 * sim_clock::ms), arrivals);
    const FleetRun fast =
        runFleet(fleetConfig(4, 1, 7 * sim_clock::ms), arrivals);

    EXPECT_EQ(never.rebalances, 0u);
    EXPECT_GT(slow.rebalances, 0u);
    EXPECT_GT(fast.rebalances, slow.rebalances);

    // Re-weighting slices moves placement only; the report and the
    // merged snapshot must not move at all.
    EXPECT_EQ(never.report, slow.report);
    EXPECT_EQ(never.report, fast.report);
    EXPECT_EQ(never.snapshot, fast.snapshot);
    EXPECT_EQ(never.admitted, fast.admitted);
    EXPECT_EQ(never.queued, fast.queued);
}

// ---------------------------------------------------------------------
// Placer: admission behaviour
// ---------------------------------------------------------------------

TEST(Placer, QueueEngagesUnderPressure)
{
    const FleetRun r =
        runFleet(fleetConfig(4, 1), pressureArrivals());
    EXPECT_GT(r.queued, 0u);
    EXPECT_GT(r.peak_waiting, 0u);
    EXPECT_LE(r.peak_active, 6u);
    EXPECT_EQ(r.rejected, 0u); // nothing here is a whale
    // The leave process ran: some viewers left mid-stream.
    EXPECT_GT(r.snapshot.count("leftEarly"), 0u);
    EXPECT_LT(r.snapshot.count("leftEarly"), r.admitted);
}

TEST(Placer, WhalesAreRejectedNotQueued)
{
    // Every 5th arrival asks for a 1920x1080 session against a
    // budget sized for tiny ones: impossible, rejected outright.
    std::vector<ArrivalEvent> arrivals;
    for (std::uint64_t i = 0; i < 20; ++i) {
        ArrivalEvent e;
        e.tick = i * 50 * sim_clock::ms;
        e.id = i;
        e.mix = i % 5 == 4 ? 99 : 0;
        arrivals.push_back(e);
    }
    const FleetRun r = runFleet(fleetConfig(2, 1), arrivals);
    EXPECT_EQ(r.rejected, 4u);
    EXPECT_EQ(r.admitted, 16u);
    EXPECT_EQ(r.snapshot.count("sessions"), 16u);
}

TEST(Placer, AllLeaversLeaveEarly)
{
    // leave_probability 1 with a window well inside the 0.8 s span:
    // every admitted clean session must count as leftEarly.
    PoissonArrivalConfig p;
    p.seed = 0x1eaf;
    p.rate_per_s = 5.0;
    p.count = 12;
    p.leave_probability = 1.0;
    p.min_watch = 100 * sim_clock::ms;
    p.max_watch = 400 * sim_clock::ms;
    const FleetRun r =
        runFleet(fleetConfig(2, 1), poissonArrivals(p));
    EXPECT_EQ(r.admitted, 12u);
    EXPECT_EQ(r.snapshot.count("leftEarly"), 12u);
    EXPECT_EQ(r.snapshot.count("state.healthy"), 12u);
}

TEST(Placer, TieBreakRoutesIdleFleetToLowestShard)
{
    // Arrivals a full second apart never overlap (0.8 s sessions),
    // so every pick sees four idle shards - and must choose shard 0
    // every time (strict-less compare, lowest id wins).
    std::vector<ArrivalEvent> arrivals;
    for (std::uint64_t i = 0; i < 6; ++i) {
        ArrivalEvent e;
        e.tick = i * sim_clock::s;
        e.id = i;
        arrivals.push_back(e);
    }
    const FleetRun r = runFleet(fleetConfig(4, 1), arrivals);
    ASSERT_EQ(r.per_shard_absorbed.size(), 4u);
    EXPECT_EQ(r.per_shard_absorbed[0], 6u);
    EXPECT_EQ(r.per_shard_absorbed[1], 0u);
    EXPECT_EQ(r.per_shard_absorbed[2], 0u);
    EXPECT_EQ(r.per_shard_absorbed[3], 0u);
    EXPECT_EQ(r.queued, 0u);
    EXPECT_EQ(r.peak_active, 1u);
}

} // namespace
} // namespace vstream
