/**
 * @file
 * Fleet fault-tolerance tests: a shard's checkpoint and crash
 * rollback, the chaos rule grammar, flash-crowd schedule injection,
 * and the headline recovery contract - a crashed-and-recovered
 * fleet report equals the unfailed run's report modulo the explicit
 * `recovery` block, at every crash position and any shard/job count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "serve/arrivals.hh"
#include "serve/chaos.hh"
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

/** Mix 99 marks a whale; everything else is a tiny session keyed by
 * id.  Pure in ArrivalEvent, as crash replay requires. */
SessionConfig
chaosSession(const ArrivalEvent &a)
{
    SessionConfig s;
    const bool whale = a.mix == 99;
    s.pipeline.profile = whale ? tinyProfile(7, 1920, 1080)
                               : tinyProfile(4242 + a.id);
    s.pipeline.scheme = SchemeConfig::make(Scheme::kGab);
    s.stats_group = a.mix % 2 == 0 ? "even" : "odd";
    return s;
}

/** ~6 concurrent sessions by bandwidth and by max_active. */
FleetConfig
chaosConfig(std::uint32_t shards, unsigned jobs)
{
    const SessionConfig probe = chaosSession(ArrivalEvent{});
    FleetConfig cfg;
    cfg.serve.bandwidth_budget_mbps =
        Session::demandMBps(probe.pipeline) * 6.5;
    cfg.serve.framebuffer_budget_bytes =
        Session::framebufferBytes(probe.pipeline) * 100;
    cfg.serve.max_active = 6;
    cfg.shards = shards;
    cfg.jobs = jobs;
    cfg.rehearse_block = 16;
    return cfg;
}

std::vector<ArrivalEvent>
pressureArrivals(std::uint64_t count = 48)
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

struct FleetRun
{
    std::string report;
    StatsSnapshot snapshot;
    RecoveryTotals recovery;
    std::uint64_t admitted = 0;
    std::uint64_t queued = 0;
    std::uint64_t rejected = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t peak_waiting = 0;
    double bw_reserved_after = 0.0;
    std::uint64_t fb_reserved_after = 0;
    std::uint64_t absorbed_total = 0;
};

FleetRun
runFleet(const FleetConfig &cfg,
         const std::vector<ArrivalEvent> &arrivals)
{
    Placer placer(cfg, chaosSession);
    placer.run(arrivals);
    FleetRun r;
    std::ostringstream os;
    writeFleetReport(os, placer, "test_chaos", arrivals.size(),
                     /*wall_clock_seconds=*/0.0,
                     /*invariant_failures=*/0);
    r.report = os.str();
    r.snapshot = placer.fleetSnapshot();
    r.recovery = placer.recovery();
    r.admitted = placer.admitted();
    r.queued = placer.queuedTotal();
    r.rejected = placer.rejected();
    r.checkpoints = placer.checkpointsTaken();
    r.peak_waiting = placer.peakWaiting();
    for (const Shard &s : placer.shards()) {
        r.bw_reserved_after += s.bwReservedMBps();
        r.fb_reserved_after += s.fbReservedBytes();
        r.absorbed_total += s.absorbed();
    }
    return r;
}

/** Drop the `recovery` object from a pretty fleet report, so a chaos
 * run can be compared byte-wise against a clean one. */
std::string
stripRecovery(const std::string &report)
{
    std::istringstream is(report);
    std::ostringstream os;
    std::string line;
    int depth = 0;
    while (std::getline(is, line)) {
        if (depth > 0) {
            for (const char c : line) {
                depth += c == '{' ? 1 : c == '}' ? -1 : 0;
            }
            continue;
        }
        if (line.find("\"recovery\":") != std::string::npos) {
            depth = 1;
            continue;
        }
        os << line << "\n";
    }
    return os.str();
}

FleetFaultRule
crashRule(Tick at, std::uint32_t shard)
{
    FleetFaultRule r;
    r.cls = FleetFaultClass::kShardCrash;
    r.at = at;
    r.shard = shard;
    return r;
}

// ---------------------------------------------------------------------
// Shard checkpoint and crash rollback
// ---------------------------------------------------------------------

SessionOutcome
shardOutcome(std::uint64_t i)
{
    SessionOutcome o;
    o.id = i;
    o.group = i % 2 == 0 ? "even" : "odd";
    o.final_state =
        i == 3 ? HealthState::kEvicted : HealthState::kHealthy;
    o.breaker_trips = i;
    o.left_early = i == 4;
    o.start_offset = i * 10 * sim_clock::ms;
    o.end_tick = (i + 20) * 10 * sim_clock::ms;
    return o;
}

TEST(ShardCheckpoint, CrashRollsBackToTheCheckpoint)
{
    Shard s(0);
    for (std::uint64_t i = 0; i < 5; ++i) {
        s.absorb(shardOutcome(i));
    }
    s.checkpoint();
    const StatsSnapshot saved = s.snapshot();
    ASSERT_EQ(s.absorbed(), 5u);

    // Work after the checkpoint: more outcomes and a reservation.
    for (std::uint64_t i = 5; i < 9; ++i) {
        s.absorb(shardOutcome(i));
    }
    s.reserve(10.0, 4096);
    ASSERT_NE(s.snapshot(), saved);

    s.crash();
    EXPECT_EQ(s.snapshot(), saved);
    EXPECT_EQ(s.absorbed(), 5u);
    EXPECT_EQ(s.active(), 0u);
    EXPECT_EQ(s.bwReservedMBps(), 0.0);
    EXPECT_EQ(s.fbReservedBytes(), 0u);

    // A second crash with nothing absorbed in between restores the
    // same state.
    s.crash();
    EXPECT_EQ(s.snapshot(), saved);
    EXPECT_EQ(s.absorbed(), 5u);
}

TEST(ShardCheckpointDeathTest, CrashBeforeAnyCheckpointPanics)
{
    Shard s(0);
    EXPECT_DEATH(s.crash(), "before the tick-0 checkpoint");
}

// ---------------------------------------------------------------------
// Rule grammar
// ---------------------------------------------------------------------

TEST(ChaosRules, ParsesWellFormedSpecs)
{
    FleetFaultRule r;
    std::string error;
    ASSERT_TRUE(tryParseFleetFaultRule(FleetFaultClass::kShardCrash,
                                       "at=500ms,shard=1", r, error))
        << error;
    EXPECT_EQ(r.at, 500 * sim_clock::ms);
    EXPECT_EQ(r.shard, 1u);

    ASSERT_TRUE(tryParseFleetFaultRule(
        FleetFaultClass::kShardBrownout,
        "at=1s,shard=2,len=250ms,factor=0.25", r, error))
        << error;
    EXPECT_EQ(r.at, 1 * sim_clock::s);
    EXPECT_EQ(r.duration, 250 * sim_clock::ms);
    EXPECT_DOUBLE_EQ(r.factor, 0.25);

    ASSERT_TRUE(tryParseFleetFaultRule(FleetFaultClass::kFlashCrowd,
                                       "at=200,count=50,len=10,mix=3",
                                       r, error))
        << error;
    EXPECT_EQ(r.at, 200 * sim_clock::ms); // bare numbers are ms
    EXPECT_EQ(r.count, 50u);
    EXPECT_EQ(r.mix, 3u);
}

TEST(ChaosRules, ParserFailsClosed)
{
    FleetFaultRule r;
    std::string error;
    const auto fails = [&](FleetFaultClass c, const std::string &s) {
        return !tryParseFleetFaultRule(c, s, r, error);
    };
    // Missing required keys.
    EXPECT_TRUE(fails(FleetFaultClass::kShardCrash, "at=500ms"));
    EXPECT_TRUE(fails(FleetFaultClass::kShardBrownout,
                      "at=1s,shard=0"));
    EXPECT_TRUE(fails(FleetFaultClass::kFlashCrowd, "at=1s"));
    // Malformed values.
    EXPECT_TRUE(fails(FleetFaultClass::kShardCrash,
                      "at=oops,shard=0"));
    EXPECT_TRUE(fails(FleetFaultClass::kShardBrownout,
                      "at=1s,shard=0,len=1s,factor=0"));
    EXPECT_TRUE(fails(FleetFaultClass::kShardBrownout,
                      "at=1s,shard=0,len=1s,factor=1.5"));
    EXPECT_TRUE(fails(FleetFaultClass::kFlashCrowd,
                      "at=1s,count=0"));
    // Unknown key.
    EXPECT_TRUE(fails(FleetFaultClass::kShardCrash,
                      "at=1s,shard=0,bogus=1"));
    EXPECT_FALSE(error.empty());
}

TEST(ChaosRules, ValidateRejectsImpossibleTargets)
{
    ChaosConfig c;
    c.rules.push_back(crashRule(1 * sim_clock::s, 4));
    EXPECT_DEATH(c.validate(4), "shard");   // target out of range
    c.rules[0].shard = 0;
    EXPECT_DEATH(c.validate(1), "");        // crash needs >= 2 shards
    c.validate(2);                          // fine
}

// ---------------------------------------------------------------------
// Flash crowds
// ---------------------------------------------------------------------

TEST(FlashCrowds, InjectsSortedBurstWithFreshIds)
{
    std::vector<ArrivalEvent> base = pressureArrivals(10);
    const std::uint64_t max_id = base.back().id;

    ChaosConfig chaos;
    FleetFaultRule flood;
    flood.cls = FleetFaultClass::kFlashCrowd;
    flood.at = 100 * sim_clock::ms;
    flood.duration = 50 * sim_clock::ms;
    flood.count = 8;
    flood.mix = 1;
    chaos.rules.push_back(flood);

    const std::vector<ArrivalEvent> merged =
        withFlashCrowds(base, chaos);
    ASSERT_EQ(merged.size(), base.size() + 8);
    std::uint64_t flood_seen = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (i > 0) {
            EXPECT_GE(merged[i].tick, merged[i - 1].tick) << i;
        }
        if (merged[i].id > max_id) {
            // Flood ids are sequential after the largest base id.
            EXPECT_EQ(merged[i].id, max_id + 1 + flood_seen);
            EXPECT_EQ(merged[i].mix, 1u);
            EXPECT_GE(merged[i].tick, flood.at);
            EXPECT_LE(merged[i].tick, flood.at + flood.duration);
            ++flood_seen;
        }
    }
    EXPECT_EQ(flood_seen, 8u);

    // No flood rules: identity.
    EXPECT_EQ(withFlashCrowds(base, ChaosConfig{}).size(),
              base.size());
}

// ---------------------------------------------------------------------
// The recovery contract
// ---------------------------------------------------------------------

TEST(ChaosRecovery, CrashAtEveryBoundaryEqualsUnfailedRun)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals();
    const FleetRun clean = runFleet(chaosConfig(4, 1), arrivals);
    ASSERT_FALSE(clean.recovery.any());

    // Sweep the crash tick across checkpoint boundaries, mid-interval
    // points, and the exact boundary tick (checkpoint ranks before
    // crash at the same tick, so that crash loses nothing).  At
    // 2150 ms shard 1 has finished a session since its last
    // checkpoint, so that crash must replay the journal.
    const Tick period = 100 * sim_clock::ms;
    std::uint64_t replayed = 0;
    for (const Tick at :
         {period, period + 1, 250 * sim_clock::ms, 3 * period,
          777 * sim_clock::ms, 2 * sim_clock::s,
          2150 * sim_clock::ms}) {
        FleetConfig cfg = chaosConfig(4, 1);
        cfg.chaos.checkpoint_period = period;
        cfg.chaos.rules.push_back(crashRule(at, 1));
        const FleetRun crashed = runFleet(cfg, arrivals);

        EXPECT_EQ(crashed.recovery.crashes, 1u) << "at=" << at;
        EXPECT_EQ(stripRecovery(crashed.report),
                  stripRecovery(clean.report))
            << "crash at " << at
            << " changed the report beyond the recovery block";
        EXPECT_EQ(crashed.snapshot, clean.snapshot) << "at=" << at;
        EXPECT_EQ(crashed.admitted, clean.admitted) << "at=" << at;
        EXPECT_EQ(crashed.queued, clean.queued) << "at=" << at;
        // Checkpoint + journal reconstruct finished outcomes only.
        EXPECT_LE(crashed.recovery.restored +
                      crashed.recovery.replayed,
                  clean.admitted)
            << "at=" << at;
        EXPECT_GT(crashed.checkpoints, 0u);
        replayed += crashed.recovery.replayed;
    }
    EXPECT_GT(replayed, 0u) << "no crash position replayed a journal";
}

TEST(ChaosRecovery, FailoverConservesTheGlobalBudget)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals();
    FleetConfig cfg = chaosConfig(4, 1);
    cfg.chaos.checkpoint_period = 100 * sim_clock::ms;
    // Crash mid-run, when the budget is saturated and sessions are
    // in flight on every shard.
    cfg.chaos.rules.push_back(crashRule(613 * sim_clock::ms, 2));
    const FleetRun r = runFleet(cfg, arrivals);

    EXPECT_GT(r.recovery.failed_over, 0u);
    // Every reservation released by the end: failover moved in-flight
    // sessions without leaking or double-counting budget.
    EXPECT_DOUBLE_EQ(r.bw_reserved_after, 0.0);
    EXPECT_EQ(r.fb_reserved_after, 0u);
    // Every admitted session absorbed by exactly one shard, crash or
    // not - restored + replayed outcomes land back in the fleet.
    EXPECT_EQ(r.absorbed_total, r.admitted);
    EXPECT_EQ(r.snapshot.count("sessions"), r.admitted);
}

TEST(ChaosRecovery, BrownoutIsStatsNeutral)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals();
    const FleetRun clean = runFleet(chaosConfig(4, 1), arrivals);

    FleetFaultRule rule;
    rule.cls = FleetFaultClass::kShardBrownout;
    rule.at = 200 * sim_clock::ms;
    rule.shard = 0;
    rule.duration = 800 * sim_clock::ms;
    rule.factor = 0.25;
    FleetConfig cfg = chaosConfig(4, 1);
    cfg.chaos.rules.push_back(rule);
    const FleetRun browned = runFleet(cfg, arrivals);

    EXPECT_EQ(browned.recovery.brownouts, 1u);
    // Slices are advisory: a derated shard steers placement only.
    EXPECT_EQ(stripRecovery(browned.report),
              stripRecovery(clean.report));
    EXPECT_EQ(browned.snapshot, clean.snapshot);
}

TEST(ChaosRecovery, ReportIsShardAndJobsInvariantUnderChaos)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals();
    const auto chaosed = [&](std::uint32_t shards, unsigned jobs) {
        FleetConfig cfg = chaosConfig(shards, jobs);
        cfg.chaos.checkpoint_period = 100 * sim_clock::ms;
        cfg.chaos.rules.push_back(crashRule(400 * sim_clock::ms, 1));
        return runFleet(cfg, arrivals);
    };
    const FleetRun two = chaosed(2, 1);
    const FleetRun five = chaosed(5, 1);
    const FleetRun threaded = chaosed(5, 8); // TSan covers jobs 8
    // Across shard counts the merged stats are byte-identical; the
    // recovery ledger legitimately differs (which sessions sat on
    // the crashed shard is a fact about the partitioning).
    EXPECT_EQ(stripRecovery(two.report), stripRecovery(five.report));
    EXPECT_EQ(two.snapshot, five.snapshot);
    EXPECT_EQ(two.recovery.crashes, five.recovery.crashes);
    // Across job counts the partitioning is identical, so the whole
    // report - recovery ledger included - is byte-exact.
    EXPECT_EQ(five.report, threaded.report);
    EXPECT_EQ(five.recovery, threaded.recovery);
}

TEST(ChaosRecovery, SheddingBoundsTheQueue)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals(72);
    FleetConfig cfg = chaosConfig(2, 1);
    cfg.chaos.shed_depth = 4;
    const FleetRun r = runFleet(cfg, arrivals);
    EXPECT_GT(r.recovery.shed, 0u);
    EXPECT_LE(r.peak_waiting, cfg.chaos.shed_depth);
    // Accounting still closes with shed arrivals in the ledger.
    EXPECT_EQ(r.admitted + r.rejected + r.recovery.shed,
              arrivals.size());
}

// ---------------------------------------------------------------------
// Admission-queue deadline
// ---------------------------------------------------------------------

TEST(QueueDeadline, ExpiresOverdueFleetArrivals)
{
    const std::vector<ArrivalEvent> arrivals = pressureArrivals(72);
    FleetConfig cfg = chaosConfig(2, 1);
    cfg.serve.queue_deadline = 20 * sim_clock::ms;
    const FleetRun r = runFleet(cfg, arrivals);
    EXPECT_GT(r.recovery.queue_timeouts, 0u);
    EXPECT_EQ(r.admitted + r.rejected + r.recovery.queue_timeouts,
              arrivals.size());

    // Deadline 0 is the legacy unbounded queue.
    const FleetRun unbounded = runFleet(chaosConfig(2, 1), arrivals);
    EXPECT_EQ(unbounded.recovery.queue_timeouts, 0u);
    EXPECT_EQ(unbounded.admitted + unbounded.rejected,
              arrivals.size());
}

TEST(QueueDeadline, SingleShardRecordsTimeoutOutcomes)
{
    // Budget for one tiny session; three arrive at once with a
    // deadline shorter than a session span: the two queued behind
    // the first must expire with marker outcomes.
    const SessionConfig probe = chaosSession(ArrivalEvent{});
    FleetConfig cfg;
    cfg.serve.bandwidth_budget_mbps =
        Session::demandMBps(probe.pipeline) * 1.5;
    cfg.serve.framebuffer_budget_bytes =
        Session::framebufferBytes(probe.pipeline) * 2;
    cfg.serve.max_active = 1;
    cfg.serve.queue_deadline = 50 * sim_clock::ms;

    std::vector<ArrivalEvent> arrivals(3);
    for (std::uint64_t id = 0; id < 3; ++id) {
        arrivals[id].id = id;
    }
    std::vector<SessionOutcome> outcomes;
    Placer placer(cfg, chaosSession, [&](const SessionOutcome &o) {
        outcomes.push_back(o);
    });
    placer.run(arrivals);

    EXPECT_EQ(placer.admitted(), 1u);
    EXPECT_EQ(placer.queuedTotal(), 2u);
    EXPECT_EQ(placer.peakWaiting(), 2u);
    EXPECT_EQ(placer.recovery().queue_timeouts, 2u);
    ASSERT_EQ(outcomes.size(), 3u);
    std::uint64_t markers = 0;
    for (const SessionOutcome &o : outcomes) {
        if (o.queue_timeout) {
            ++markers;
            EXPECT_NE(o.id, 0u);
            EXPECT_EQ(o.end_tick - o.start_offset,
                      cfg.serve.queue_deadline);
            EXPECT_EQ(o.result.totalEnergy(), 0.0);
        }
    }
    EXPECT_EQ(markers, 2u);
    // Markers are observed when they expire, before the admitted
    // session (which outlasts the deadline) finishes.
    EXPECT_FALSE(outcomes.back().queue_timeout);
}

} // namespace
} // namespace vstream
