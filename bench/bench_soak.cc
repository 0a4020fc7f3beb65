/**
 * @file
 * Multi-session soak: hundreds of short sessions with mixed fault
 * storms through a single-shard Placer.
 *
 * Five session mixes rotate across the fleet:
 *
 *   clean    no faults - doubles as the isolation oracle: its
 *            serve-side energy/drops must be bit-identical to a solo
 *            VideoPipeline run of the same config;
 *   stall    an arrival-stall storm mid-playback (underruns degrade
 *            the session, which recovers once the storm passes);
 *   dram     a DRAM timeout storm dense enough to exhaust the
 *            abandon budget (quarantine -> eviction);
 *   digest   injected MACH collisions under verify-on-hit (false-hit
 *            storm trips the circuit breaker; the storm ends, the
 *            cooldown expires, the re-probe closes it again);
 *   trace    a corrupted ingest trace (TraceError quarantines the
 *            session at start).
 *
 * Every session arrives at tick 0; the admission queue then meters
 * them onto the serving timeline.  A few deliberately over-budget
 * "whale" arrivals exercise the rejection path.  Every seed is fixed
 * and every per-session fault stream comes from
 * FaultConfig::forSession, so two runs emit identical
 * "vstream-soak-1" JSON (modulo wall_clock_seconds) - the CI
 * soak-smoke job asserts exactly that, under ASan+UBSan.
 *
 * `--jobs N` (or VSTREAM_JOBS) rehearses the sessions across worker
 * threads (Placer::run) and fans the solo isolation oracle the same
 * way; the JSON stays byte-identical at any job count because
 * session evolution is offset-invariant.
 *
 * The harness verifies its own acceptance invariants (fatal faults
 * resolve to Quarantined/Evicted, clean sessions are bit-identical
 * to solo runs, tripped breakers recover) and exits non-zero when
 * any fails.
 *
 * `--shards N` switches to *fleet* mode: `--sessions M` short
 * sessions (the same five mixes, scaled to ~0.4 s each) arrive via
 * a seeded Poisson process with mid-stream leaves, routed by the
 * Placer across N shards under one global budget, with stats folded
 * into O(shards) mergeable snapshots.  The fleet is the benchmark's
 * (benchmark/workloads.hh, seed 0), so its fleet-churn and
 * fleet-dedup workloads are this mode with the flags in
 * benchmark/README.md.  Fleet JSON carries neither the shard nor the
 * job count and is byte-identical at any value of either (the CI
 * shard-smoke job and tests/test_shard.cc assert this); see
 * docs/SERVING.md and docs/FORMATS.md.  The chaos, dedup and library
 * flags need `--shards`; bad flags exit with status 2.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>

#include "../benchmark/workloads.hh"
#include "bench_util.hh"
#include "serve/cli_args.hh"
#include "serve/fleet_report.hh"
#include "video/synthetic_video.hh"

namespace
{

using namespace vstream;
using namespace vstream::bench;
using vbench::kMixNames;
using vbench::kNumMixes;

/**
 * One single-shard session of mix @p mix (= id % kNumMixes): the
 * fleet's mixes at the soak's full 96x48 size, with fault windows
 * spread over its longer playback.
 */
SessionConfig
makeSession(std::uint64_t id, std::uint32_t frames_n,
            const std::vector<std::uint8_t> &intact_blob)
{
    const std::size_t mix = id % kNumMixes;
    SessionConfig s;
    s.id = id;
    s.health = vbench::soakHealth();
    s.breaker = vbench::soakBreaker();

    PipelineConfig &cfg = s.pipeline;
    cfg.profile = vbench::soakProfile(id, frames_n, /*seed=*/0);
    // Rotate the scheme so the fleet is heterogeneous; digest
    // sessions need a MACH to break.
    const Scheme schemes[] = {Scheme::kRaceToSleep, Scheme::kGab,
                              Scheme::kMab, Scheme::kBatching};
    cfg.scheme = SchemeConfig::make(
        mix == 3 ? Scheme::kGab : schemes[(id / kNumMixes) % 4]);
    cfg.faults.seed = 0xfa0175eedULL;

    switch (mix) {
    case 0: // clean
        break;
    case 1: // arrival-stall storm
        cfg.arrival.enabled = true;
        cfg.arrival.bandwidth_mbps = 2.0;
        cfg.arrival.jitter_frac = 0.2;
        cfg.preroll_frames = 2; // arrival preroll mirrors this
        cfg.arrival.seed = 0xa441 + id;
        // Delivery of the whole clip takes ~40ms at 2 Mbps, so the
        // storm window covers early delivery; one long stall starves
        // the first playback windows, then the link catches up.
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kNetworkStall,
            "p=0.35,from=1ms,until=25ms,len=120ms"));
        // Lax quarantine streak: this mix must degrade and recover,
        // not evict.
        s.health.quarantine_windows = 4;
        break;
    case 2: // DRAM timeout storm (abandon-budget exhaustion)
        cfg.faults.dram_retry_limit = 2;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDramTimeout,
            "p=0.6,from=250ms,until=650ms"));
        break;
    case 3: // MACH false-hit storm (breaker trip + recovery)
        cfg.mach.verify_on_hit = true;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDigestCollision,
            "p=0.2,from=150ms,until=700ms"));
        break;
    case 4: { // corrupted ingest trace
        s.trace_blob = intact_blob;
        // Flip one byte past the header, at an id-dependent offset.
        const std::size_t off =
            64 + (static_cast<std::size_t>(id) * 131) %
                     (s.trace_blob.size() - 64);
        s.trace_blob[off] ^= 0x5a;
        break;
    }
    default:
        break;
    }
    // Independent, reproducible per-session fault streams.
    cfg.faults = cfg.faults.forSession(id);
    return s;
}

bool
check(bool ok, const char *what, int &failures)
{
    if (!ok) {
        std::cout << "SOAK FAIL: " << what << "\n";
        ++failures;
    }
    return ok;
}

// ---- fleet mode -------------------------------------------------------

/**
 * Fleet soak: the benchmark's fleet (Poisson arrivals with mid-stream
 * leaves, every 1000th arrival an over-budget whale) through the
 * Placer, plus what FleetSpec cannot express: repeatable chaos rules,
 * shedding and dedup poisoning.  The emitted vstream-soak-1 JSON
 * (mode "fleet") mentions neither the shard nor the job count; both
 * are placement/execution detail outside the bytes.  Everything the
 * chaos layer did lands in the report's `recovery` block
 * (docs/FORMATS.md).
 */
int
runFleet(std::uint32_t n_sessions, std::uint32_t n_shards,
         unsigned n_jobs, const cli::FleetFlags &flags)
{
    const auto wall_start = std::chrono::steady_clock::now();

    vbench::FleetSpec spec;
    spec.sessions = n_sessions;
    spec.shards = n_shards;
    spec.checkpoint_period = flags.chaos.checkpoint_period;
    spec.queue_deadline = flags.queue_deadline;
    spec.dedup = flags.dedup.enabled;
    spec.library = flags.library;
    const std::unique_ptr<vbench::FleetInputs> in =
        vbench::buildFleetInputs(spec, n_jobs, /*seed=*/0);
    in->config.chaos.rules = flags.chaos.rules;
    in->config.chaos.shed_depth = flags.chaos.shed_depth;
    in->config.dedup.poison = flags.dedup.poison;
    // Flash crowds are offered load: they join the schedule before
    // the Placer sees it, so whale counting and arrival totals cover
    // them too.  With no flood rules this is the identity.
    in->arrivals = withFlashCrowds(std::move(in->arrivals),
                                   in->config.chaos);
    const std::vector<ArrivalEvent> &arrivals = in->arrivals;

    Placer placer(in->config,
                  [&](const ArrivalEvent &a) { return in->session(a); });
    placer.run(arrivals);

    const StatsSnapshot fleet_stats = placer.fleetSnapshot();
    const RecoveryTotals &rec = placer.recovery();
    const auto expected_whales = std::count_if(
        arrivals.begin(), arrivals.end(),
        [](const ArrivalEvent &a) { return vbench::isFleetWhale(a.id); });
    const std::uint64_t failures =
        vbench::fleetInvariantFailures(placer, arrivals, fleet_stats);
    if (failures > 0) {
        std::cout << "SOAK FAIL: " << failures
                  << " fleet invariant(s) (vbench::"
                     "fleetInvariantFailures)\n";
    }

    // ---- console summary ----------------------------------------------
    std::cout << "fleet: " << n_sessions << " sessions, "
              << placer.shards().size() << " shard(s)\n";
    std::cout << "admitted " << placer.admitted() << ", queued "
              << placer.queuedTotal() << ", rejected "
              << placer.rejected() << " (whales " << expected_whales
              << ")\n";
    std::cout << "evicted " << fleet_stats.count("state.evicted")
              << ", left early " << fleet_stats.count("leftEarly")
              << ", breaker trips "
              << fleet_stats.count("breaker.trips") << "\n";
    std::cout << "peak active " << placer.peakActive()
              << ", peak waiting " << placer.peakWaiting()
              << ", virtual end " << std::fixed
              << std::setprecision(2)
              << ticksToMs(placer.endTick()) / 1e3 << " s, "
              << placer.rebalances() << " rebalances\n";
    if (rec.any()) {
        std::cout << "recovery: " << rec.crashes << " crash(es), "
                  << rec.brownouts << " brownout(s), restored "
                  << rec.restored << " + replayed " << rec.replayed
                  << ", failed over " << rec.failed_over << ", shed "
                  << rec.shed << ", queue timeouts "
                  << rec.queue_timeouts << " ("
                  << placer.checkpointsTaken()
                  << " checkpoint rounds)\n";
    }
    const ScalarAgg *energy = fleet_stats.scalar("energyJ");
    if (energy != nullptr) {
        std::cout << "aggregate energy " << energy->sum() * 1e3
                  << " mJ across " << energy->count
                  << " sessions\n";
    }
    if (const SharedMachTier *tier = placer.dedupTier()) {
        const DedupDomainStats t = tier->totals();
        std::cout << "dedup: " << t.shared_hits
                  << " shared hit(s), " << t.bytes_elided
                  << " B elided, " << t.unique_published
                  << " published, " << t.false_hits
                  << " false hit(s), " << t.trips << " trip(s)\n";
    }
    const HdrHistogram *span = fleet_stats.histogram("spanUs");
    if (span != nullptr) {
        std::cout << "session span p50 "
                  << static_cast<double>(span->percentile(0.5)) / 1e3
                  << " ms, p99 "
                  << static_cast<double>(span->percentile(0.99)) /
                         1e3
                  << " ms\n";
    }
    if (failures == 0) {
        std::cout << "fleet invariants: all hold\n";
    }

    // ---- vstream-soak-1 JSON (fleet mode) -----------------------------
    const char *path = std::getenv("VSTREAM_STATS_JSON");
    if (path != nullptr && path[0] != '\0') {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        std::ofstream os(path);
        writeFleetReport(os, placer, "bench_soak", n_sessions, wall,
                         failures);
    }
    return failures == 0 ? 0 : 1;
}

/** The content store's hits and misses over the run, on stderr: they
 * follow the order in which worker threads build sessions, so they
 * stay out of stdout and the JSON. */
void
reportContentStore()
{
    const SyntheticVideo::StoreStats s = SyntheticVideo::storeStats();
    std::cerr << "content store: " << s.hits << " hits, " << s.misses
              << " misses\n";
}

struct MixTally
{
    std::uint64_t sessions = 0;
    std::array<std::uint64_t, kNumHealthStates> final_states{};
    std::uint64_t breaker_trips = 0;
    Tick degraded_dwell = 0;
    double energy_j = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    unsigned n_jobs = defaultJobs();
    std::uint32_t n_shards = 0;
    std::optional<std::uint32_t> sessions;
    cli::FleetFlags flags;
    cli::parseFlags(argc, argv, [&](cli::Flag &f) {
        if (f.is("--jobs")) {
            n_jobs = parseJobs(f.next().c_str());
        } else if (f.is("--shards")) {
            n_shards = f.nextU32();
        } else if (f.is("--sessions")) {
            sessions = f.nextU32();
        } else {
            return cli::fleetFlag(f, flags);
        }
        return true;
    });
    if (n_shards == 0 && !flags.first.empty()) {
        cli::exitUsage(argv[0], flags.first + " needs --shards");
    }

    header("Soak: mixed-fault session fleet through a single-shard "
           "Placer",
           "robustness extension - admission control, fault "
           "domains, circuit breakers under storm load");

    if (n_shards > 0) {
        // Fleet mode: Poisson churn through the sharded Placer.
        const int status = runFleet(
            sessions.value_or(envU32("VSTREAM_SOAK_SESSIONS", 2000)),
            n_shards, n_jobs, flags);
        reportContentStore();
        return status;
    }

    const std::uint32_t n_sessions =
        sessions.value_or(envU32("VSTREAM_SOAK_SESSIONS", 120));
    const std::uint32_t frames_n = frames(96);
    const auto wall_start = std::chrono::steady_clock::now();

    FleetConfig single;
    single.serve.bandwidth_budget_mbps = 300.0;
    single.serve.framebuffer_budget_bytes = 64ULL << 20;
    single.serve.max_active = 24;
    single.jobs = n_jobs;

    const std::vector<std::uint8_t> intact_blob = vbench::makeTraceBlob();

    std::vector<SessionConfig> solo_copies;
    solo_copies.reserve(n_sessions);
    for (std::uint32_t i = 0; i < n_sessions; ++i) {
        solo_copies.push_back(makeSession(i, frames_n, intact_blob));
    }

    // Everyone arrives at tick 0, whales first: both budgets reject
    // them outright (and the Placer never rehearses them).  The mix
    // field tells whales from sessions, whose ids may overlap.
    constexpr std::uint32_t kWhaleMix = 1;
    std::vector<ArrivalEvent> arrivals;
    arrivals.reserve(3 + n_sessions);
    for (std::uint64_t w = 0; w < 3; ++w) {
        ArrivalEvent a;
        a.id = 1000 + w;
        a.mix = kWhaleMix;
        arrivals.push_back(a);
    }
    for (std::uint32_t i = 0; i < n_sessions; ++i) {
        ArrivalEvent a;
        a.id = i;
        arrivals.push_back(a);
    }
    std::vector<SessionOutcome> outcomes;
    outcomes.reserve(n_sessions);
    Placer placer(
        single,
        [&](const ArrivalEvent &a) {
            return a.mix == kWhaleMix ? vbench::makeWhale(a.id, 0)
                                      : solo_copies[a.id];
        },
        [&](const SessionOutcome &o) { outcomes.push_back(o); });
    placer.run(arrivals);
    const StatsSnapshot served = placer.fleetSnapshot();

    // ---- tallies ------------------------------------------------------
    std::array<MixTally, kNumMixes> mixes{};
    std::array<Tick, kNumHealthStates> dwell{};
    FaultTotals faults;
    std::uint64_t reprobes = 0;
    std::uint64_t recovered_breakers = 0;
    double aggregate_j = 0.0;
    int failures = 0;

    for (const SessionOutcome &o : outcomes) {
        const std::size_t mix = o.id % kNumMixes;
        MixTally &t = mixes[mix];
        ++t.sessions;
        ++t.final_states[static_cast<std::size_t>(o.final_state)];
        t.breaker_trips += o.breaker_trips;
        t.degraded_dwell +=
            o.dwell[static_cast<std::size_t>(HealthState::kDegraded)];
        t.energy_j += o.result.totalEnergy();
        aggregate_j += o.result.totalEnergy();
        for (std::size_t st = 0; st < kNumHealthStates; ++st) {
            dwell[st] += o.dwell[st];
        }
        faults.injected += o.result.faults.injected;
        faults.recovered += o.result.faults.recovered;
        faults.abandoned += o.result.faults.abandoned;
        reprobes += o.breaker_reprobes;
        if (o.breaker_trips > 0 &&
            o.breaker_state == CircuitBreaker::State::kClosed) {
            ++recovered_breakers;
        }

        // Fatal conditions must resolve inside the ladder.
        if (mix == 2 || mix == 4) {
            check(o.final_state == HealthState::kEvicted,
                  "fatal-mix session did not end Evicted", failures);
        }
        if (mix == 4) {
            check(o.trace_error != TraceError::kNone,
                  "trace-mix session loaded a corrupt blob cleanly",
                  failures);
        }
    }
    check(outcomes.size() == n_sessions,
          "not every submitted session completed", failures);
    check(placer.rejected() == 3, "whales were not all rejected",
          failures);
    check(placer.queuedTotal() > 0,
          "admission queue never engaged (raise the fleet size)",
          failures);
    check(mixes[3].breaker_trips > 0, "no breaker ever tripped",
          failures);
    check(mixes[1].degraded_dwell > 0,
          "the stall mix never exercised the Degraded state",
          failures);
    check(recovered_breakers > 0,
          "no tripped breaker recovered after its cooldown",
          failures);

    // ---- isolation oracle: clean sessions == solo runs ----------------
    std::vector<std::uint32_t> clean_ids;
    for (std::uint32_t i = 0; i < n_sessions; ++i) {
        if (i % kNumMixes == 0) {
            clean_ids.push_back(i);
        }
    }
    const std::vector<PipelineResult> solo_results = parallelMap(
        n_jobs, clean_ids.size(), [&](std::size_t k) {
            VideoPipeline solo(solo_copies[clean_ids[k]].pipeline);
            return solo.run();
        });
    double baseline_j = 0.0;
    double max_delta_j = 0.0;
    for (std::size_t k = 0; k < clean_ids.size(); ++k) {
        const std::uint32_t i = clean_ids[k];
        const PipelineResult &solo_r = solo_results[k];
        baseline_j += solo_r.totalEnergy();
        const SessionOutcome *o = nullptr;
        for (const SessionOutcome &cand : outcomes) {
            if (cand.id == i) {
                o = &cand;
                break;
            }
        }
        if (!check(o != nullptr, "clean session missing an outcome",
                   failures)) {
            continue;
        }
        const double delta = std::abs(solo_r.totalEnergy() -
                                      o->result.totalEnergy());
        max_delta_j = std::max(max_delta_j, delta);
        check(solo_r.totalEnergy() == o->result.totalEnergy() &&
                  solo_r.drops == o->result.drops,
              "clean session diverged from its solo run", failures);
    }

    // ---- console summary ----------------------------------------------
    std::cout << std::left << std::setw(10) << "mix" << std::right
              << std::setw(10) << "sessions" << std::setw(10)
              << "healthy" << std::setw(10) << "degraded"
              << std::setw(13) << "quarantined" << std::setw(10)
              << "evicted" << std::setw(8) << "trips" << std::setw(12)
              << "energy mJ" << "\n";
    std::cout << std::fixed << std::setprecision(2);
    for (std::size_t m = 0; m < kNumMixes; ++m) {
        const MixTally &t = mixes[m];
        std::cout << std::left << std::setw(10) << kMixNames[m]
                  << std::right << std::setw(10) << t.sessions
                  << std::setw(10) << t.final_states[0]
                  << std::setw(10) << t.final_states[1]
                  << std::setw(13) << t.final_states[2]
                  << std::setw(10) << t.final_states[3]
                  << std::setw(8) << t.breaker_trips << std::setw(12)
                  << t.energy_j * 1e3 << "\n";
    }
    std::cout << "\nadmitted " << placer.admitted() << ", queued "
              << placer.queuedTotal() << ", rejected "
              << placer.rejected() << ", evicted "
              << served.count("state.evicted") << ", breaker trips "
              << served.count("breaker.trips") << " (reprobes " << reprobes
              << ", recovered " << recovered_breakers << ")\n";
    std::cout << "aggregate energy " << aggregate_j * 1e3
              << " mJ; clean-mix isolated baseline " << baseline_j * 1e3
              << " mJ (max delta " << max_delta_j << " J)\n";
    if (failures == 0) {
        std::cout << "soak invariants: all holds\n";
    }

    // ---- vstream-soak-1 JSON ------------------------------------------
    const char *path = std::getenv("VSTREAM_STATS_JSON");
    if (path != nullptr && path[0] != '\0') {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        std::ofstream os(path);
        JsonWriter w(os, /*pretty=*/true);
        w.beginObject();
        w.kv("schema", "vstream-soak-1");
        w.kv("bench", "bench_soak");
        w.kv("sessions", static_cast<double>(n_sessions));
        w.kv("wall_clock_seconds", wall);
        w.key("admission");
        w.beginObject();
        w.kv("admitted", static_cast<double>(placer.admitted()));
        w.kv("queued", static_cast<double>(placer.queuedTotal()));
        w.kv("rejected", static_cast<double>(placer.rejected()));
        w.endObject();
        w.kv("evictions",
             static_cast<double>(served.count("state.evicted")));
        w.key("breaker");
        w.beginObject();
        w.kv("trips",
             static_cast<double>(served.count("breaker.trips")));
        w.kv("reprobes", static_cast<double>(reprobes));
        w.kv("recoveredSessions",
             static_cast<double>(recovered_breakers));
        w.endObject();
        w.key("finalStates");
        w.beginObject();
        for (std::size_t st = 0; st < kNumHealthStates; ++st) {
            std::uint64_t count = 0;
            for (const MixTally &t : mixes) {
                count += t.final_states[st];
            }
            w.kv(healthStateName(static_cast<HealthState>(st)),
                 static_cast<double>(count));
        }
        w.endObject();
        w.key("dwellMs");
        w.beginObject();
        for (std::size_t st = 0; st < kNumHealthStates; ++st) {
            w.kv(healthStateName(static_cast<HealthState>(st)),
                 ticksToMs(dwell[st]));
        }
        w.endObject();
        w.key("energy");
        w.beginObject();
        w.kv("aggregateJ", aggregate_j);
        w.kv("cleanIsolatedBaselineJ", baseline_j);
        w.kv("cleanIsolationMaxDeltaJ", max_delta_j);
        w.endObject();
        w.key("faults");
        w.beginObject();
        w.kv("injected", static_cast<double>(faults.injected));
        w.kv("recovered", static_cast<double>(faults.recovered));
        w.kv("abandoned", static_cast<double>(faults.abandoned));
        w.endObject();
        w.key("mixes");
        w.beginObject();
        for (std::size_t m = 0; m < kNumMixes; ++m) {
            w.key(kMixNames[m]);
            w.beginObject();
            w.kv("sessions",
                 static_cast<double>(mixes[m].sessions));
            w.kv("evicted",
                 static_cast<double>(mixes[m].final_states[3]));
            w.kv("breakerTrips",
                 static_cast<double>(mixes[m].breaker_trips));
            w.kv("energyJ", mixes[m].energy_j);
            w.endObject();
        }
        w.endObject();
        w.kv("invariantFailures", static_cast<double>(failures));
        w.endObject();
    }

    reportContentStore();
    return failures == 0 ? 0 : 1;
}
