/**
 * @file
 * vstream_serve - the multi-session server front end.
 *
 * Drives N concurrent streaming sessions through the Placer (one
 * shard unless --shards says otherwise): admission control against
 * aggregate DRAM-bandwidth / frame-buffer budgets, per-session fault
 * domains walking the Healthy -> Degraded -> Quarantined -> Evicted
 * ladder, and the per-session MACH circuit breaker.  Fault rules given here are remixed per session with
 * FaultConfig::forSession, so every session draws an independent
 * fault stream from one schedule.
 *
 * Usage:
 *   vstream_serve [options]
 *     --sessions N          number of sessions (default 8)
 *     --video KEY           workload V1..V16 (default V8)
 *     --frames N            frames per session (default 300)
 *     --scheme X            L|B|R|S|M|G (default G)
 *     --max-active N        concurrent-session cap (default 64)
 *     --window N            health window, vsyncs (default 32)
 *     --stats-json FILE     dump serve.* statistics as JSON
 *     --jobs N              rehearse sessions across N threads
 *                           (output identical at any job count)
 *
 * Fleet options (all but --queue-deadline need --shards; see
 * docs/SERVING.md):
 *     --shards N            route sessions across N shards under one
 *                           global budget (fleet mode; JSON is
 *                           byte-identical at any shard/job count)
 *     --arrival-rate R      Poisson arrivals, sessions/s (default 550)
 *     --leave-prob P        chance a viewer leaves mid-stream
 *     --arrival-trace FILE  replay a text arrival trace instead
 *                           (lines: <arrival_us> <watch_us> <mix>)
 *     --queue-deadline MS   expire sessions queued this long
 *
 * Shared-MACH dedup options (see docs/ROBUSTNESS.md):
 *     --dedup on|off        consult the shared cross-session MACH
 *                           tier (default off; off is byte-identical
 *                           to builds without the tier)
 *     --library SPEC        draw session content from a Zipf
 *                           catalogue: "titles=64,skew=0.9,seed=7"
 *     --dedup-poison SPEC   forge digest collisions against one
 *                           domain: "domain=1,rate=0.25,seed=9"
 *
 * Chaos options (need --shards; see docs/ROBUSTNESS.md):
 *     --chaos-crash SPEC    crash a shard: "at=500ms,shard=1"
 *     --chaos-brownout SPEC shrink a shard's budget slice:
 *                           "at=300ms,shard=0,len=500ms,factor=0.5"
 *     --chaos-flood SPEC    flash-crowd burst:
 *                           "at=200ms,count=300,len=50ms[,mix=V8]"
 *     --checkpoint-period MS  shard checkpoint cadence (default:
 *                           on iff a crash rule is present)
 *     --shed-depth N        shed arrivals once the wait queue holds N
 *
 * Robustness options (per-session; see docs/ROBUSTNESS.md):
 *     --arrival-bandwidth MBPS, --arrival-jitter SIGMA,
 *     --arrival-preroll N, --fault-seed N, --fault-retry N,
 *     --fault-stall SPEC, --fault-digest SPEC, --fault-dram SPEC,
 *     --verify-on-hit
 *   SPEC = "p=0.01,from=200ms,until=1.5s,max=3,len=250ms".
 *
 * Every value option also accepts the --opt=VALUE spelling.  Bad
 * input (an unknown flag, a malformed number or spec, a fleet or
 * chaos flag without --shards) exits with status 2.
 */

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>

#include "serve/cli_args.hh"
#include "serve/fleet_report.hh"
#include "sim/parallel.hh"
#include "sim/stats_registry.hh"
#include "video/library.hh"
#include "video/workloads.hh"

namespace
{

using namespace vstream;

const spec_fields::RealField kRateField{
    "rate", 0.0, std::numeric_limits<double>::max(), true,
    " (need sessions/s > 0)"};
const spec_fields::RealField kLeaveField{"probability", 0.0, 1.0, false,
                                         " (need [0, 1])"};

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t sessions = 8, frames = 300, window = 32;
    std::string video = "V8";
    Scheme scheme = Scheme::kGab;
    std::string stats_json_file;
    std::uint32_t shards = 0;
    double arrival_rate = 550.0, leave_prob = 0.0;
    std::string arrival_trace_file;
    // The last flag given that only fleet mode reads, else "".
    std::string fleet_only;
    // The per-session flags fill this template; the fleet flags fill
    // `flags`.
    PipelineConfig session;
    cli::FleetFlags flags;
    FleetConfig fleet;
    fleet.jobs = defaultJobs();

    cli::parseFlags(
        argc, argv,
        [&](cli::Flag &f) {
            if (f.is("--sessions")) {
                sessions = f.nextU32();
            } else if (f.is("--video")) {
                video = f.next();
            } else if (f.is("--frames")) {
                frames = f.nextU32();
            } else if (f.is("--scheme")) {
                scheme = f.nextScheme();
            } else if (f.is("--max-active")) {
                fleet.serve.max_active = f.nextU32();
            } else if (f.is("--window")) {
                window = f.nextU32();
            } else if (f.is("--stats-json")) {
                stats_json_file = f.next();
            } else if (f.is("--jobs")) {
                fleet.jobs = parseJobs(f.next().c_str());
            } else if (f.is("--shards")) {
                shards = f.nextU32();
            } else if (f.is("--arrival-rate")) {
                arrival_rate = f.nextReal(kRateField);
                fleet_only = f.name();
            } else if (f.is("--leave-prob")) {
                leave_prob = f.nextReal(kLeaveField);
                fleet_only = f.name();
            } else if (f.is("--arrival-trace")) {
                arrival_trace_file = f.next();
                fleet_only = f.name();
            } else {
                return cli::sessionFlag(f, session) ||
                       cli::fleetFlag(f, flags);
            }
            return true;
        });
    // Single-shard serving offers every session at tick 0, has one
    // fault domain (dedup poison rules must target domain 0) and no
    // chaos layer.
    if (shards == 0 && !flags.first_chaos.empty()) {
        fleet_only = flags.first_chaos;
    }
    if (shards == 0 && !fleet_only.empty()) {
        cli::exitUsage(argv[0], fleet_only + " needs --shards");
    }

    std::unique_ptr<ZipfLibrary> library;
    if (!flags.library.empty()) {
        library = std::make_unique<ZipfLibrary>(
            parseLibrarySpec(flags.library));
    }

    // A template SessionConfig for session @p id, shared by the
    // single-shard and fleet paths.
    auto makeSession = [&](std::uint64_t id) {
        SessionConfig s;
        s.id = id;
        s.health.window_vsyncs = window;
        s.pipeline = session;
        s.pipeline.profile = scaledWorkload(video, frames);
        if (library != nullptr) {
            // Library content: the Zipf draw decides the title, and
            // sessions on the same title decode identical bytes.
            library->applyTo(s.pipeline.profile,
                             library->sampleTitle(id));
        } else {
            // Per-session content seed: sessions are peers, not
            // clones.
            s.pipeline.profile.seed +=
                static_cast<std::uint32_t>(id) * 0x9e3779b9u;
        }
        s.dedup_record = flags.dedup.enabled;
        s.pipeline.scheme = SchemeConfig::make(scheme);
        s.pipeline.faults = session.faults.forSession(id);
        return s;
    };

    fleet.serve.queue_deadline = flags.queue_deadline;
    fleet.dedup = flags.dedup;

    if (shards > 0) {
        const auto wall_start = std::chrono::steady_clock::now();
        fleet.shards = shards;
        fleet.rebalance_period = static_cast<Tick>(1) * sim_clock::s;
        fleet.chaos = flags.chaos;

        std::vector<ArrivalEvent> arrivals;
        if (!arrival_trace_file.empty()) {
            std::ifstream is(arrival_trace_file);
            if (!is) {
                std::cerr << "cannot open arrival trace '"
                          << arrival_trace_file << "'\n";
                return 2;
            }
            ArrivalTraceResult tr = parseArrivalTrace(is);
            if (!tr.ok()) {
                std::cerr << tr.error << "\n";
                return 2;
            }
            arrivals = std::move(tr.events);
        } else {
            PoissonArrivalConfig pa;
            pa.rate_per_s = arrival_rate;
            pa.count = sessions;
            pa.leave_probability = leave_prob;
            pa.min_watch = static_cast<Tick>(100) * sim_clock::ms;
            pa.max_watch =
                static_cast<Tick>(frames) *
                (static_cast<Tick>(sim_clock::s) / 60);
            arrivals = poissonArrivals(pa);
        }
        arrivals = withFlashCrowds(std::move(arrivals), fleet.chaos);

        std::cout << "vstream_serve fleet: " << arrivals.size()
                  << " arrivals of " << video << " x " << frames
                  << " frames across " << shards << " shard(s)\n\n";
        Placer placer(fleet, [&](const ArrivalEvent &a) {
            return makeSession(a.id);
        });
        placer.run(arrivals);

        const StatsSnapshot fs = placer.fleetSnapshot();
        std::cout << std::fixed << std::setprecision(2);
        std::cout << "admitted " << placer.admitted() << ", queued "
                  << placer.queuedTotal() << ", rejected "
                  << placer.rejected() << ", evicted "
                  << fs.count("state.evicted") << ", left early "
                  << fs.count("leftEarly") << "\n";
        const RecoveryTotals &rec = placer.recovery();
        if (rec.any()) {
            std::cout << "recovery: " << rec.crashes << " crash(es), "
                      << rec.brownouts << " brownout(s), restored "
                      << rec.restored << " + replayed "
                      << rec.replayed << ", failed over "
                      << rec.failed_over << ", shed " << rec.shed
                      << ", queue timeouts " << rec.queue_timeouts
                      << "\n";
        }
        const ScalarAgg *energy = fs.scalar("energyJ");
        std::cout << "aggregate energy "
                  << (energy != nullptr ? energy->sum() : 0.0) * 1e3
                  << " mJ over " << ticksToMs(placer.endTick())
                  << " ms served (peak " << placer.peakActive()
                  << " active)\n";
        if (const SharedMachTier *tier = placer.dedupTier()) {
            const DedupDomainStats t = tier->totals();
            std::cout << "dedup: " << t.shared_hits
                      << " shared hit(s), " << t.bytes_elided
                      << " B elided, " << t.false_hits
                      << " false hit(s), " << t.trips
                      << " breaker trip(s)\n";
        }
        if (!stats_json_file.empty()) {
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
            std::ofstream os(stats_json_file);
            writeFleetReport(os, placer, "vstream_serve",
                             arrivals.size(), wall, 0);
            std::cout << "stats JSON " << stats_json_file << "\n";
        }
        return placer.admitted() > 0 ? 0 : 1;
    }

    std::cout << "vstream_serve: " << sessions << " sessions of "
              << video << " x " << frames << " frames, scheme "
              << schemeName(scheme) << "\n"
              << "budgets: " << fleet.serve.bandwidth_budget_mbps
              << " MB/s, "
              << (fleet.serve.framebuffer_budget_bytes >> 20)
              << " MB frame buffers, max " << fleet.serve.max_active
              << " active\n\n";

    // Every session arrives at tick 0; the admission queue meters
    // them onto the serving timeline.
    std::vector<ArrivalEvent> arrivals(sessions);
    for (std::uint32_t id = 0; id < sessions; ++id) {
        arrivals[id].id = id;
    }
    std::vector<SessionOutcome> outcomes;
    Placer placer(
        fleet,
        [&](const ArrivalEvent &a) { return makeSession(a.id); },
        [&](const SessionOutcome &o) { outcomes.push_back(o); });
    placer.run(arrivals);

    std::cout << std::left << std::setw(9) << "session" << std::right
              << std::setw(13) << "final" << std::setw(8) << "trips"
              << std::setw(12) << "breaker" << std::setw(12)
              << "energy mJ" << std::setw(8) << "drops"
              << std::setw(11) << "degr ms" << "\n";
    std::cout << std::fixed << std::setprecision(2);
    double total_j = 0.0;
    for (const SessionOutcome &o : outcomes) {
        total_j += o.result.totalEnergy();
        std::cout << std::left << std::setw(9) << o.id << std::right
                  << std::setw(13) << healthStateName(o.final_state)
                  << std::setw(8) << o.breaker_trips << std::setw(12)
                  << breakerStateName(o.breaker_state) << std::setw(12)
                  << o.result.totalEnergy() * 1e3 << std::setw(8)
                  << o.result.drops << std::setw(11)
                  << ticksToMs(o.dwell[static_cast<std::size_t>(
                         HealthState::kDegraded)])
                  << "\n";
    }

    const StatsSnapshot served = placer.fleetSnapshot();
    const std::uint64_t evicted = served.count("state.evicted");
    const std::uint64_t trips = served.count("breaker.trips");
    std::cout << "\nadmitted " << placer.admitted() << ", queued "
              << placer.queuedTotal() << ", rejected "
              << placer.rejected() << ", evicted " << evicted
              << ", breaker trips " << trips << "\n"
              << "aggregate energy " << total_j * 1e3 << " mJ over "
              << ticksToMs(placer.endTick()) << " ms served\n";
    const SharedMachTier *tier = placer.dedupTier();
    if (tier != nullptr) {
        const DedupDomainStats t = tier->totals();
        std::cout << "dedup: " << t.shared_hits
                  << " shared hit(s), " << t.self_hits
                  << " self hit(s), " << t.bytes_elided
                  << " B elided, " << t.false_hits
                  << " false hit(s), " << t.trips
                  << " breaker trip(s)\n";
    }

    if (!stats_json_file.empty()) {
        // The run drained, so the live gauges (active sessions and
        // reservations) read zero.
        struct ServeStat
        {
            const char *name;
            const char *desc;
            std::uint64_t value;
        };
        std::vector<ServeStat> stats = {
            {"serve.admitted", "sessions admitted (ever active)",
             placer.admitted()},
            {"serve.rejected", "submissions rejected at admission",
             placer.rejected()},
            {"serve.queued",
             "submissions that waited in the admission queue",
             placer.queuedTotal()},
            {"serve.evicted", "sessions evicted by the ladder", evicted},
            {"serve.breakerTrips",
             "MACH circuit-breaker trips across all sessions", trips},
            {"serve.queueTimeouts",
             "queued sessions expired past the deadline",
             placer.recovery().queue_timeouts},
            {"serve.active", "sessions currently active", 0},
            {"serve.bandwidthReservedMBps",
             "estimated DRAM bandwidth reserved, MB/s", 0},
            {"serve.framebufferReservedBytes",
             "frame-buffer pool bytes reserved", 0},
        };
        if (tier != nullptr) {
            const DedupDomainStats t = tier->totals();
            stats.insert(
                stats.end(),
                {{"serve.dedup.sharedHits",
                  "DRAM writes elided by citing another session's "
                  "shared-tier block",
                  t.shared_hits},
                 {"serve.dedup.selfHits",
                  "DRAM writes elided against the session's own "
                  "published block",
                  t.self_hits},
                 {"serve.dedup.bytesElided",
                  "DRAM write bytes elided by the shared tier",
                  t.bytes_elided},
                 {"serve.dedup.uniquePublished",
                  "blocks published into the shared tier",
                  t.unique_published},
                 {"serve.dedup.falseHits",
                  "shared-tier citations demoted by verify-on-hit",
                  t.false_hits},
                 {"serve.dedup.blockedWrites",
                  "writes not considered for sharing (quarantine or "
                  "stale-epoch drain)",
                  t.blocked_writes},
                 {"serve.dedup.breakerTrips",
                  "shared-tier epoch bumps forced by false-hit storms",
                  t.trips}});
        }
        StatsRegistry reg;
        for (const ServeStat &st : stats) {
            const double v = static_cast<double>(st.value);
            reg.addCallback(st.name, st.desc, [v] { return v; });
        }
        std::ofstream os(stats_json_file);
        reg.dumpJson(os);
        std::cout << "stats JSON " << stats_json_file << "\n";
    }
    return placer.rejected() == sessions ? 1 : 0;
}
