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
 *     --batch N             batch depth (default 16)
 *     --bandwidth MBPS      aggregate DRAM budget (default 2000)
 *     --framebuffer MB      aggregate pool budget (default 64)
 *     --max-active N        concurrent-session cap (default 64)
 *     --no-queue            reject over-budget submissions outright
 *     --window N            health window, vsyncs (default 32)
 *     --verify-on-hit       byte-compare MACH hits
 *     --stats-json FILE     dump serve.* statistics as JSON
 *     --jobs N              rehearse sessions across N threads
 *                           (output identical at any job count)
 *
 * Fleet options (see docs/SERVING.md):
 *     --shards N            route sessions across N shards under one
 *                           global budget (fleet mode; JSON is
 *                           byte-identical at any shard/job count)
 *     --arrival-rate R      Poisson arrivals, sessions/s (default 550)
 *     --leave-prob P        chance a viewer leaves mid-stream
 *     --arrival-trace FILE  replay a text arrival trace instead
 *                           (lines: <arrival_us> <watch_us> <mix>)
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
 * Chaos options (fleet mode only; see docs/ROBUSTNESS.md):
 *     --chaos-crash SPEC    crash a shard: "at=500ms,shard=1"
 *     --chaos-brownout SPEC shrink a shard's budget slice:
 *                           "at=300ms,shard=0,len=500ms,factor=0.5"
 *     --chaos-flood SPEC    flash-crowd burst:
 *                           "at=200ms,count=300,len=50ms[,mix=V8]"
 *     --checkpoint-period MS  shard checkpoint cadence (default:
 *                           on iff a crash rule is present)
 *     --queue-deadline MS   expire sessions queued this long
 *     --shed-depth N        shed arrivals once the wait queue holds N
 *
 * Robustness options (per-session; see docs/ROBUSTNESS.md):
 *     --arrival-bandwidth MBPS, --arrival-jitter SIGMA,
 *     --arrival-preroll N, --fault-seed N, --fault-retry N,
 *     --fault-stall SPEC, --fault-digest SPEC, --fault-dram SPEC
 *   SPEC = "p=0.01,from=200ms,until=1.5s,max=3,len=250ms".
 *
 * Every value option also accepts the --opt=VALUE spelling.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>

#include "serve/fleet_report.hh"
#include "sim/parallel.hh"
#include "sim/stats_registry.hh"
#include "video/library.hh"
#include "video/workloads.hh"

namespace
{

using namespace vstream;

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--sessions N] [--video V1..V16] [--frames N]\n"
                 "  [--scheme L|B|R|S|M|G] [--batch N]\n"
                 "  [--bandwidth MBPS] [--framebuffer MB] "
                 "[--max-active N] [--no-queue]\n"
                 "  [--window N] [--verify-on-hit] "
                 "[--stats-json FILE] [--jobs N]\n"
                 "  [--shards N] [--arrival-rate R] "
                 "[--leave-prob P] [--arrival-trace FILE]\n"
                 "  [--dedup on|off] [--library SPEC] "
                 "[--dedup-poison SPEC]\n"
                 "  [--chaos-crash SPEC] [--chaos-brownout SPEC] "
                 "[--chaos-flood SPEC]\n"
                 "  [--checkpoint-period MS] [--queue-deadline MS] "
                 "[--shed-depth N]\n"
                 "  [--arrival-bandwidth MBPS] [--arrival-jitter S] "
                 "[--arrival-preroll N]\n"
                 "  [--fault-seed N] [--fault-retry N] "
                 "[--fault-stall SPEC]\n"
                 "  [--fault-digest SPEC] [--fault-dram SPEC]\n";
    std::exit(2);
}

Scheme
parseScheme(const std::string &s)
{
    if (s == "L") {
        return Scheme::kBaseline;
    }
    if (s == "B") {
        return Scheme::kBatching;
    }
    if (s == "R") {
        return Scheme::kRacing;
    }
    if (s == "S") {
        return Scheme::kRaceToSleep;
    }
    if (s == "M") {
        return Scheme::kMab;
    }
    if (s == "G") {
        return Scheme::kGab;
    }
    std::cerr << "unknown scheme '" << s << "'\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t sessions = 8, frames = 300, batch = 16, window = 32;
    std::string video = "V8";
    Scheme scheme = Scheme::kGab;
    ServeConfig serve;
    double arrival_bandwidth = 0.0, arrival_jitter = 0.0;
    std::uint32_t arrival_preroll = 0;
    FaultConfig faults;
    bool verify_on_hit = false;
    std::string stats_json_file;
    unsigned n_jobs = defaultJobs();
    std::uint32_t shards = 0;
    double arrival_rate = 550.0, leave_prob = 0.0;
    std::string arrival_trace_file;
    ChaosConfig chaos;
    std::uint32_t shed_depth = 0;
    DedupConfig dedup;
    std::string library_spec;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both "--opt VALUE" and "--opt=VALUE".
        std::string inline_value;
        bool has_inline = false;
        const std::size_t eq = arg.find('=');
        if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-' &&
            eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_inline = true;
        }
        auto next = [&]() -> std::string {
            if (has_inline) {
                return inline_value;
            }
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        auto nextU32 = [&]() {
            return static_cast<std::uint32_t>(
                std::atoi(next().c_str()));
        };
        if (arg == "--sessions") {
            sessions = nextU32();
        } else if (arg == "--video") {
            video = next();
        } else if (arg == "--frames") {
            frames = nextU32();
        } else if (arg == "--scheme") {
            scheme = parseScheme(next());
        } else if (arg == "--batch") {
            batch = nextU32();
        } else if (arg == "--bandwidth") {
            serve.bandwidth_budget_mbps = std::atof(next().c_str());
        } else if (arg == "--framebuffer") {
            serve.framebuffer_budget_bytes =
                static_cast<std::uint64_t>(
                    std::atoll(next().c_str())) <<
                20;
        } else if (arg == "--max-active") {
            serve.max_active = nextU32();
        } else if (arg == "--no-queue") {
            serve.queue_when_full = false;
        } else if (arg == "--window") {
            window = nextU32();
        } else if (arg == "--verify-on-hit") {
            verify_on_hit = true;
        } else if (arg == "--stats-json") {
            stats_json_file = next();
        } else if (arg == "--jobs") {
            n_jobs = parseJobs(next().c_str());
        } else if (arg == "--shards") {
            shards = nextU32();
        } else if (arg == "--arrival-rate") {
            arrival_rate = std::atof(next().c_str());
        } else if (arg == "--leave-prob") {
            leave_prob = std::atof(next().c_str());
        } else if (arg == "--arrival-trace") {
            arrival_trace_file = next();
        } else if (arg == "--dedup") {
            const std::string v = next();
            if (v != "on" && v != "off") {
                std::cerr << "bad --dedup value '" << v
                          << "' (need on|off)\n";
                return 2;
            }
            dedup.enabled = v == "on";
        } else if (arg == "--library") {
            library_spec = next();
        } else if (arg == "--dedup-poison") {
            dedup.poison.push_back(parseDedupPoisonRule(next()));
        } else if (arg == "--chaos-crash") {
            chaos.rules.push_back(parseFleetFaultRule(
                FleetFaultClass::kShardCrash, next()));
        } else if (arg == "--chaos-brownout") {
            chaos.rules.push_back(parseFleetFaultRule(
                FleetFaultClass::kShardBrownout, next()));
        } else if (arg == "--chaos-flood") {
            chaos.rules.push_back(parseFleetFaultRule(
                FleetFaultClass::kFlashCrowd, next()));
        } else if (arg == "--checkpoint-period") {
            chaos.checkpoint_period =
                static_cast<Tick>(nextU32()) * sim_clock::ms;
        } else if (arg == "--queue-deadline") {
            serve.queue_deadline =
                static_cast<Tick>(nextU32()) * sim_clock::ms;
        } else if (arg == "--shed-depth") {
            shed_depth = nextU32();
        } else if (arg == "--arrival-bandwidth") {
            arrival_bandwidth = std::atof(next().c_str());
        } else if (arg == "--arrival-jitter") {
            arrival_jitter = std::atof(next().c_str());
        } else if (arg == "--arrival-preroll") {
            arrival_preroll = nextU32();
        } else if (arg == "--fault-seed") {
            faults.seed = static_cast<std::uint64_t>(
                std::atoll(next().c_str()));
        } else if (arg == "--fault-retry") {
            faults.dram_retry_limit = nextU32();
        } else if (arg == "--fault-stall") {
            faults.rules.push_back(
                parseFaultRule(FaultClass::kNetworkStall, next()));
        } else if (arg == "--fault-digest") {
            faults.rules.push_back(
                parseFaultRule(FaultClass::kDigestCollision, next()));
        } else if (arg == "--fault-dram") {
            faults.rules.push_back(
                parseFaultRule(FaultClass::kDramTimeout, next()));
        } else {
            usage(argv[0]);
        }
    }

    std::unique_ptr<ZipfLibrary> library;
    if (!library_spec.empty()) {
        library = std::make_unique<ZipfLibrary>(
            parseLibrarySpec(library_spec));
    }

    // A template SessionConfig for session @p id, shared by the
    // single-shard and fleet paths.
    auto makeSession = [&](std::uint64_t id) {
        SessionConfig s;
        s.id = id;
        s.health.window_vsyncs = window;
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
        s.dedup_record = dedup.enabled;
        s.pipeline.scheme = SchemeConfig::make(scheme, batch);
        s.pipeline.mach.verify_on_hit = verify_on_hit;
        s.pipeline.faults = faults.forSession(id);
        if (arrival_bandwidth > 0.0) {
            s.pipeline.arrival.enabled = true;
            s.pipeline.arrival.bandwidth_mbps = arrival_bandwidth;
            s.pipeline.arrival.jitter_frac = arrival_jitter;
        }
        if (arrival_preroll > 0) {
            s.pipeline.preroll_frames = arrival_preroll;
        }
        return s;
    };

    // Without --shards this is single-shard serving: one fault
    // domain (dedup poison rules must target domain 0), no chaos.
    FleetConfig fleet;
    fleet.serve = serve;
    fleet.jobs = n_jobs;
    fleet.dedup = dedup;

    if (shards > 0) {
        const auto wall_start = std::chrono::steady_clock::now();
        fleet.shards = shards;
        fleet.rebalance_period = static_cast<Tick>(1) * sim_clock::s;
        chaos.shed_depth = shed_depth;
        fleet.chaos = chaos;

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
              << "budgets: " << serve.bandwidth_budget_mbps
              << " MB/s, "
              << (serve.framebuffer_budget_bytes >> 20)
              << " MB frame buffers, max " << serve.max_active
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
