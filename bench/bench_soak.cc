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
 * into O(shards) mergeable snapshots.  Fleet JSON carries neither
 * the shard nor the job count and is byte-identical at any value of
 * either (the CI shard-smoke job and tests/test_shard.cc assert
 * this); see docs/SERVING.md and docs/FORMATS.md.
 */

#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>

#include "bench_util.hh"
#include "serve/fleet_report.hh"
#include "serve/placer.hh"
#include "video/library.hh"
#include "video/trace.hh"

namespace
{

using namespace vstream;
using namespace vstream::bench;

constexpr std::size_t kNumMixes = 5;
const char *const kMixNames[kNumMixes] = {"clean", "stall", "dram",
                                          "digest", "trace"};

/** The soak's base video: tiny and short, so hundreds of sessions
 * fit in a CI smoke budget. */
VideoProfile
soakProfile(std::uint64_t id, std::uint32_t frames_n)
{
    VideoProfile p;
    p.key = "S";
    p.key += std::to_string(id);
    p.width = 96;
    p.height = 48;
    p.frame_count = frames_n;
    p.seed = 0x50a1u + id * 0x9e37u;
    return p;
}

HealthConfig
soakHealth()
{
    HealthConfig h;
    h.window_vsyncs = 8;
    h.degrade_drops = 3;
    h.degrade_underruns = 2;
    h.abandon_budget = 6;
    h.quarantine_windows = 2;
    h.recover_windows = 2;
    h.evict_windows = 2;
    return h;
}

BreakerConfig
soakBreaker()
{
    BreakerConfig b;
    b.false_hit_threshold = 0.02;
    b.min_lookups = 32;
    b.cooldown_base = static_cast<Tick>(100) * sim_clock::ms;
    b.cooldown_cap = static_cast<Tick>(1) * sim_clock::s;
    b.jitter_frac = 0.2;
    return b;
}

/** A short intact ingest trace, serialized once and shared. */
std::vector<std::uint8_t>
makeTraceBlob()
{
    VideoProfile p;
    p.key = "TB";
    p.width = 32;
    p.height = 16;
    p.frame_count = 3;
    p.seed = 777;
    std::ostringstream os(std::ios::binary);
    writeTrace(os, p);
    const std::string s = os.str();
    return {s.begin(), s.end()};
}

/** One session of mix @p mix (= id % kNumMixes). */
SessionConfig
makeSession(std::uint64_t id, std::uint32_t frames_n,
            const std::vector<std::uint8_t> &intact_blob)
{
    const std::size_t mix = id % kNumMixes;
    SessionConfig s;
    s.id = id;
    s.health = soakHealth();
    s.breaker = soakBreaker();

    PipelineConfig &cfg = s.pipeline;
    cfg.profile = soakProfile(id, frames_n);
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

/** An arrival whose solo demand exceeds every budget. */
SessionConfig
makeWhale(std::uint64_t id)
{
    SessionConfig s;
    s.id = id;
    s.pipeline.profile = soakProfile(id, 48);
    s.pipeline.profile.width = 1920;
    s.pipeline.profile.height = 1080;
    s.pipeline.scheme = SchemeConfig::make(Scheme::kRaceToSleep);
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

/** Every 1000th arrival is a whale: globally rejected, never
 * rehearsed, so the rejection path stays exercised at fleet scale. */
bool
isFleetWhale(std::uint64_t id)
{
    return id % 1000 == 999;
}

/**
 * One fleet session: the five soak mixes scaled to ~0.4 s of
 * playback (24-32 frames at 48x24) so 100k rehearsals fit a
 * single-machine soak, with fault windows tightened to land inside
 * the shorter span.
 */
SessionConfig
makeFleetSession(const ArrivalEvent &a,
                 const std::vector<std::uint8_t> &intact_blob,
                 const ZipfLibrary *library)
{
    const std::uint64_t id = a.id;
    if (isFleetWhale(id)) {
        return makeWhale(id);
    }
    const std::size_t mix = a.mix % kNumMixes;
    SessionConfig s;
    s.id = id;
    s.stats_group = kMixNames[mix];
    s.health = soakHealth();
    s.breaker = soakBreaker();
    // Shorter cooldown so tripped breakers can re-probe (and
    // recover) inside a ~0.4 s session.
    s.breaker.cooldown_base = static_cast<Tick>(50) * sim_clock::ms;
    s.breaker.cooldown_cap = static_cast<Tick>(200) * sim_clock::ms;

    PipelineConfig &cfg = s.pipeline;
    cfg.profile = soakProfile(id, 24 + (id / 7 % 3) * 4);
    cfg.profile.width = 48;
    cfg.profile.height = 24;
    if (library != nullptr) {
        // Bind the session to its Zipf-drawn title: sessions on the
        // same title decode byte-identical content, which is what
        // the shared MACH tier dedups across sessions.
        library->applyTo(cfg.profile, library->sampleTitle(id));
    }
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
        cfg.preroll_frames = 2;
        cfg.arrival.seed = 0xa441 + id;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kNetworkStall,
            "p=0.35,from=1ms,until=25ms,len=60ms"));
        s.health.quarantine_windows = 4;
        break;
    case 2: // DRAM timeout storm (abandon-budget exhaustion)
        cfg.faults.dram_retry_limit = 2;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDramTimeout,
            "p=0.6,from=50ms,until=350ms"));
        break;
    case 3: // MACH false-hit storm (breaker trip + recovery)
        cfg.mach.verify_on_hit = true;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDigestCollision,
            "p=0.25,from=20ms,until=200ms"));
        break;
    case 4: { // corrupted ingest trace
        s.trace_blob = intact_blob;
        const std::size_t off =
            64 + (static_cast<std::size_t>(id) * 131) %
                     (s.trace_blob.size() - 64);
        s.trace_blob[off] ^= 0x5a;
        break;
    }
    default:
        break;
    }
    cfg.faults = cfg.faults.forSession(id);
    return s;
}

/**
 * Fleet soak: Poisson arrivals with mid-stream leaves through the
 * Placer.  The emitted vstream-soak-1 JSON (mode "fleet") mentions
 * neither the shard nor the job count; both are placement/execution
 * detail outside the bytes.  With a ChaosConfig the same schedule
 * runs under shard crashes/brownouts, flash crowds, queue deadlines
 * and shedding; everything the chaos layer did lands in the report's
 * `recovery` block (docs/FORMATS.md).
 */
int
runFleet(std::uint32_t n_sessions, std::uint32_t n_shards,
         unsigned n_jobs, const ChaosConfig &chaos,
         Tick queue_deadline, const DedupConfig &dedup,
         const std::string &library_spec)
{
    const auto wall_start = std::chrono::steady_clock::now();

    FleetConfig fleet;
    fleet.serve.bandwidth_budget_mbps = 300.0;
    fleet.serve.framebuffer_budget_bytes = 64ULL << 20;
    fleet.serve.max_active = 224;
    fleet.serve.queue_deadline = queue_deadline;
    fleet.shards = n_shards;
    fleet.jobs = n_jobs;
    fleet.rebalance_period = static_cast<Tick>(1) * sim_clock::s;
    fleet.chaos = chaos;
    fleet.dedup = dedup;

    std::unique_ptr<ZipfLibrary> library;
    if (!library_spec.empty()) {
        library = std::make_unique<ZipfLibrary>(
            parseLibrarySpec(library_spec));
    }

    PoissonArrivalConfig pa;
    pa.seed = 0xf1ee7ULL;
    pa.rate_per_s = 550.0;
    pa.count = n_sessions;
    pa.leave_probability = 0.3;
    pa.min_watch = static_cast<Tick>(100) * sim_clock::ms;
    pa.max_watch = static_cast<Tick>(350) * sim_clock::ms;
    pa.num_mixes = kNumMixes;
    // Flash crowds are offered load: they join the schedule before
    // the Placer sees it, so whale counting and arrival totals
    // cover them too.  With no flood rules this is the identity.
    const std::vector<ArrivalEvent> arrivals =
        withFlashCrowds(poissonArrivals(pa), fleet.chaos);

    const std::vector<std::uint8_t> intact_blob = makeTraceBlob();
    Placer placer(fleet, [&](const ArrivalEvent &a) {
        return makeFleetSession(a, intact_blob, library.get());
    });
    placer.run(arrivals);

    const StatsSnapshot fleet_stats = placer.fleetSnapshot();
    const RecoveryTotals &rec = placer.recovery();
    std::uint64_t expected_whales = 0;
    for (const ArrivalEvent &a : arrivals) {
        if (isFleetWhale(a.id)) {
            ++expected_whales;
        }
    }

    int failures = 0;
    check(placer.admitted() + placer.rejected() + rec.shed +
                  rec.queue_timeouts ==
              arrivals.size(),
          "arrivals not all admitted/rejected/shed/timed out",
          failures);
    check(fleet_stats.count("sessions") == placer.admitted(),
          "merged snapshot lost sessions", failures);
    check(placer.rejected() == expected_whales,
          "whales were not all rejected (or non-whales were)",
          failures);
    check(placer.queuedTotal() > 0,
          "admission queue never engaged (raise the arrival rate)",
          failures);
    check(fleet_stats.count("state.evicted") > 0,
          "no fleet session was ever evicted", failures);
    check(fleet_stats.count("breaker.trips") > 0,
          "no fleet breaker ever tripped", failures);
    check(fleet_stats.count("leftEarly") > 0,
          "no viewer ever left mid-stream", failures);
    std::uint64_t absorbed = 0;
    for (const Shard &sh : placer.shards()) {
        absorbed += sh.absorbed();
    }
    check(absorbed == placer.admitted(),
          "shard absorb count diverged from admissions", failures);

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
                         static_cast<std::uint64_t>(failures));
    }
    return failures == 0 ? 0 : 1;
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
    header("Soak: mixed-fault session fleet through a single-shard "
           "Placer",
           "robustness extension - admission control, fault "
           "domains, circuit breakers under storm load");

    const unsigned n_jobs = jobs(argc, argv);
    const std::uint32_t n_shards = flagU32(argc, argv, "--shards", 0);
    if (n_shards > 0) {
        // Fleet mode: Poisson churn through the sharded Placer.
        const std::uint32_t fleet_sessions = flagU32(
            argc, argv, "--sessions",
            envU32("VSTREAM_SOAK_SESSIONS", 2000));
        // Chaos knobs (all default off; see serve/chaos.hh for the
        // rule grammar).  Times on these flags are milliseconds.
        ChaosConfig chaos;
        for (const std::string &spec :
             flagStrs(argc, argv, "--chaos-crash")) {
            chaos.rules.push_back(parseFleetFaultRule(
                FleetFaultClass::kShardCrash, spec));
        }
        for (const std::string &spec :
             flagStrs(argc, argv, "--chaos-brownout")) {
            chaos.rules.push_back(parseFleetFaultRule(
                FleetFaultClass::kShardBrownout, spec));
        }
        for (const std::string &spec :
             flagStrs(argc, argv, "--chaos-flood")) {
            chaos.rules.push_back(parseFleetFaultRule(
                FleetFaultClass::kFlashCrowd, spec));
        }
        chaos.checkpoint_period =
            static_cast<Tick>(flagU32(argc, argv,
                                      "--checkpoint-period", 0)) *
            sim_clock::ms;
        chaos.shed_depth = flagU32(argc, argv, "--shed-depth", 0);
        const Tick queue_deadline =
            static_cast<Tick>(
                flagU32(argc, argv, "--queue-deadline", 0)) *
            sim_clock::ms;
        // Shared-MACH dedup knobs (default off; `--dedup off` runs
        // are byte-identical to pre-dedup builds).
        DedupConfig dedup;
        const std::string dedup_mode =
            flagStr(argc, argv, "--dedup", "off");
        if (dedup_mode != "on" && dedup_mode != "off") {
            std::cout << "bad --dedup value '" << dedup_mode
                      << "' (need on|off)\n";
            return 2;
        }
        dedup.enabled = dedup_mode == "on";
        for (const std::string &spec :
             flagStrs(argc, argv, "--dedup-poison")) {
            dedup.poison.push_back(parseDedupPoisonRule(spec));
        }
        const std::string library_spec =
            flagStr(argc, argv, "--library", "");
        return runFleet(fleet_sessions, n_shards, n_jobs, chaos,
                        queue_deadline, dedup, library_spec);
    }

    const std::uint32_t n_sessions = flagU32(
        argc, argv, "--sessions", envU32("VSTREAM_SOAK_SESSIONS", 120));
    const std::uint32_t frames_n = frames(96);
    const auto wall_start = std::chrono::steady_clock::now();

    FleetConfig single;
    single.serve.bandwidth_budget_mbps = 300.0;
    single.serve.framebuffer_budget_bytes = 64ULL << 20;
    single.serve.max_active = 24;
    single.jobs = n_jobs;

    const std::vector<std::uint8_t> intact_blob = makeTraceBlob();

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
            return a.mix == kWhaleMix ? makeWhale(a.id)
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

    return failures == 0 ? 0 : 1;
}
