/**
 * @file
 * The benchmark's four workloads, generated from a seed.
 *
 * Seed 0 reproduces the existing harnesses' inputs exactly:
 * fig11-sweep is bench_fig11_energy at VSTREAM_FRAMES=48, gab-large
 * is its GAB column at 512x288, and the two fleets are bench_soak's
 * fleet mode (--shards 8 --sessions 8000) with the chaos or dedup
 * flags listed in README.md.  Any other seed remixes the content and
 * arrival seeds, so the inputs change but their shape does not.
 *
 * The fleet session factory below is bench_soak's, copied so that a
 * later change to bench/ cannot move the benchmark's inputs.
 */

#ifndef VSTREAM_BENCHMARK_WORKLOADS_HH
#define VSTREAM_BENCHMARK_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/video_pipeline.hh"
#include "serve/placer.hh"
#include "video/library.hh"
#include "video/trace.hh"
#include "video/workloads.hh"

namespace vbench
{

using namespace vstream;

/** Seed 0 keeps @p base; any other seed remixes it (splitmix64). */
inline std::uint64_t
reseed(std::uint64_t base, std::uint64_t seed)
{
    if (seed == 0) {
        return base;
    }
    std::uint64_t z = base ^ (seed * 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Videos x schemes at one resolution; every unit is one playback. */
struct SweepSpec
{
    std::vector<std::string> videos;
    std::vector<Scheme> schemes;
    std::uint32_t frames = 48;
    /** 0 keeps the profile's own resolution (256x144). */
    std::uint32_t width = 0;
    std::uint32_t height = 0;
};

/** Poisson arrivals through the sharded Placer. */
struct FleetSpec
{
    std::uint32_t sessions = 8000;
    std::uint32_t shards = 8;
    /** Chaos rules (empty = no chaos); times in the rule grammar. */
    std::string crash;
    std::string flood;
    Tick checkpoint_period = 0;
    Tick queue_deadline = 0;
    bool dedup = false;
    std::string library;
};

struct Workload
{
    std::string name;
    bool is_fleet = false;
    /** Worker threads of the timed pass. */
    unsigned jobs = 1;
    SweepSpec sweep;
    FleetSpec fleet;
};

/** Workload @p name at full or smoke size; false when unknown. */
inline bool
makeWorkload(const std::string &name, bool smoke, Workload &w)
{
    w = Workload{};
    w.name = name;
    const std::vector<std::string> smoke_videos = {"V1", "V5", "V8", "V12"};
    std::vector<std::string> all_videos;
    for (const VideoProfile &p : workloadTable()) {
        all_videos.push_back(p.key);
    }
    if (name == "fig11-sweep") {
        w.sweep.videos = smoke ? smoke_videos : all_videos;
        w.sweep.schemes = {Scheme::kBaseline,    Scheme::kBatching,
                           Scheme::kRacing,      Scheme::kRaceToSleep,
                           Scheme::kMab,         Scheme::kGab};
        w.sweep.frames = smoke ? 12 : 48;
        w.sweep.width = smoke ? 128 : 0;
        w.sweep.height = smoke ? 72 : 0;
        return true;
    }
    if (name == "gab-large") {
        w.sweep.videos = smoke ? smoke_videos : all_videos;
        w.sweep.schemes = {Scheme::kGab};
        w.sweep.frames = smoke ? 12 : 48;
        w.sweep.width = smoke ? 256 : 512;
        w.sweep.height = smoke ? 144 : 288;
        return true;
    }
    if (name != "fleet-churn" && name != "fleet-dedup") {
        return false;
    }
    w.is_fleet = true;
    w.jobs = 2;
    w.fleet.sessions = smoke ? 600 : 8000;
    w.fleet.shards = smoke ? 4 : 8;
    if (name == "fleet-churn") {
        w.fleet.crash = smoke ? "at=400ms,shard=2" : "at=3s,shard=2";
        w.fleet.flood = smoke ? "at=700ms,count=60,len=100ms"
                              : "at=6s,count=400,len=300ms";
        w.fleet.checkpoint_period =
            static_cast<Tick>(smoke ? 100 : 500) * sim_clock::ms;
        w.fleet.queue_deadline = static_cast<Tick>(400) * sim_clock::ms;
    } else {
        w.fleet.dedup = true;
        w.fleet.library = "titles=64,skew=1.0";
    }
    return true;
}

// ---- sweeps -----------------------------------------------------------

struct SweepUnit
{
    VideoProfile profile;
    Scheme scheme = Scheme::kBaseline;
};

/** Units in bench_fig11_energy's order: video-major, scheme-minor. */
inline std::vector<SweepUnit>
sweepUnits(const SweepSpec &spec, std::uint64_t seed)
{
    std::vector<SweepUnit> units;
    units.reserve(spec.videos.size() * spec.schemes.size());
    for (const std::string &key : spec.videos) {
        VideoProfile p =
            scaledWorkload(key, spec.frames, spec.width, spec.height);
        p.seed = reseed(p.seed, seed);
        for (Scheme s : spec.schemes) {
            units.push_back({p, s});
        }
    }
    return units;
}

/** The PipelineConfig simulateScheme() builds for @p u. */
inline PipelineConfig
unitConfig(const SweepUnit &u)
{
    PipelineConfig cfg;
    cfg.profile = u.profile;
    cfg.scheme = SchemeConfig::make(u.scheme);
    return cfg;
}

// ---- fleets (bench_soak's factory) ------------------------------------

constexpr std::size_t kNumMixes = 5;
inline const char *const kMixNames[kNumMixes] = {"clean", "stall", "dram",
                                                 "digest", "trace"};

inline VideoProfile
soakProfile(std::uint64_t id, std::uint32_t frames_n, std::uint64_t seed)
{
    VideoProfile p;
    p.key = "S";
    p.key += std::to_string(id);
    p.width = 96;
    p.height = 48;
    p.frame_count = frames_n;
    p.seed = reseed(0x50a1u + id * 0x9e37u, seed);
    return p;
}

inline HealthConfig
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

inline BreakerConfig
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

/** A short intact ingest trace; the trace mix corrupts copies of it. */
inline std::vector<std::uint8_t>
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

/** Every 1000th arrival is an over-budget whale, always rejected. */
inline bool
isFleetWhale(std::uint64_t id)
{
    return id % 1000 == 999;
}

inline SessionConfig
makeWhale(std::uint64_t id, std::uint64_t seed)
{
    SessionConfig s;
    s.id = id;
    s.pipeline.profile = soakProfile(id, 48, seed);
    s.pipeline.profile.width = 1920;
    s.pipeline.profile.height = 1080;
    s.pipeline.scheme = SchemeConfig::make(Scheme::kRaceToSleep);
    return s;
}

/** One fleet session: the five soak mixes at 48x24, 24-32 frames. */
inline SessionConfig
makeFleetSession(const ArrivalEvent &a,
                 const std::vector<std::uint8_t> &intact_blob,
                 const ZipfLibrary *library, std::uint64_t seed)
{
    const std::uint64_t id = a.id;
    if (isFleetWhale(id)) {
        return makeWhale(id, seed);
    }
    const std::size_t mix = a.mix % kNumMixes;
    SessionConfig s;
    s.id = id;
    s.stats_group = kMixNames[mix];
    s.health = soakHealth();
    s.breaker = soakBreaker();
    s.breaker.cooldown_base = static_cast<Tick>(50) * sim_clock::ms;
    s.breaker.cooldown_cap = static_cast<Tick>(200) * sim_clock::ms;

    PipelineConfig &cfg = s.pipeline;
    cfg.profile = soakProfile(id, 24 + (id / 7 % 3) * 4, seed);
    cfg.profile.width = 48;
    cfg.profile.height = 24;
    if (library != nullptr) {
        library->applyTo(cfg.profile, library->sampleTitle(id));
    }
    const Scheme schemes[] = {Scheme::kRaceToSleep, Scheme::kGab,
                              Scheme::kMab, Scheme::kBatching};
    cfg.scheme = SchemeConfig::make(
        mix == 3 ? Scheme::kGab : schemes[(id / kNumMixes) % 4]);
    cfg.faults.seed = 0xfa0175eedULL;

    switch (mix) {
    case 1: // arrival-stall storm
        cfg.arrival.enabled = true;
        cfg.arrival.bandwidth_mbps = 2.0;
        cfg.arrival.jitter_frac = 0.2;
        cfg.preroll_frames = 2;
        cfg.arrival.seed = 0xa441 + id;
        cfg.faults.rules.push_back(
            parseFaultRule(FaultClass::kNetworkStall,
                           "p=0.35,from=1ms,until=25ms,len=60ms"));
        s.health.quarantine_windows = 4;
        break;
    case 2: // DRAM timeout storm (abandon-budget exhaustion)
        cfg.faults.dram_retry_limit = 2;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDramTimeout, "p=0.6,from=50ms,until=350ms"));
        break;
    case 3: // MACH false-hit storm (breaker trip + recovery)
        cfg.mach.verify_on_hit = true;
        cfg.faults.rules.push_back(parseFaultRule(
            FaultClass::kDigestCollision, "p=0.25,from=20ms,until=200ms"));
        break;
    case 4: { // corrupted ingest trace
        s.trace_blob = intact_blob;
        const std::size_t off =
            64 + (static_cast<std::size_t>(id) * 131) %
                     (s.trace_blob.size() - 64);
        s.trace_blob[off] ^= 0x5a;
        break;
    }
    default: // clean
        break;
    }
    cfg.faults = cfg.faults.forSession(id);
    return s;
}

/** Everything a fleet pass needs before Placer::run. */
struct FleetInputs
{
    FleetConfig config;
    std::vector<ArrivalEvent> arrivals;
    std::unique_ptr<ZipfLibrary> library;
    std::vector<std::uint8_t> blob;
    std::uint64_t seed = 0;

    SessionConfig
    session(const ArrivalEvent &a) const
    {
        return makeFleetSession(a, blob, library.get(), seed);
    }

    /** Session @p a exactly as Placer rehearses it. */
    SessionConfig
    placedSession(const ArrivalEvent &a) const
    {
        SessionConfig c = session(a);
        c.id = a.id;
        c.leave_after = a.leave_after;
        c.dedup_record = config.dedup.enabled;
        return c;
    }

    /** Placer's whale rule: demand that no budget could ever hold. */
    bool
    neverFits(const SessionConfig &c) const
    {
        return Session::demandMBps(c.pipeline) >
                   config.serve.bandwidth_budget_mbps ||
               Session::framebufferBytes(c.pipeline) >
                   config.serve.framebuffer_budget_bytes;
    }
};

inline std::unique_ptr<FleetInputs>
buildFleetInputs(const FleetSpec &spec, unsigned jobs, std::uint64_t seed)
{
    auto in = std::make_unique<FleetInputs>();
    in->seed = seed;
    FleetConfig &fleet = in->config;
    fleet.serve.bandwidth_budget_mbps = 300.0;
    fleet.serve.framebuffer_budget_bytes = 64ULL << 20;
    fleet.serve.max_active = 224;
    fleet.serve.queue_deadline = spec.queue_deadline;
    fleet.shards = spec.shards;
    fleet.jobs = jobs;
    fleet.rebalance_period = static_cast<Tick>(1) * sim_clock::s;
    fleet.chaos.checkpoint_period = spec.checkpoint_period;
    if (!spec.crash.empty()) {
        fleet.chaos.rules.push_back(parseFleetFaultRule(
            FleetFaultClass::kShardCrash, spec.crash));
    }
    if (!spec.flood.empty()) {
        fleet.chaos.rules.push_back(parseFleetFaultRule(
            FleetFaultClass::kFlashCrowd, spec.flood));
    }
    fleet.dedup.enabled = spec.dedup;
    if (!spec.library.empty()) {
        LibrarySpec ls = parseLibrarySpec(spec.library);
        ls.seed = reseed(ls.seed, seed);
        in->library = std::make_unique<ZipfLibrary>(ls);
    }

    PoissonArrivalConfig pa;
    pa.seed = reseed(0xf1ee7ULL, seed);
    pa.rate_per_s = 550.0;
    pa.count = spec.sessions;
    pa.leave_probability = 0.3;
    pa.min_watch = static_cast<Tick>(100) * sim_clock::ms;
    pa.max_watch = static_cast<Tick>(350) * sim_clock::ms;
    pa.num_mixes = kNumMixes;
    in->arrivals = withFlashCrowds(poissonArrivals(pa), fleet.chaos);
    in->blob = makeTraceBlob();
    return in;
}

/** bench_soak's fleet invariants; returns the number that failed. */
inline std::uint64_t
fleetInvariantFailures(const Placer &placer,
                       const std::vector<ArrivalEvent> &arrivals,
                       const StatsSnapshot &fleet_stats)
{
    const RecoveryTotals &rec = placer.recovery();
    std::uint64_t whales = 0;
    for (const ArrivalEvent &a : arrivals) {
        whales += isFleetWhale(a.id) ? 1 : 0;
    }
    std::uint64_t absorbed = 0;
    for (const Shard &sh : placer.shards()) {
        absorbed += sh.absorbed();
    }
    const bool ok[] = {
        placer.admitted() + placer.rejected() + rec.shed +
                rec.queue_timeouts ==
            arrivals.size(),
        fleet_stats.count("sessions") == placer.admitted(),
        placer.rejected() == whales,
        placer.queuedTotal() > 0,
        fleet_stats.count("state.evicted") > 0,
        fleet_stats.count("breaker.trips") > 0,
        fleet_stats.count("leftEarly") > 0,
        absorbed == placer.admitted(),
    };
    std::uint64_t failures = 0;
    for (bool b : ok) {
        failures += b ? 0 : 1;
    }
    return failures;
}

} // namespace vbench

#endif // VSTREAM_BENCHMARK_WORKLOADS_HH
