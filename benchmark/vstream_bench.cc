/**
 * @file
 * Benchmark program: one workload, one seed, one process.
 *
 *   vstream_bench --workload NAME --seed N [--mode timed|trace]
 *                 [--size full|smoke] [--jobs J]
 *                 [--dump PATH] [--trace-out PATH]
 *
 * timed  builds the workload's inputs kSetupReps times (set-up time
 *        is their median), then times one pass through the library's
 *        public API: every sweep unit through simulateScheme(), or
 *        the whole fleet through Placer::run() plus its report.  Both
 *        times are reported scaled to a reference host speed by the
 *        probe in host_probe.hh.
 * trace  runs the same work serially under host-time spans (see
 *        span_trace.hh): sweeps step each unit through VideoPipeline
 *        and replay it layer by layer (layer_replay.hh); fleets time
 *        the serving phases and replay rehearseSession() on every
 *        session the Placer rehearsed.
 *
 * Either mode writes the workload's canonical result dump to --dump
 * (the runner hashes it) and prints one JSON object on stdout.
 * run.py drives this binary; see README.md.
 */

#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "host_probe.hh"
#include "layer_replay.hh"
#include "serve/fleet_report.hh"
#include "sim/parallel.hh"
#include "span_trace.hh"
#include "workloads.hh"

namespace
{

using namespace vbench;

/** Set-up repetitions per process; set-up takes microseconds, so one
 * sample would be mostly timer and cache noise. */
constexpr unsigned kSetupReps = 31;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::string mode = "timed";
    bool smoke = false;
    /** 0 = the workload's own worker count. */
    unsigned jobs = 0;
    std::string dump;
    std::string trace_out;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = std::stoull(v);
        } else if (k == "--mode") {
            o.mode = v;
        } else if (k == "--size") {
            o.smoke = v == "smoke";
            if (v != "smoke" && v != "full") {
                return false;
            }
        } else if (k == "--jobs") {
            o.jobs = static_cast<unsigned>(std::stoul(v));
        } else if (k == "--dump") {
            o.dump = v;
        } else if (k == "--trace-out") {
            o.trace_out = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !o.workload.empty() && !o.dump.empty() &&
           (o.mode == "timed" || o.mode == "trace");
}

std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Modelled counts summed over playbacks; all repeat exactly. */
struct ModelCounts
{
    std::uint64_t frames = 0;
    std::uint64_t mach_lookups = 0;
    std::uint64_t mach_hits = 0;
    std::uint64_t mach_false_hits = 0;
    std::uint64_t wb_bytes = 0;
    std::uint64_t wb_baseline_bytes = 0;
    double vd_miss_frames = 0.0;
    std::uint64_t dram_requests = 0;
    std::uint64_t dram_activations = 0;
    std::uint64_t dram_retries = 0;
    std::uint64_t dram_abandoned = 0;
    std::uint64_t dc_hits = 0;
    std::uint64_t dc_lookups = 0;
    std::uint64_t mb_hits = 0;
    std::uint64_t mb_lookups = 0;
    std::uint64_t verify_failures = 0;
    std::uint64_t sleep_events = 0;
    Tick s3 = 0;
    Tick span = 0;

    void
    add(const PipelineResult &r, const VideoProfile &p)
    {
        const std::uint32_t mab_bytes =
            p.mab_dim * p.mab_dim * kBytesPerPixel;
        frames += r.frames;
        mach_lookups += r.mach.lookups;
        mach_hits += r.mach.hits();
        mach_false_hits += r.mach.false_hits;
        wb_bytes += r.writeback.totalBytes();
        wb_baseline_bytes += r.writeback.baselineBytes(mab_bytes);
        vd_miss_frames += r.vd_cache_miss_rate * r.frames;
        dram_requests +=
            r.dram_total.read_bursts + r.dram_total.write_bursts;
        dram_activations += r.dram_total.activations;
        dram_retries += r.dram_retries;
        dram_abandoned += r.dram_abandoned;
        dc_hits += r.display_cache_hits;
        dc_lookups += r.display_cache_hits + r.display_cache_misses;
        mb_hits += r.mach_buffer_hits;
        mb_lookups += r.mach_buffer_hits + r.mach_buffer_misses;
        verify_failures += r.display.verify_failures;
        sleep_events += r.sleep_events;
        s3 += r.vd_time.s3;
        span += r.span;
    }

    void
    write(JsonWriter &w) const
    {
        const auto d = [](auto x) { return static_cast<double>(x); };
        w.kv("core.mach_hit_frac", ratio(d(mach_hits), d(mach_lookups)));
        w.kv("core.writeback_saved_frac",
             1.0 - ratio(d(wb_bytes), d(wb_baseline_bytes)));
        w.kv("core.mach_false_hits", mach_false_hits);
        w.kv("decoder.vd_cache_miss_frac", ratio(vd_miss_frames, d(frames)));
        w.kv("mem.requests_per_frame", ratio(d(dram_requests), d(frames)));
        w.kv("mem.activations_per_frame",
             ratio(d(dram_activations), d(frames)));
        w.kv("mem.retries", dram_retries);
        w.kv("mem.abandoned", dram_abandoned);
        w.kv("display.cache_hit_frac", ratio(d(dc_hits), d(dc_lookups)));
        w.kv("display.mach_buffer_hit_frac",
             ratio(d(mb_hits), d(mb_lookups)));
        w.kv("display.verify_failures", verify_failures);
        w.kv("power.s3_residency", ratio(d(s3), d(span)));
        w.kv("power.sleep_events_per_frame",
             ratio(d(sleep_events), d(frames)));
    }
};

/** Serving-layer counts of a finished fleet (zero for sweeps). */
void
writeServeCounts(JsonWriter &w, const Placer *placer,
                 const StatsSnapshot &fleet, std::size_t arrivals)
{
    const auto d = [](auto x) { return static_cast<double>(x); };
    DedupDomainStats dedup;
    if (placer != nullptr && placer->dedupTier() != nullptr) {
        dedup = placer->dedupTier()->totals();
    }
    const std::uint64_t admitted = placer ? placer->admitted() : 0;
    w.kv("serve.admitted_frac", ratio(d(admitted), d(arrivals)));
    w.kv("serve.evicted_frac",
         ratio(d(fleet.count("state.evicted")), d(admitted)));
    w.kv("serve.queue_timeouts",
         placer ? placer->recovery().queue_timeouts : std::uint64_t{0});
    w.kv("serve.breaker_trips", fleet.count("breaker.trips"));
    w.kv("serve.recovered_sessions",
         fleet.count("breaker.recoveredSessions"));
    w.kv("serve.dedup_hit_frac",
         ratio(d(dedup.shared_hits),
               d(dedup.shared_hits + dedup.unique_published)));
    w.kv("serve.dedup_bytes_elided", dedup.bytes_elided);
    w.kv("serve.dedup_false_hits", dedup.false_hits);
}

/** One line per unit: every simulated statistic a speed-up must keep. */
void
writeSweepDump(std::ostream &os, const std::vector<SweepUnit> &units,
               const std::vector<PipelineResult> &results)
{
    char buf[64];
    const auto hex = [&](double v) {
        std::snprintf(buf, sizeof buf, " %a", v);
        os << buf;
    };
    const auto dram = [&](const DramActivityCounts &c) {
        os << ' ' << c.activations << ' ' << c.precharges << ' '
           << c.read_bursts << ' ' << c.write_bursts << ' ' << c.row_hits
           << ' ' << c.bytes_read << ' ' << c.bytes_written;
    };
    for (std::size_t u = 0; u < units.size(); ++u) {
        const PipelineResult &r = results[u];
        const EnergyBreakdown &e = r.energy;
        os << units[u].profile.key << ' ' << schemeKey(units[u].scheme)
           << " energy";
        for (double v : {e.dc, e.mem_background, e.vd_processing, e.sleep,
                         e.short_slack, e.mem_burst, e.mem_act_pre,
                         e.transition, e.mach_overhead}) {
            hex(v);
        }
        os << " total";
        hex(r.totalEnergy());
        const WritebackTotals &wb = r.writeback;
        const MachStats &m = r.mach;
        const DisplayTotals &dc = r.display;
        os << " drops " << r.drops << " underruns " << r.underruns
           << " writeback " << wb.mabs << ' ' << wb.unique_blocks << ' '
           << wb.intra_matches << ' ' << wb.inter_matches << ' '
           << wb.data_bytes << ' ' << wb.meta_bytes << ' '
           << wb.dump_bytes << ' ' << wb.dram_write_requests << ' '
           << wb.dcc_saved_bytes << " mach " << m.lookups << ' '
           << m.intra_hits << ' ' << m.inter_hits << ' ' << m.misses << ' '
           << m.collisions_detected << ' ' << m.collisions_undetected
           << ' ' << m.inserts << ' ' << m.injected_collisions << ' '
           << m.false_hits << ' ' << m.bypassed_lookups << " display "
           << dc.frames_shown << ' ' << dc.re_renders << ' '
           << dc.dram_requests << ' ' << dc.bytes_read << ' '
           << dc.meta_bytes << ' ' << dc.digest_records << ' '
           << dc.pointer_records << ' ' << dc.fragmented_fetches << ' '
           << dc.verify_failures << ' ' << dc.eliminated_frames << ' '
           << dc.underrun_repeats << ' ' << dc.pixel_digest << " dram_vd";
        dram(r.dram_vd);
        os << " dram_dc";
        dram(r.dram_dc);
        os << " verified " << (r.all_verified ? 1 : 0) << '\n';
    }
}

/** bench_fig11_energy's rule: a unit that fails display verification
 * passes only when an undetected digest collision explains it. */
std::uint64_t
sweepFailures(const std::vector<PipelineResult> &results)
{
    std::uint64_t failed = 0;
    for (const PipelineResult &r : results) {
        failed += (r.all_verified || r.mach.collisions_undetected > 0) ? 0
                                                                       : 1;
    }
    return failed;
}

bool
sameContentPath(const ReplayTotals &a, const PipelineResult &b)
{
    const WritebackTotals &x = a.writeback;
    const WritebackTotals &y = b.writeback;
    const MachStats &m = a.mach;
    const MachStats &n = b.mach;
    return x.mabs == y.mabs && x.unique_blocks == y.unique_blocks &&
           x.intra_matches == y.intra_matches &&
           x.inter_matches == y.inter_matches &&
           x.data_bytes == y.data_bytes && x.meta_bytes == y.meta_bytes &&
           x.dump_bytes == y.dump_bytes &&
           x.dram_write_requests == y.dram_write_requests &&
           x.dcc_saved_bytes == y.dcc_saved_bytes &&
           m.lookups == n.lookups && m.intra_hits == n.intra_hits &&
           m.inter_hits == n.inter_hits && m.misses == n.misses &&
           m.collisions_detected == n.collisions_detected &&
           m.collisions_undetected == n.collisions_undetected &&
           m.inserts == n.inserts &&
           m.injected_collisions == n.injected_collisions &&
           m.false_hits == n.false_hits &&
           m.bypassed_lookups == n.bypassed_lookups;
}

/** Step @p cfg through VideoPipeline's public stepwise API, one span
 * per phase; teardown is charged to pipeline.finish. */
PipelineResult
stepPipeline(const PipelineConfig &cfg, SpanTrace &tr, std::uint64_t unit)
{
    std::optional<VideoPipeline> pl;
    {
        ScopedSpan s(tr, "pipeline.setup", unit);
        pl.emplace(cfg);
        pl->start();
    }
    while (!pl->stepDone()) {
        ScopedSpan s(tr, "pipeline.step", unit);
        pl->stepVsync();
    }
    ScopedSpan s(tr, "pipeline.finish", unit);
    PipelineResult r = pl->finish();
    pl.reset();
    return r;
}

/** What one process reports besides its counts.  setup_s, wall_s and
 * cpu_s are scaled to the reference host speed (host_probe.hh);
 * wall_raw_s is the timed pass as the clock read it. */
struct Report
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double wall_raw_s = 0.0;
    /** Median probe factor of the timed pass (1 = the reference). */
    double host_speed = 0.0;
    /** Taken right after the timed pass, before any bookkeeping. */
    double peak_rss_mb = 0.0;
    std::uint64_t sessions = 0;
    std::uint64_t frames = 0;
    std::uint64_t failed = 0;
    std::uint64_t replay_mismatches = 0;
};

/** Set-up time in s: the median of @p setups (warm repetitions, in s)
 * scaled by walks of the probe taken right after them.  The walks
 * come after the repetitions so that the probe's table does not evict
 * what they reuse; microseconds later the host is no faster. */
double
scaledSetup(const std::vector<double> &setups)
{
    std::vector<double> speeds;
    for (int i = 0; i < 5; ++i) {
        speeds.push_back(probeSpeed());
    }
    return medianOf(setups) * medianOf(speeds);
}

/** Record a timed pass that @p clock scaled; its process CPU time
 * @p cpu_raw_s is scaled as its wall time was. */
void
finishTimedPass(Report &rep, ScaledClock &clock, double wall_raw_s,
                double cpu_raw_s)
{
    rep.wall_s = clock.stop();
    rep.host_speed = clock.speed();
    rep.wall_raw_s = wall_raw_s;
    rep.cpu_s = cpu_raw_s * rep.wall_s / wall_raw_s;
    // The probe's table stays resident; the library alone would not
    // hold it.
    rep.peak_rss_mb =
        peakRssMb() - static_cast<double>(kProbeBytes) / (1024.0 * 1024.0);
}

/** Print the process's one-line JSON result on stdout. */
void
printReport(const Options &o, const Workload &w, unsigned jobs,
            const Report &rep, const ModelCounts *model,
            const Placer *placer, const StatsSnapshot &fleet,
            std::size_t arrivals)
{
    JsonWriter j(std::cout, /*pretty=*/false);
    j.beginObject();
    j.kv("workload", w.name);
    j.kv("seed", o.seed);
    j.kv("jobs", std::uint64_t{jobs});
    j.kv("setup_s", rep.setup_s);
    j.kv("wall_s", rep.wall_s);
    j.kv("cpu_s", rep.cpu_s);
    j.kv("wall_raw_s", rep.wall_raw_s);
    j.kv("host_speed", rep.host_speed);
    j.kv("peak_rss_mb", rep.peak_rss_mb);
    j.kv("sessions", rep.sessions);
    j.kv("frames", rep.frames);
    j.kv("failed", rep.failed);
    j.kv("threads_spawned", ThreadPool::instance().threadsSpawned());
    j.kv("replay_mismatches", rep.replay_mismatches);
    j.key("counts");
    j.beginObject();
    if (model != nullptr) {
        model->write(j);
    }
    writeServeCounts(j, placer, fleet, arrivals);
    j.endObject();
    j.endObject();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary);
    f << bytes;
}

// ---- sweeps -----------------------------------------------------------

/** Sweeps run their units serially, one probe before each unit. */
int
runSweep(const Options &o, const Workload &w)
{
    Report rep;
    std::vector<SweepUnit> units;
    std::vector<double> setups;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        const std::int64_t t0 = nowNs();
        units = sweepUnits(w.sweep, o.seed);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    rep.setup_s = scaledSetup(setups);
    rep.sessions = units.size();
    for (const SweepUnit &u : units) {
        rep.frames += u.profile.frame_count;
    }

    std::vector<PipelineResult> results;
    std::ostringstream dump;
    SpanTrace tr;
    if (o.mode == "timed") {
        ScaledClock clock;
        const std::int64_t c0 = cpuNs();
        const std::int64_t t0 = nowNs();
        for (const SweepUnit &u : units) {
            clock.mark();
            results.push_back(
                simulateScheme(u.profile, SchemeConfig::make(u.scheme)));
        }
        writeSweepDump(dump, units, results);
        finishTimedPass(rep, clock, static_cast<double>(nowNs() - t0) / 1e9,
                        static_cast<double>(cpuNs() - c0) / 1e9);
    } else {
        // Each unit's replay follows its stepped run at once, so host
        // drift cannot open a gap between the two.
        for (std::size_t u = 0; u < units.size(); ++u) {
            const PipelineConfig cfg = unitConfig(units[u]);
            results.push_back(stepPipeline(cfg, tr, u));
            const ReplayTotals t = replayUnit(cfg, tr, u);
            rep.replay_mismatches += sameContentPath(t, results[u]) ? 0 : 1;
        }
        writeSweepDump(dump, units, results);
    }
    rep.failed = sweepFailures(results);
    ModelCounts model;
    for (std::size_t u = 0; u < units.size(); ++u) {
        model.add(results[u], units[u].profile);
    }
    writeFile(o.dump, dump.str());
    if (!o.trace_out.empty()) {
        std::ofstream f(o.trace_out);
        tr.writeChrome(f);
    }
    printReport(o, w, 1, rep, &model, nullptr, StatsSnapshot{}, 0);
    return 0;
}

// ---- fleets -----------------------------------------------------------

/** The session's video and scheme with the fault and network models
 * (and the stall mix's short preroll) back at their defaults: the
 * playback the layer replay reproduces, so both traced runs of a
 * sampled session do the same work. */
PipelineConfig
pristine(const SessionConfig &c)
{
    PipelineConfig p = c.pipeline;
    p.faults = FaultConfig{};
    p.arrival = ArrivalConfig{};
    p.preroll_frames = PipelineConfig{}.preroll_frames;
    return p;
}

int
runFleet(const Options &o, const Workload &w, unsigned jobs)
{
    // Every 16th rehearsed session is also stepped and replayed layer
    // by layer; per-frame layer costs need a sample, not the fleet.
    constexpr std::size_t kLayerSample = 16;
    const bool traced = o.mode == "trace";
    // Placer::run offers one point between stretches of its work: it
    // calls the factory serially on this thread, a rehearsal block at
    // a time, before rehearsing the block on the pool.  The timed pass
    // marks its clock there, every kProbeEvery-th call.
    constexpr std::uint64_t kProbeEvery = 256;
    Report rep;
    SpanTrace tr;
    ScaledClock clock;
    bool timing = false;
    std::uint64_t calls = 0;
    std::unique_ptr<FleetInputs> in;
    std::unique_ptr<Placer> placer;
    const auto factory = [&](const ArrivalEvent &a) {
        if (traced) {
            ScopedSpan s(tr, "serve.factory", a.id);
            return in->session(a);
        }
        if (timing && ++calls % kProbeEvery == 0) {
            clock.mark();
        }
        return in->session(a);
    };

    std::vector<double> setups;
    for (unsigned r = 0; r < (traced ? 1 : kSetupReps); ++r) {
        placer.reset();
        in.reset();
        const std::int64_t t0 = nowNs();
        if (traced) {
            ScopedSpan s(tr, "serve.arrivals");
            in = buildFleetInputs(w.fleet, jobs, o.seed);
        } else {
            in = buildFleetInputs(w.fleet, jobs, o.seed);
        }
        placer = std::make_unique<Placer>(in->config, factory);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    rep.setup_s = scaledSetup(setups);

    std::ostringstream dump;
    StatsSnapshot fleet;
    std::uint64_t broken_invariants = 0;
    {
        const std::int64_t c0 = cpuNs();
        const std::int64_t t0 = nowNs();
        {
            std::optional<ScopedSpan> s;
            if (traced) {
                s.emplace(tr, "serve.run");
            } else {
                clock.mark();
                timing = true;
            }
            placer->run(in->arrivals);
            timing = false;
        }
        std::optional<ScopedSpan> s;
        if (traced) {
            s.emplace(tr, "serve.report");
        }
        fleet = placer->fleetSnapshot();
        broken_invariants =
            fleetInvariantFailures(*placer, in->arrivals, fleet);
        // The report bytes are bench_soak's, wall clock pinned to 0.
        writeFleetReport(dump, *placer, "bench_soak", w.fleet.sessions, 0.0,
                         broken_invariants);
        if (!traced) {
            finishTimedPass(rep, clock,
                            static_cast<double>(nowNs() - t0) / 1e9,
                            static_cast<double>(cpuNs() - c0) / 1e9);
        }
    }
    // A broken fleet invariant invalidates every session of the run.
    rep.sessions = in->arrivals.size();
    rep.failed = broken_invariants > 0 ? rep.sessions : 0;

    // Every session the Placer rehearsed (whales never are), built
    // first and then rehearsed back to back, as Placer::run does.
    std::vector<SessionConfig> rehearsed;
    for (const ArrivalEvent &a : in->arrivals) {
        SessionConfig c = in->placedSession(a);
        if (!in->neverFits(c)) {
            rep.frames += c.pipeline.profile.frame_count;
            rehearsed.push_back(std::move(c));
        }
    }
    ModelCounts model;
    if (traced) {
        for (const SessionConfig &c : rehearsed) {
            ScopedSpan s(tr, "serve.rehearse", c.id);
            model.add(rehearseSession(c).outcome.result, c.pipeline.profile);
        }
        for (std::size_t i = 0; i < rehearsed.size(); i += kLayerSample) {
            const SessionConfig &c = rehearsed[i];
            if (!c.trace_blob.empty()) {
                continue;
            }
            const PipelineConfig p = pristine(c);
            {
                ScopedSpan s(tr, "pipeline.sample", c.id);
                stepPipeline(p, tr, c.id);
            }
            replayUnit(p, tr, c.id);
        }
    }

    writeFile(o.dump, dump.str());
    if (!o.trace_out.empty()) {
        std::ofstream f(o.trace_out);
        tr.writeChrome(f);
    }
    printReport(o, w, jobs, rep, traced ? &model : nullptr, placer.get(),
                fleet, in->arrivals.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    Workload w;
    bool ok = false;
    try {
        ok = parseOptions(argc, argv, o) && makeWorkload(o.workload, o.smoke, w);
    } catch (const std::exception &) {
        ok = false;
    }
    if (!ok) {
        std::cerr << "usage: vstream_bench --workload NAME --seed N --dump PATH"
                     " [--mode timed|trace] [--size full|smoke] [--jobs J]"
                     " [--trace-out PATH]\n";
        return 2;
    }
    if (!w.is_fleet) {
        return runSweep(o, w);
    }
    // The traced run is serial: one stack of open spans.
    return runFleet(o, w,
                    o.mode == "trace" ? 1 : (o.jobs > 0 ? o.jobs : w.jobs));
}
