/**
 * @file
 * vstream_sim - the command-line front end to the simulator.
 *
 * The one binary a downstream user drives: pick a workload (or a
 * fully custom geometry), a scheme, and any of the optional
 * mechanisms, and get the full result summary - optionally with the
 * per-component statistics dump and the per-frame CSV.
 *
 * Usage:
 *   vstream_sim [options]
 *     --video KEY        workload V1..V16 (default V8)
 *     --frames N         frame cap (default 300)
 *     --width W --height H  simulated resolution
 *     --scheme X         L|B|R|S|M|G (default G)
 *     --batch N          batch depth (default 16)
 *     --dcc              add Delta Color Compression
 *     --co-mach          add the CO-MACH collision detector
 *     --te               add checksum transaction elimination
 *     --dvfs             history-based DVFS instead of fixed freq
 *     --machs N          number of MACHs (default 8)
 *     --entries N        entries per MACH (default 256)
 *     --write-queue N    DRAM posted-write queue depth (default 0)
 *     --stats FILE       dump per-component statistics (text)
 *     --stats-json FILE  dump the same statistics as JSON
 *     --stats-csv FILE   dump the same statistics as CSV
 *     --trace-out FILE   record a Chrome/Perfetto trace of the run
 *     --csv FILE         dump per-frame records
 *     --seed N           content seed override
 *
 * Robustness options (see docs/ROBUSTNESS.md):
 *     --arrival-bandwidth MBPS  explicit network arrival model
 *     --arrival-jitter SIGMA    lognormal jitter on transfer times
 *     --arrival-preroll N       frames buffered before playback
 *     --fault-seed N            fault-schedule RNG seed
 *     --fault-stall SPEC        network-stall rule (needs len=...)
 *     --fault-digest SPEC       MACH digest-collision rule
 *     --fault-dram SPEC         DRAM burst-timeout rule
 *     --fault-retry N           DRAM retry budget (default 3)
 *     --verify-on-hit           byte-compare MACH hits (catches
 *                               collisions at a 48 B re-read cost)
 *   SPEC = "p=0.01,from=200ms,until=1.5s,max=3,len=250ms" or
 *   "at=1.2s" (one-shot).
 *
 * Every value option also accepts the --opt=VALUE spelling.  Bad
 * input (an unknown flag, a malformed number or spec) exits with
 * status 2.
 * See docs/STATS.md and docs/TRACING.md for the output formats.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>

#include "core/video_pipeline.hh"
#include "serve/cli_args.hh"
#include "sim/trace_event.hh"
#include "video/workloads.hh"

namespace
{

using namespace vstream;

} // namespace

int
main(int argc, char **argv)
{
    std::string video = "V8";
    std::uint32_t frames = 300, width = 0, height = 0, batch = 16;
    Scheme scheme = Scheme::kGab;
    bool dcc = false, co_mach = false, te = false, dvfs = false;
    std::string stats_file, stats_json_file, stats_csv_file;
    std::string trace_file, csv_file;
    std::uint64_t seed = 0;
    // Flags set the config directly; the profile and scheme are
    // filled in once parsing is done.
    PipelineConfig cfg;

    cli::parseFlags(
        argc, argv,
        [&](cli::Flag &f) {
            if (f.is("--video")) {
                video = f.next();
            } else if (f.is("--frames")) {
                frames = f.nextU32();
            } else if (f.is("--width")) {
                width = f.nextU32();
            } else if (f.is("--height")) {
                height = f.nextU32();
            } else if (f.is("--scheme")) {
                scheme = f.nextScheme();
            } else if (f.is("--batch")) {
                batch = f.nextU32();
            } else if (f.is("--dcc")) {
                dcc = true;
            } else if (f.is("--co-mach")) {
                co_mach = true;
            } else if (f.is("--te")) {
                te = true;
            } else if (f.is("--dvfs")) {
                dvfs = true;
            } else if (f.is("--machs")) {
                cfg.mach.num_machs = f.nextU32();
            } else if (f.is("--entries")) {
                cfg.mach.entries = f.nextU32();
            } else if (f.is("--write-queue")) {
                cfg.dram.write_queue_depth = f.nextU32();
            } else if (f.is("--stats")) {
                stats_file = f.next();
            } else if (f.is("--stats-json")) {
                stats_json_file = f.next();
            } else if (f.is("--stats-csv")) {
                stats_csv_file = f.next();
            } else if (f.is("--trace-out")) {
                trace_file = f.next();
            } else if (f.is("--csv")) {
                csv_file = f.next();
            } else if (f.is("--seed")) {
                seed = f.nextU64();
            } else {
                return cli::sessionFlag(f, cfg);
            }
            return true;
        });

    cfg.profile = scaledWorkload(video, frames, width, height);
    if (seed != 0) {
        cfg.profile.seed = seed;
    }
    cfg.scheme = SchemeConfig::make(scheme, batch);
    cfg.scheme.dcc = dcc;
    cfg.scheme.co_mach = co_mach;
    cfg.scheme.transaction_elimination = te;
    cfg.scheme.dvfs_slack = dvfs;

    std::unique_ptr<std::ofstream> stats_os, stats_json_os;
    std::unique_ptr<std::ofstream> stats_csv_os, csv_os;
    std::unique_ptr<TraceEventSink> trace;
    if (!stats_file.empty()) {
        stats_os = std::make_unique<std::ofstream>(stats_file);
        cfg.stats_out = stats_os.get();
    }
    if (!stats_json_file.empty()) {
        stats_json_os =
            std::make_unique<std::ofstream>(stats_json_file);
        cfg.stats_json = stats_json_os.get();
    }
    if (!stats_csv_file.empty()) {
        stats_csv_os = std::make_unique<std::ofstream>(stats_csv_file);
        cfg.stats_csv = stats_csv_os.get();
    }
    if (!trace_file.empty()) {
        trace = std::make_unique<TraceEventSink>();
        cfg.trace = trace.get();
    }
    if (!csv_file.empty()) {
        csv_os = std::make_unique<std::ofstream>(csv_file);
        cfg.frame_csv = csv_os.get();
    }

    std::cout << "vstream_sim: " << cfg.profile.key << " ("
              << cfg.profile.name << "), "
              << cfg.profile.frame_count << " frames @ "
              << cfg.profile.width << "x" << cfg.profile.height
              << ", scheme " << schemeName(scheme) << " (batch "
              << batch << ")\n";

    VideoPipeline pipe(std::move(cfg));
    const PipelineResult r = pipe.run();

    std::cout << std::fixed << std::setprecision(2);
    std::cout << "  energy            " << r.totalEnergy() * 1e3
              << " mJ (" << r.totalEnergy() * 1e3 / r.frames
              << " mJ/frame)\n";
    std::cout << "  breakdown (mJ)    "
              << EnergyBreakdown::headerRow() << "\n"
              << "                    "
              << r.energy.normalizedTo(1e-3).row() << "\n";
    std::cout << "  drops             " << r.drops << " / " << r.frames
              << "\n";
    std::cout << "  S3 residency      " << 100.0 * r.s3Residency()
              << " %\n";
    std::cout << "  sleep events      " << r.sleep_events << "\n";
    std::cout << "  peak buffers      " << r.peak_buffers << "\n";
    if (r.mach.lookups > 0) {
        std::cout << "  MACH hit rate     "
                  << 100.0 * r.mach.hitRate() << " % ("
                  << r.mach.intra_hits << " intra, "
                  << r.mach.inter_hits << " inter)\n";
        std::cout << "  writeback saved   "
                  << 100.0 * r.writeback.savings(48) << " %\n";
    }
    std::cout << "  DC requests       " << r.display.dram_requests
              << " (" << r.display.eliminated_frames
              << " frames eliminated)\n";
    std::cout << "  verified          "
              << (r.all_verified ? "yes" : "no") << " ("
              << r.mach.collisions_undetected
              << " undetected collisions)\n";
    if (r.faults.injected > 0 || r.underruns > 0 ||
        r.batch_shrinks > 0) {
        std::cout << "  faults            " << r.faults.injected
                  << " injected, " << r.faults.recovered
                  << " recovered, " << r.faults.abandoned
                  << " abandoned\n";
        std::cout << "  underruns         " << r.underruns << " ("
                  << r.display.underrun_repeats
                  << " repeat scan-outs, " << r.batch_shrinks
                  << " shrunk batches)\n";
    }
    if (r.dram_retries > 0 || r.dram_abandoned > 0) {
        std::cout << "  DRAM retries      " << r.dram_retries << " ("
                  << r.dram_abandoned << " abandoned)\n";
    }
    if (r.mach.false_hits > 0) {
        std::cout << "  false hits caught " << r.mach.false_hits
                  << " (verify-on-hit)\n";
    }
    if (!stats_file.empty()) {
        std::cout << "  stats dump        " << stats_file << "\n";
    }
    if (!stats_json_file.empty()) {
        std::cout << "  stats JSON        " << stats_json_file << "\n";
    }
    if (!stats_csv_file.empty()) {
        std::cout << "  stats CSV         " << stats_csv_file << "\n";
    }
    if (trace) {
        std::ofstream os(trace_file);
        trace->writeJson(os);
        std::cout << "  trace             " << trace_file << " ("
                  << trace->eventCount() << " events)\n";
    }
    if (!csv_file.empty()) {
        std::cout << "  frame CSV         " << csv_file << "\n";
    }
    return 0;
}
