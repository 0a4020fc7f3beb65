/**
 * @file
 * Data-export walkthrough: the offline artifacts the library can
 * produce around a simulation.
 *
 *  1. a binary video trace (the FFmpeg-trace-equivalent input),
 *  2. per-component statistics (gem5-style),
 *  3. a per-frame CSV (the raw data behind the Fig. 2/4 CDFs).
 *
 * Usage: export_report [video-key] [frames] [output-dir]
 */

#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/video_pipeline.hh"
#include "serve/cli_args.hh"
#include "video/trace.hh"
#include "video/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace vstream;

    const std::string key = argc > 1 ? argv[1] : "V8";
    const std::uint32_t frames =
        cli::positionalU32(argc, argv, 2, "frames", 60);
    const std::filesystem::path dir =
        argc > 3 ? argv[3] : std::filesystem::temp_directory_path();

    const VideoProfile profile = scaledWorkload(key, frames);

    // 1. Trace the synthetic video to disk and verify it loads back.
    const auto trace_path = dir / (profile.key + ".vstrace");
    {
        std::ofstream out(trace_path, std::ios::binary);
        writeTrace(out, profile);
    }
    {
        std::ifstream in(trace_path, std::ios::binary);
        const TraceLoadResult loaded = loadTrace(in);
        if (!loaded.ok()) {
            std::cerr << "trace " << trace_path << ": "
                      << traceErrorName(loaded.error) << "\n";
            return 1;
        }
        std::cout << "trace: " << trace_path << " ("
                  << std::filesystem::file_size(trace_path)
                  << " bytes, " << loaded.frames.size()
                  << " frames, integrity verified)\n";
    }

    // 2 & 3. Simulate with both exporters attached.
    const auto stats_path = dir / (profile.key + ".stats.txt");
    const auto csv_path = dir / (profile.key + ".frames.csv");
    std::ofstream stats(stats_path);
    std::ofstream csv(csv_path);

    PipelineConfig cfg;
    cfg.profile = profile;
    cfg.scheme = SchemeConfig::make(Scheme::kGab);
    cfg.stats_out = &stats;
    cfg.frame_csv = &csv;
    VideoPipeline pipe(std::move(cfg));
    const PipelineResult r = pipe.run();

    std::cout << "stats: " << stats_path << "\n";
    std::cout << "csv:   " << csv_path << " (" << r.frames
              << " rows)\n";
    std::cout << "\nsummary: " << r.totalEnergy() * 1e3 << " mJ, "
              << r.drops << " drops, "
              << 100.0 * r.writeback.savings(48)
              << "% writeback saved, verified="
              << (r.all_verified ? "yes" : "no");
    if (!r.all_verified) {
        std::cout << " (" << r.mach.collisions_undetected
                  << " undetected CRC32 collisions - enable "
                     "SchemeConfig::co_mach to eliminate them)";
    }
    std::cout << "\n";
    return 0;
}
