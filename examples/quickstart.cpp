/**
 * @file
 * Quickstart: simulate one video under all six schemes and print the
 * headline numbers (energy breakdown, drops, sleep residency, memory
 * savings).
 *
 * Usage: quickstart [video-key] [frames]
 *   video-key  V1..V16 (default V8)
 *   frames     frame-count cap (default 120)
 */

#include <iomanip>
#include <iostream>

#include "core/video_pipeline.hh"
#include "serve/cli_args.hh"
#include "video/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace vstream;

    const std::string key = argc > 1 ? argv[1] : "V8";
    const std::uint32_t frames =
        cli::positionalU32(argc, argv, 2, "frames", 120);

    const VideoProfile profile = scaledWorkload(key, frames);
    std::cout << "video " << profile.key << " (" << profile.name
              << "), " << profile.frame_count << " frames, "
              << profile.width << "x" << profile.height << " @ "
              << profile.fps << " fps\n\n";

    std::cout << std::left << std::setw(20) << "scheme" << std::right
              << std::setw(12) << "energy(mJ)" << std::setw(9) << "norm"
              << std::setw(7) << "drops" << std::setw(9) << "S3%"
              << std::setw(10) << "wbSave%" << std::setw(10) << "dcSave%"
              << std::setw(8) << "bufs" << std::setw(7) << "ok"
              << "\n";

    double baseline_energy = 0.0;
    double baseline_dc_reads = 0.0;

    for (Scheme s :
         {Scheme::kBaseline, Scheme::kBatching, Scheme::kRacing,
          Scheme::kRaceToSleep, Scheme::kMab, Scheme::kGab}) {
        const PipelineResult r =
            simulateScheme(profile, SchemeConfig::make(s));

        if (s == Scheme::kBaseline) {
            baseline_energy = r.totalEnergy();
            baseline_dc_reads =
                static_cast<double>(r.display.dram_requests);
        }

        const double dc_save =
            baseline_dc_reads > 0
                ? 1.0 - static_cast<double>(r.display.dram_requests) /
                            baseline_dc_reads
                : 0.0;
        const std::uint32_t mab_bytes =
            profile.mab_dim * profile.mab_dim * 3;

        std::cout << std::left << std::setw(20) << schemeName(s)
                  << std::right << std::fixed << std::setprecision(2)
                  << std::setw(12) << r.totalEnergy() * 1e3
                  << std::setw(9) << r.totalEnergy() / baseline_energy
                  << std::setw(7) << r.drops << std::setw(9)
                  << 100.0 * r.s3Residency() << std::setw(10)
                  << 100.0 * r.writeback.savings(mab_bytes)
                  << std::setw(10) << 100.0 * dc_save << std::setw(8)
                  << r.peak_buffers << std::setw(7)
                  << (r.all_verified ? "yes" : "NO") << "\n";
    }

    std::cout << "\nenergy breakdown (mJ): " << EnergyBreakdown::headerRow()
              << "\n";
    for (Scheme s :
         {Scheme::kBaseline, Scheme::kRaceToSleep, Scheme::kGab}) {
        const PipelineResult r =
            simulateScheme(profile, SchemeConfig::make(s));
        std::cout << std::left << std::setw(4) << schemeKey(s)
                  << r.energy.normalizedTo(1e-3).row() << "\n";
    }
    return 0;
}
