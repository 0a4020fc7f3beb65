/**
 * @file
 * Workload characterization report.
 *
 * For each of the 16 Table-1 videos, prints the content-similarity
 * statistics an architect would use to size MACH (the paper's
 * Sec. 4.1 analysis): exact intra/inter/no-match fractions, the
 * gab-level match fraction, the optimal dedup bound, and the savings
 * the actual MACH design achieves at the decoder and the display.
 *
 * Usage: workload_report [frames] [keys...]
 */

#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/video_pipeline.hh"
#include "serve/cli_args.hh"
#include "video/similarity.hh"
#include "video/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace vstream;

    const std::uint32_t frames =
        cli::positionalU32(argc, argv, 1, "frames", 96);

    std::vector<std::string> keys;
    for (int i = 2; i < argc; ++i) {
        keys.emplace_back(argv[i]);
    }
    if (keys.empty()) {
        for (const auto &p : workloadTable()) {
            keys.push_back(p.key);
        }
    }

    std::cout << std::left << std::setw(5) << "key" << std::right
              << std::setw(8) << "intra%" << std::setw(8) << "inter%"
              << std::setw(8) << "none%" << std::setw(8) << "gab%"
              << std::setw(9) << "optMab%" << std::setw(9) << "optGab%"
              << std::setw(9) << "mabSv%" << std::setw(9) << "gabSv%"
              << std::setw(9) << "dcSv%" << std::setw(8) << "top1g%"
              << "\n";

    for (const auto &key : keys) {
        const VideoProfile p = scaledWorkload(key, frames);
        const SimilarityReport sim = analyzeSimilarity(p, frames);

        const auto base =
            simulateScheme(p, SchemeConfig::make(Scheme::kBaseline));
        const auto mab =
            simulateScheme(p, SchemeConfig::make(Scheme::kMab));
        const auto gab =
            simulateScheme(p, SchemeConfig::make(Scheme::kGab));

        const std::uint32_t mab_bytes = p.mab_dim * p.mab_dim * 3;
        const double dc_save =
            base.display.dram_requests
                ? 1.0 - static_cast<double>(gab.display.dram_requests) /
                            static_cast<double>(base.display.dram_requests)
                : 0.0;

        std::cout << std::left << std::setw(5) << key << std::right
                  << std::fixed << std::setprecision(1) << std::setw(8)
                  << 100.0 * sim.intraFraction() << std::setw(8)
                  << 100.0 * sim.interFraction() << std::setw(8)
                  << 100.0 * sim.noneFraction() << std::setw(8)
                  << 100.0 * sim.gabMatchFraction() << std::setw(9)
                  << 100.0 * sim.optimal_mab_savings << std::setw(9)
                  << 100.0 * sim.optimal_gab_savings << std::setw(9)
                  << 100.0 * mab.writeback.savings(mab_bytes)
                  << std::setw(9)
                  << 100.0 * gab.writeback.savings(mab_bytes)
                  << std::setw(9) << 100.0 * dc_save << std::setw(8)
                  << (sim.top_gab_shares.empty()
                          ? 0.0
                          : 100.0 * sim.top_gab_shares[0])
                  << "\n";
    }
    return 0;
}
