/**
 * @file
 * MACH design-space explorer.
 *
 * An architect's view of the content cache: sweep MACH geometry
 * (entries, associativity, history depth) and the display-side
 * structures, and report the hit rate, memory-traffic savings, SRAM
 * overhead power, and the resulting net energy - the trade-offs
 * behind the paper's chosen 8 x 256 x 4-way design.
 *
 * Usage: design_space [video-key] [frames]
 */

#include <iomanip>
#include <iostream>

#include "core/video_pipeline.hh"
#include "serve/cli_args.hh"
#include "video/workloads.hh"

namespace
{

using namespace vstream;

void
row(const std::string &label, const PipelineResult &r, double base_e,
    double overhead_mw)
{
    const std::uint32_t mab_bytes = 48;
    std::cout << std::left << std::setw(26) << label << std::right
              << std::fixed << std::setprecision(1) << std::setw(8)
              << 100.0 * r.mach.hitRate() << std::setw(9)
              << 100.0 * r.writeback.savings(mab_bytes) << std::setw(9)
              << overhead_mw << std::setprecision(3) << std::setw(10)
              << r.totalEnergy() / base_e << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string key = argc > 1 ? argv[1] : "V8";
    const std::uint32_t frames =
        cli::positionalU32(argc, argv, 2, "frames", 96);
    const VideoProfile profile = scaledWorkload(key, frames);

    std::cout << "MACH design space on " << profile.key << " ("
              << profile.name << ")\n\n";
    std::cout << std::left << std::setw(26) << "configuration"
              << std::right << std::setw(8) << "hit%" << std::setw(9)
              << "wbSave%" << std::setw(9) << "ovh mW" << std::setw(10)
              << "energy" << "\n";

    const double base_e =
        simulateScheme(profile, SchemeConfig::make(Scheme::kRaceToSleep))
            .totalEnergy();

    // Entries x history sweep.  SRAM power scales with capacity
    // against the paper's CACTI-derived 5.7 mW at 8 x 256 entries.
    for (std::uint32_t machs : {4u, 8u, 16u}) {
        for (std::uint32_t entries : {128u, 256u, 512u}) {
            PipelineConfig cfg;
            cfg.profile = profile;
            cfg.scheme = SchemeConfig::make(Scheme::kGab);
            cfg.mach.num_machs = machs;
            cfg.mach.entries = entries;
            const double scale =
                static_cast<double>(machs) * entries / (8.0 * 256.0);
            cfg.mach.mach_power_w = 5.7e-3 * scale;
            VideoPipeline pipe(std::move(cfg));
            const PipelineResult r = pipe.run();

            std::ostringstream label;
            label << machs << " MACHs x " << entries << " entries";
            row(label.str(), r, base_e, 1e3 * cfg.mach.mach_power_w);
        }
    }

    // Associativity sweep at the paper's size.
    std::cout << "\n";
    for (std::uint32_t ways : {1u, 2u, 4u, 8u}) {
        PipelineConfig cfg;
        cfg.profile = profile;
        cfg.scheme = SchemeConfig::make(Scheme::kGab);
        cfg.mach.ways = ways;
        VideoPipeline pipe(std::move(cfg));
        const PipelineResult r = pipe.run();
        std::ostringstream label;
        label << "8 x 256, " << ways << "-way";
        row(label.str(), r, base_e, 5.7);
    }

    // Representation and display-side ablations.
    std::cout << "\n";
    {
        const auto mab =
            simulateScheme(profile, SchemeConfig::make(Scheme::kMab));
        row("mab tags (no gradient)", mab, base_e, 5.7);

        SchemeConfig no_dc = SchemeConfig::make(Scheme::kGab);
        no_dc.display_cache = false;
        row("gab, no display cache",
            simulateScheme(profile, no_dc), base_e, 5.7);

        SchemeConfig no_mb = SchemeConfig::make(Scheme::kGab);
        no_mb.mach_buffer = false;
        no_mb.layout = LayoutKind::kPointer;
        row("gab, no MACH buffer",
            simulateScheme(profile, no_mb), base_e, 5.7);

        SchemeConfig full = SchemeConfig::make(Scheme::kGab);
        row("gab, full (paper)", simulateScheme(profile, full),
            base_e, 5.7);

        SchemeConfig co = SchemeConfig::make(Scheme::kGab);
        co.co_mach = true;
        row("gab + CO-MACH", simulateScheme(profile, co), base_e,
            5.7 + 1.4);

        SchemeConfig dcc = SchemeConfig::make(Scheme::kGab);
        dcc.dcc = true;
        row("gab + DCC", simulateScheme(profile, dcc), base_e, 5.7);
    }

    std::cout << "\n(energy normalized to Race-to-Sleep without "
                 "MACH; the paper's 8 x 256 x 4-way gab design is "
                 "the knee of the curve)\n";
    return 0;
}
