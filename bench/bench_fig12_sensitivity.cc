/**
 * @file
 * Fig. 12: sensitivity studies and the collision analysis.
 *
 * (a) Extra frame buffers (beyond triple buffering) vs the number of
 *     MACHs: the paper picks 8; 16 MACHs would cost ~300 MB at 4K.
 * (b) Energy vs MACH-buffer entries: 2K is the chosen trade-off.
 * (c) mab size sweep on V14: 4x4 is optimal.
 * (d) CRC32 / MD5 / SHA1 digests behave alike; CRC32 collides about
 *     once per 200 frames at 4K, and CO-MACH (CRC32||CRC16) pushes
 *     collisions to zero without extra memory bandwidth.
 */

#include "bench_util.hh"

#include "hash/hasher.hh"
#include "serve/cli_args.hh"

namespace
{

using namespace vstream;
using namespace vstream::bench;

void
machCountSweep(Report &rep)
{
    std::cout << "Fig. 12a: extra frame buffers vs number of MACHs "
                 "(GAB, batch 16)\n";
    std::cout << "  #MACHs   peakBuffers   extra-vs-3   4K-equivalent "
                 "extra MB\n";
    for (std::uint32_t machs : {1u, 2u, 4u, 8u, 16u}) {
        PipelineConfig cfg;
        cfg.profile = benchWorkload("V8", 48);
        cfg.scheme = SchemeConfig::make(Scheme::kGab);
        cfg.mach.num_machs = machs;
        VideoPipeline pipe(std::move(cfg));
        const PipelineResult r = pipe.run();
        const std::uint32_t extra =
            r.peak_buffers > 3 ? r.peak_buffers - 3 : 0;
        if (machs == 8u) {
            rep.metric("peakBuffersAt8Machs", 0.0, r.peak_buffers);
        }
        // A 4K frame buffer is 24 MB.
        std::cout << "  " << std::left << std::setw(9) << machs
                  << std::setw(14) << r.peak_buffers << std::setw(13)
                  << extra << std::right << extra * 24 << "\n";
    }
    std::cout << "(grows with the reference window; the paper picks "
                 "8 MACHs, as 16 costs ~300 MB at 4K)\n\n";
}

void
machBufferSweep(unsigned n_jobs)
{
    std::cout << "Fig. 12b: MACH-buffer entries vs energy and DC "
                 "requests (GAB)\n";
    std::cout << "  entries   energy(norm)   dcRequests(norm)   "
                 "bufferMiss%\n";
    const std::vector<std::uint32_t> entry_sweep = {256u, 512u, 1024u,
                                                    2048u, 4096u};
    const std::vector<std::string> mix = videoMix();
    // One pipeline per (entries, video) cell, fanned across workers;
    // the accumulation below walks the results in canonical order.
    const std::vector<PipelineResult> results = parallelMap(
        n_jobs, entry_sweep.size() * mix.size(), [&](std::size_t u) {
            const std::uint32_t entries = entry_sweep[u / mix.size()];
            PipelineConfig cfg;
            cfg.profile = benchWorkload(mix[u % mix.size()], 48);
            cfg.scheme = SchemeConfig::make(Scheme::kGab);
            cfg.display.mach_buffer_entries = entries;
            // Scale the buffer's power with its capacity (96 KB at
            // 2K entries per Table 2).
            cfg.mach.mach_buffer_power_w = 25.4e-3 * entries / 2048.0;
            VideoPipeline pipe(std::move(cfg));
            return pipe.run();
        });
    double base_e = 0.0, base_req = 0.0;
    for (std::size_t ei = 0; ei < entry_sweep.size(); ++ei) {
        const std::uint32_t entries = entry_sweep[ei];
        double e = 0.0, req = 0.0, hits = 0.0, misses = 0.0;
        for (std::size_t vi = 0; vi < mix.size(); ++vi) {
            const PipelineResult &r = results[ei * mix.size() + vi];
            e += r.totalEnergy();
            req += static_cast<double>(r.display.dram_requests);
            hits += static_cast<double>(r.mach_buffer_hits);
            misses += static_cast<double>(r.mach_buffer_misses);
        }
        if (entries == 256u) {
            base_e = e;
            base_req = req;
        }
        std::cout << "  " << std::left << std::setw(10) << entries
                  << std::setw(15) << std::fixed
                  << std::setprecision(4) << e / base_e
                  << std::setw(19) << req / base_req << std::right
                  << std::setprecision(1)
                  << 100.0 * misses / std::max(1.0, hits + misses)
                  << "\n";
    }
    std::cout << "(2K entries = the paper's 96 KB design point)\n\n";
}

void
mabSizeSweep()
{
    std::cout << "Fig. 12c: mab size sweep on V14 (GAB writeback "
                 "savings)\n";
    std::cout << "  mab     bytes   wbSavings%\n";
    for (std::uint32_t dim : {2u, 4u, 8u, 16u}) {
        VideoProfile p = benchWorkload("V14", 48);
        p.mab_dim = dim;
        p.validate();
        const auto r =
            simulateScheme(p, SchemeConfig::make(Scheme::kGab));
        const std::uint32_t mab_bytes = dim * dim * 3;
        std::cout << "  " << std::left << std::setw(2) << dim << "x"
                  << std::setw(5) << dim << std::setw(8) << mab_bytes
                  << std::right << std::fixed << std::setprecision(1)
                  << 100.0 * r.writeback.savings(mab_bytes) << "\n";
    }
    std::cout << "(small blocks repeat more but pay more metadata; "
                 "large blocks rarely match - 4x4 wins, paper "
                 "Fig. 12c)\n\n";
}

void
hashStudy(Report &rep, unsigned n_jobs)
{
    std::cout << "Fig. 12d: hash functions and collisions (GAB)\n";
    std::cout << "  hash     frames   undetected   detected(CO-MACH "
                 "off/on)\n";
    // Four configurations (three plain digests + CO-MACH) x 16
    // videos, one pipeline per cell.  Config index 3 is CO-MACH.
    const std::vector<HashKind> kinds = {HashKind::kCrc32,
                                         HashKind::kMd5,
                                         HashKind::kSha1};
    const auto &table = workloadTable();
    const std::vector<PipelineResult> results = parallelMap(
        n_jobs, (kinds.size() + 1) * table.size(), [&](std::size_t u) {
            const std::size_t ci = u / table.size();
            PipelineConfig cfg;
            cfg.profile =
                scaledWorkload(table[u % table.size()].key, frames(48));
            cfg.scheme = SchemeConfig::make(Scheme::kGab);
            if (ci < kinds.size()) {
                cfg.mach.hash = kinds[ci];
            } else {
                cfg.scheme.co_mach = true;
            }
            VideoPipeline pipe(std::move(cfg));
            return pipe.run();
        });

    for (std::size_t ci = 0; ci < kinds.size(); ++ci) {
        std::uint64_t frames_total = 0;
        std::uint64_t undetected = 0;
        for (std::size_t vi = 0; vi < table.size(); ++vi) {
            const PipelineResult &r = results[ci * table.size() + vi];
            frames_total += r.frames;
            undetected += r.mach.collisions_undetected;
        }
        std::cout << "  " << std::left << std::setw(9)
                  << hashKindName(kinds[ci]) << std::setw(9)
                  << frames_total << std::setw(13) << undetected
                  << "-\n";
    }

    // CO-MACH: CRC32 with the 48-bit deep hash.
    std::uint64_t undetected = 0, detected = 0, frames_total = 0;
    for (std::size_t vi = 0; vi < table.size(); ++vi) {
        const PipelineResult &r =
            results[kinds.size() * table.size() + vi];
        undetected += r.mach.collisions_undetected;
        detected += r.mach.collisions_detected;
        frames_total += r.frames;
    }
    rep.metric("coMachUndetectedCollisions", 0.0,
               static_cast<double>(undetected));
    std::cout << "  " << std::left << std::setw(9) << "crc32+16"
              << std::setw(9) << frames_total << std::setw(13)
              << undetected << detected << " detected\n";
    std::cout << "(all 32-bit digests behave alike; CO-MACH drives "
                 "undetected collisions to zero - paper Sec. 6.3)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned n_jobs = defaultJobs();
    cli::parseFlags(argc, argv, [&](cli::Flag &f) {
        if (!f.is("--jobs")) {
            return false;
        }
        n_jobs = parseJobs(f.next().c_str());
        return true;
    });
    header("Fig. 12: sensitivity studies",
           "8 MACHs, 2K-entry MACH buffer, 4x4 mabs, CRC32(+CRC16) "
           "are the chosen design points");
    Report rep("bench_fig12_sensitivity", "Fig. 12",
               "sensitivity studies and collision analysis");
    machCountSweep(rep);
    machBufferSweep(n_jobs);
    mabSizeSweep();
    hashStudy(rep, n_jobs);
    return 0;
}
