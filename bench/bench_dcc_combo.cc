/**
 * @file
 * Sec. 6.2 DCC study: Delta Color Compression alone vs GAB+DCC.
 *
 * Paper reference point: DCC (intra-block delta packing) and MACH
 * (inter-block reuse) are orthogonal; combining them saves ~18% more
 * memory bandwidth than plain DCC.
 */

#include "bench_util.hh"

#include "core/dcc.hh"
#include "video/synthetic_video.hh"

namespace
{

using namespace vstream;
using namespace vstream::bench;

/** Bytes written per frame under plain DCC: every mab individually
 * compressed, no reuse. */
std::uint64_t
plainDccBytes(const VideoProfile &p)
{
    SyntheticVideo video(p);
    std::uint64_t bytes = 0;
    while (!video.done()) {
        const Frame f = video.nextFrame();
        for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
            bytes += dccCompress(f.mabBytes(i)).compressed_bytes;
        }
    }
    return bytes;
}

} // namespace

int
main()
{
    header("Sec. 6.2: GAB + DCC vs plain DCC",
           "the combined scheme saves ~18% more bandwidth than DCC "
           "alone (intra-block and inter-block reuse compose)");

    std::cout << std::left << std::setw(5) << "key" << std::right
              << std::setw(12) << "raw(KB/f)" << std::setw(12)
              << "DCC(KB/f)" << std::setw(14) << "GAB+DCC(KB/f)"
              << std::setw(12) << "extraSave%" << "\n";

    Report rep("bench_dcc_combo", "Sec. 6.2",
               "GAB + DCC vs plain DCC");

    double sum_extra = 0.0;
    int n = 0;
    for (const auto &key : videoMix()) {
        const VideoProfile p = benchWorkload(key, 48);

        const std::uint64_t raw =
            static_cast<std::uint64_t>(p.mabsPerFrame()) * 48ULL *
            p.frame_count;
        const std::uint64_t dcc = plainDccBytes(p);

        SchemeConfig combo = SchemeConfig::make(Scheme::kGab);
        combo.dcc = true;
        const auto r = simulateScheme(p, combo);
        const std::uint64_t gab_dcc = r.writeback.totalBytes();

        const double extra =
            1.0 - static_cast<double>(gab_dcc) /
                      static_cast<double>(dcc);
        rep.video(key, "extraSaving", extra);
        sum_extra += extra;
        ++n;

        const double per_frame = 1.0 / (1024.0 * p.frame_count);
        std::cout << std::left << std::setw(5) << key << std::right
                  << std::fixed << std::setprecision(1) << std::setw(12)
                  << raw * per_frame << std::setw(12)
                  << dcc * per_frame << std::setw(14)
                  << gab_dcc * per_frame << std::setw(12)
                  << 100.0 * extra << "\n";
    }

    std::cout << "\naverage extra saving of GAB+DCC over plain DCC: "
              << pct(sum_extra / n) << " (paper ~18%)\n";
    rep.metric("extraSavingAvg", 0.18, sum_extra / n);
    return 0;
}
