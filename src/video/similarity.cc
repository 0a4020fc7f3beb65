#include "video/similarity.hh"

#include <algorithm>
#include <deque>
#include <span>
#include <vector>

#include "core/flat_table.hh"
#include "sim/logging.hh"
#include "video/pixel_kernels.hh"
#include "video/synthetic_video.hh"

namespace vstream
{

double
SimilarityReport::intraFraction() const
{
    return mabs ? static_cast<double>(intra_exact) /
                      static_cast<double>(mabs)
                : 0.0;
}

double
SimilarityReport::interFraction() const
{
    return mabs ? static_cast<double>(inter_exact) /
                      static_cast<double>(mabs)
                : 0.0;
}

double
SimilarityReport::noneFraction() const
{
    return mabs ? static_cast<double>(none_exact) /
                      static_cast<double>(mabs)
                : 0.0;
}

double
SimilarityReport::gabMatchFraction() const
{
    return mabs ? static_cast<double>(intra_gab + inter_gab) /
                      static_cast<double>(mabs)
                : 0.0;
}

namespace
{

/**
 * 64-bit FNV-1a content key.  Replaces the old std::string key (one
 * heap allocation + full-content compares per probe) with an integer
 * the flat tables hash directly.
 */
// vstream:hot
std::uint64_t
keyOf(std::span<const std::uint8_t> bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h = (h ^ b) * 0x100000001b3ull;
    }
    return h;
}

std::vector<double>
shares(const FlatMap<std::uint64_t, std::uint64_t> &counts,
       std::size_t k)
{
    std::vector<std::uint64_t> sorted;
    sorted.reserve(counts.size());
    std::uint64_t total = 0;
    counts.forEach([&](std::uint64_t, std::uint64_t n) {
        sorted.push_back(n);
        total += n;
    });
    std::sort(sorted.begin(), sorted.end(),
              std::greater<std::uint64_t>());
    std::vector<double> out;
    out.reserve(std::min(k, sorted.size()));
    for (std::size_t i = 0; i < k && i < sorted.size(); ++i) {
        out.push_back(total ? static_cast<double>(sorted[i]) /
                                  static_cast<double>(total)
                            : 0.0);
    }
    return out;
}

} // namespace

SimilarityReport
analyzeSimilarity(const VideoProfile &profile, std::uint32_t max_frames,
                  std::uint32_t window, std::size_t top_k)
{
    VideoProfile p = profile;
    if (max_frames > 0 && p.frame_count > max_frames) {
        p.frame_count = max_frames;
    }
    vs_assert(p.frame_count > 0,
              "similarity analysis of an empty video");

    SyntheticVideo video(p);
    SimilarityReport report;
    report.inter_age_hist.assign(window, 0);

    // Per-frame content sets for the window, newest at the front.
    std::deque<FlatSet<std::uint64_t>> exact_window;
    std::deque<FlatSet<std::uint64_t>> gab_window;

    FlatMap<std::uint64_t, std::uint64_t> mab_match_counts;
    FlatMap<std::uint64_t, std::uint64_t> gab_match_counts;

    // Optimal (unbounded) dedup byte counters.
    std::uint64_t opt_mab_bytes = 0;
    std::uint64_t opt_gab_bytes = 0;
    const std::uint64_t mab_bytes =
        static_cast<std::uint64_t>(p.mab_dim) * p.mab_dim *
        kBytesPerPixel;

    std::vector<std::uint8_t> gab_scratch(mab_bytes);

    while (!video.done()) {
        const Frame frame = video.nextFrame();
        if (frame.mabCount() == 0) {
            vs_panic("similarity analysis hit an empty frame");
        }
        FlatSet<std::uint64_t> cur_exact;
        FlatSet<std::uint64_t> cur_gab;
        cur_exact.reserve(frame.mabCount());
        cur_gab.reserve(frame.mabCount());

        for (std::uint32_t i = 0; i < frame.mabCount(); ++i) {
            ++report.mabs;
            const std::span<const std::uint8_t> mab = frame.mabBytes(i);
            gradientSub(gab_scratch.data(), mab.data(), mab.size(),
                        frame.mabBase(i));
            const std::uint64_t mk = keyOf(mab);
            const std::uint64_t gk = keyOf(gab_scratch);

            // --- exact (mab) matching ------------------------------
            // Single pass: insert() reports whether the key was
            // already in the current frame (the old code paid a
            // count() probe and then a second insert() probe).
            bool matched = !cur_exact.insert(mk);
            if (matched) {
                ++report.intra_exact;
            } else {
                std::uint32_t age = 0;
                for (const auto &s : exact_window) {
                    if (s.contains(mk)) {
                        ++report.inter_exact;
                        ++report.inter_age_hist[age];
                        matched = true;
                        break;
                    }
                    ++age;
                }
            }
            if (matched) {
                ++mab_match_counts[mk];
                opt_mab_bytes += 4; // pointer
            } else {
                ++report.none_exact;
                opt_mab_bytes += mab_bytes + 4;
            }

            // --- gradient (gab) matching ---------------------------
            bool gab_matched = !cur_gab.insert(gk);
            if (gab_matched) {
                ++report.intra_gab;
            } else {
                for (const auto &s : gab_window) {
                    if (s.contains(gk)) {
                        ++report.inter_gab;
                        gab_matched = true;
                        break;
                    }
                }
            }
            if (gab_matched) {
                ++gab_match_counts[gk];
                opt_gab_bytes += 4 + 3; // pointer + base
            } else {
                ++report.none_gab;
                opt_gab_bytes += mab_bytes + 4 + 3;
            }
        }

        exact_window.push_front(std::move(cur_exact));
        gab_window.push_front(std::move(cur_gab));
        while (exact_window.size() > window) {
            exact_window.pop_back();
            gab_window.pop_back();
        }
    }

    const double baseline =
        static_cast<double>(report.mabs) *
        static_cast<double>(mab_bytes);
    if (baseline > 0.0) {
        report.optimal_mab_savings =
            1.0 - static_cast<double>(opt_mab_bytes) / baseline;
        report.optimal_gab_savings =
            1.0 - static_cast<double>(opt_gab_bytes) / baseline;
    }
    report.top_mab_shares = shares(mab_match_counts, top_k);
    report.top_gab_shares = shares(gab_match_counts, top_k);
    return report;
}

} // namespace vstream
