/**
 * @file
 * Parameterization of a synthetic video workload.
 *
 * The paper traces 16 real 4K videos (Table 1) through FFmpeg; we
 * replace the traces with a generative model whose knobs map directly
 * onto the statistics the paper measures: macroblock content
 * similarity (Fig. 7b), per-frame decode-time distribution (Fig. 2b),
 * and encoded-stream size.
 */

#ifndef VSTREAM_VIDEO_VIDEO_PROFILE_HH
#define VSTREAM_VIDEO_VIDEO_PROFILE_HH

#include <cstdint>
#include <string>

namespace vstream
{

/** All generator knobs for one video. */
struct VideoProfile
{
    /** Short key, e.g. "V8". */
    std::string key = "V0";
    /** Human-readable title. */
    std::string name = "synthetic";
    /** One-line description (mirrors Table 1). */
    std::string description;

    // --- geometry -------------------------------------------------------
    /** Simulated frame width/height in pixels. */
    std::uint32_t width = 256;
    std::uint32_t height = 144;
    /** Macroblock dimension (4 => 4x4 pixels = 48 B). */
    std::uint32_t mab_dim = 4;
    std::uint32_t fps = 60;
    /** Frames in the full video (benches may cap this). */
    std::uint32_t frame_count = 600;

    /** RNG seed; same seed => byte-identical video. */
    std::uint64_t seed = 1;

    /** Title index when this profile was bound to a shared content
     * library (ZipfLibrary::applyTo); 0xffffffff (kNoLibraryTitle)
     * for standalone content. */
    std::uint32_t library_title = 0xffffffffu;

    // --- content similarity (drives MACH, Figs. 7b/9) -------------------
    /** P(mab exactly copies an earlier mab of the same frame). */
    double intra_match_rate = 0.42;
    /** P(mab exactly copies a mab from one of the previous
     * inter_window frames). */
    double inter_match_rate = 0.15;
    /** P(mab is a constant-offset shift of an earlier mab: same
     * gradient block, different base; only gab catches it). */
    double gradient_shift_rate = 0.12;
    /** Among newly minted blocks, fraction that are pure colour. */
    double pure_color_rate = 0.30;
    /** How many previous frames content may be copied from. */
    std::uint32_t inter_window = 16;
    /** P(scene cut at a frame: the copy window is cleared). */
    double scene_change_rate = 0.004;
    /** P(a frame is a verbatim repeat of its predecessor) - static
     * content such as paused webcams or test cards; what checksum
     * schemes like ARM Transaction Elimination exploit. */
    double static_frame_rate = 0.0;
    /** Palette size for pure colours (smaller => more exact repeats
     * of the same colour across the video). */
    std::uint32_t color_palette = 192;
    /** Among newly minted non-pure blocks, fraction that are smooth
     * ramps (same gradient pattern, varying base: gab-only reuse). */
    double smooth_rate = 0.16;
    /** Number of distinct ramp patterns smooth blocks draw from. */
    std::uint32_t ramp_palette = 48;
    /** P(an intra/gradient copy source is spatially near rather than
     * uniform over the frame).  Real content repeats locally (sky,
     * letterbox bars), which is what makes the 16 KB display cache
     * sufficient (paper Fig. 10c). */
    double intra_locality = 0.40;
    /** Reach of "near" copies, in mabs. */
    std::uint32_t locality_reach = 256;

    // --- decode complexity (drives Fig. 2b regions) ----------------------
    /**
     * Mean frame decode time at the low VD frequency, as a fraction
     * of the 16.6 ms frame period.  0.72 reproduces the paper's
     * region structure.
     */
    double mean_decode_frac = 0.72;
    /** Sigma of the lognormal per-frame complexity multiplier. */
    double complexity_sigma = 0.19;
    /** Hard cap on the multiplier (keeps tails sane). */
    double complexity_cap = 3.0;

    // --- encoded stream ---------------------------------------------------
    /** Average encoded bytes per mab (H.264-like ~50:1 compression
     * against the 48 B decoded block for P/B content). */
    double encoded_bytes_per_mab = 6.0;

    /** GOP pattern, e.g. "IPPPPPPP" or "IBBPBBPBB". */
    std::string gop_pattern = "IBBPBBPBB";

    // --- derived ---------------------------------------------------------
    std::uint32_t mabsX() const { return width / (mab_dim); }
    std::uint32_t mabsY() const { return height / (mab_dim); }
    std::uint32_t mabsPerFrame() const { return mabsX() * mabsY(); }
    std::uint64_t decodedFrameBytes() const;
    /** Frame period in ticks (1/fps). */
    std::uint64_t framePeriodTicks() const;

    /** Abort on inconsistent parameters. */
    void validate() const;

    /** Every knob equal: same profile, same video. */
    bool operator==(const VideoProfile &) const = default;
};

} // namespace vstream

#endif // VSTREAM_VIDEO_VIDEO_PROFILE_HH
