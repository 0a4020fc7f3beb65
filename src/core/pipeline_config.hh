/**
 * @file
 * Scheme and pipeline configuration.
 *
 * A SchemeConfig captures one of the paper's six evaluated schemes
 * (Fig. 11): L (baseline), B (batching), R (racing), S (race-to-
 * sleep), M (S + MACH/mab), G (S + MACH/gab); PipelineConfig bundles
 * it with the video profile and all substrate parameters.
 */

#ifndef VSTREAM_CORE_PIPELINE_CONFIG_HH
#define VSTREAM_CORE_PIPELINE_CONFIG_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/framebuffer_layout.hh"
#include "core/mach_config.hh"
#include "decoder/decoder_config.hh"
#include "display/display_config.hh"
#include "mem/dram_config.hh"
#include "power/power_state.hh"
#include "sim/fault_injector.hh"
#include "video/arrival_model.hh"
#include "video/video_profile.hh"

namespace vstream
{

class TraceEventSink;

/** The six evaluated schemes. */
enum class Scheme : std::uint8_t
{
    kBaseline,    // L: frame-by-frame, low frequency
    kBatching,    // B: batch decoding, low frequency
    kRacing,      // R: frame-by-frame, high frequency
    kRaceToSleep, // S: batching + high frequency
    kMab,         // M: S + MACH with raw macroblocks
    kGab,         // G: S + MACH with gradient blocks
};

/** Short key ("L".."G"). */
std::string schemeKey(Scheme s);
/** Long name ("Race-to-Sleep", ...). */
std::string schemeName(Scheme s);
/** The scheme whose schemeKey() is @p key; false when none is. */
bool tryParseScheme(const std::string &key, Scheme &out);

/** Knob settings for one scheme. */
struct SchemeConfig
{
    Scheme scheme = Scheme::kBaseline;
    /** Frames decoded back-to-back per decoder wake-up. */
    std::uint32_t batch = 1;
    VdFrequency freq = VdFrequency::kLow;
    /** Content caching at the VD. */
    bool mach = false;
    /** gab (gradient) vs mab representation. */
    bool gradient = false;
    /** Frame-buffer layout written by the decoder. */
    LayoutKind layout = LayoutKind::kLinear;
    bool display_cache = false;
    bool mach_buffer = false;
    bool co_mach = false;
    bool dcc = false;
    /** Whole-frame checksum transaction elimination at the DC (the
     * industrial scheme of [9]/[35]); complementary to MACH. */
    bool transaction_elimination = false;

    /**
     * History-based per-frame DVFS (the related-work scale-down
     * scheme of [57]/[66] the paper argues against): an EWMA of
     * recent decode times predicts the next frame's slack and the
     * decoder drops to the low P-state whenever the prediction says
     * it is safe.  Saves power on predictable content but drops
     * frames on mispredictions - the contrast `bench_ablation_dvfs`
     * quantifies.  Overrides `freq` per frame.
     */
    bool dvfs_slack = false;
    /** Fraction of the frame period the predicted decode time must
     * stay under for the low P-state to be chosen. */
    double dvfs_margin = 0.92;

    /** Canonical settings for @p s (paper defaults; batch = 16). */
    static SchemeConfig make(Scheme s, std::uint32_t batch_frames = 16);
};

/** Everything needed to simulate one video under one scheme. */
struct PipelineConfig
{
    VideoProfile profile;
    SchemeConfig scheme;
    DramConfig dram;
    DecoderConfig decoder;
    DisplayConfig display;
    MachConfig mach;

    // --- streaming/buffering model --------------------------------------
    /** Interval between network chunk deliveries (paper: 400-500 ms). */
    static constexpr Tick kBufferInterval =
        static_cast<Tick>(450) * sim_clock::ms;
    /** Frames available at t = 0 (pre-roll). */
    std::uint32_t preroll_frames = 32;
    /** Vsyncs between t = 0 and the first frame's deadline. */
    std::uint32_t startup_vsyncs = 4;

    // --- robustness -----------------------------------------------------
    /** Fault-injection schedule (empty = pristine world, zero cost). */
    FaultConfig faults;
    /** Explicit network arrival model (disabled = seed chunk model,
     * bit-identical results). */
    ArrivalConfig arrival;

    /** When non-null, the pipeline dumps every component's detailed
     * statistics (gem5-style "name value" lines) here after the run. */
    std::ostream *stats_out = nullptr;

    /** When non-null, the same registry is exported as JSON here
     * (schema "vstream-stats-1", see docs/STATS.md). */
    std::ostream *stats_json = nullptr;

    /** When non-null, the same registry is exported as CSV here
     * (one "name,kind,field,value" row per field). */
    std::ostream *stats_csv = nullptr;

    /** When non-null, the run's timeline (decode bursts, power-state
     * dwells, scan-outs, DRAM counters) is recorded here in Chrome
     * trace-event form (see docs/TRACING.md). */
    TraceEventSink *trace = nullptr;

    /** When non-null, per-frame records are written here as CSV
     * (one row per frame: timings, state shares, energies, drops) -
     * the raw data behind the Fig. 2/4 CDF plots. */
    std::ostream *frame_csv = nullptr;

    /**
     * Ratio of a native 4K frame to the simulated frame, applied to
     * per-burst and per-activation DRAM energies so that memory
     * energy keeps its full-resolution share of the budget (see
     * DESIGN.md, substitutions).
     */
    double trafficEnergyScale() const;

    /**
     * Frame-buffer slots a playback holds at most: triple buffering,
     * or batch+2 slots when batching, plus the MACH retention window
     * (frames that must stay resident for inter-frame pointers).
     */
    std::uint32_t framebufferSlots() const;

    /**
     * Derive dependent parameters:
     *  - display/MACH flags from the scheme,
     *  - the DRAM row-open timeout from the decoder's mab rate at the
     *    low frequency (the Fig. 5 race-vs-Act/Pre mechanism).
     * Must be called before constructing a VideoPipeline.
     */
    void finalize();

    void validate() const;
};

} // namespace vstream

#endif // VSTREAM_CORE_PIPELINE_CONFIG_HH
