/**
 * @file
 * Video trace serialization.
 *
 * The paper drives its simulator from macroblock traces captured
 * with FFmpeg + Pin; this module provides the equivalent workflow
 * for ours: a generated (or externally produced) sequence of decoded
 * frames can be written to a compact binary trace and replayed later,
 * decoupling content production from simulation and allowing traces
 * to be shared between experiments.
 *
 * Format (little-endian):
 *   header:  magic "VSTR", u32 version, u32 frame_count,
 *            u32 mabs_x, u32 mabs_y, u32 mab_dim, u32 fps
 *   frame:   u8 frame_type, f64 complexity, u64 encoded_bytes,
 *            raw pixel bytes (mabs * dim * dim * 3)
 *   trailer: u32 CRC32 over everything after the magic
 */

#ifndef VSTREAM_VIDEO_TRACE_HH
#define VSTREAM_VIDEO_TRACE_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "video/frame.hh"
#include "video/video_profile.hh"

namespace vstream
{

class SyntheticVideo;

/** Why a trace failed to load (kNone = intact). */
enum class TraceError : std::uint8_t
{
    kNone,
    kBadMagic,        // the stream is not a vstream trace
    kBadVersion,      // format version not understood
    kBadGeometry,     // degenerate header geometry
    kTruncatedHeader, // stream ended inside the header
    kTruncatedFrame,  // stream ended inside a frame record
    kCorruptRecord,   // a frame record failed its integrity check
    kBadCrc,          // whole-trace CRC trailer mismatch
};

/** Stable name for logs and error messages. */
const char *traceErrorName(TraceError e);

/**
 * Hard limits on untrusted header/record fields.
 *
 * Traces arrive from outside the process, so the loader treats every
 * field as hostile: a header that announces absurd geometry must be
 * rejected (kBadGeometry) *before* any frame allocation — Frame
 * eagerly allocates mabs_x * mabs_y macroblocks of dim^2 * 3 bytes —
 * and record fields that would poison downstream arithmetic (NaN
 * complexity, astronomical encoded sizes, out-of-range frame types)
 * are rejected as kCorruptRecord.  The caps are far above anything a
 * real capture produces (the paper's largest config is 4K at
 * mab_dim 16) while keeping the worst-case per-frame allocation
 * bounded.
 */
constexpr std::uint32_t kMaxTraceMabsPerAxis = 4096;
constexpr std::uint32_t kMaxTraceMabDim = 128;
constexpr std::uint64_t kMaxTraceMabsPerFrame = 1u << 20;
constexpr double kMaxTraceComplexity = 1e6;
constexpr std::uint64_t kMaxTraceEncodedBytes = 1ull << 40;

/** Outcome of loading a whole trace. */
struct TraceLoadResult
{
    /** Every frame, or none when the trace is damaged. */
    std::vector<Frame> frames;
    TraceError error = TraceError::kNone;
    /** Frames the header announced. */
    std::uint32_t frames_expected = 0;

    bool ok() const { return error == TraceError::kNone; }
};

/** Writes frames to a binary trace stream. */
class TraceWriter
{
  public:
    /**
     * @param os        destination stream (binary)
     * @param profile   geometry/fps metadata recorded in the header
     * @param frame_count number of frames that will be appended
     */
    TraceWriter(std::ostream &os, const VideoProfile &profile,
                std::uint32_t frame_count);

    /** Append one frame (must match the header geometry). */
    void append(const Frame &frame);

    /** Write the integrity trailer; no appends afterwards. */
    void finish();

  private:
    std::ostream &os_;
    std::uint32_t expected_frames_;
    std::uint32_t frames_written_ = 0;
    std::uint32_t mabs_x_;
    std::uint32_t mabs_y_;
    std::uint32_t mab_dim_;
    std::uint32_t running_crc_state_;
    bool finished_ = false;
};

/**
 * Reads frames back from a binary trace stream.
 *
 * Malformed input is recoverable: the constructor and tryNextFrame()
 * record an error() instead of aborting, and done() reports true once
 * the stream is unusable.
 */
class TraceReader
{
  public:
    /** Parses the header; on a malformed stream error() is set and
     * the reader reads as exhausted. */
    explicit TraceReader(std::istream &is);

    std::uint32_t frameCount() const { return frame_count_; }
    std::uint32_t mabsX() const { return mabs_x_; }
    std::uint32_t mabsY() const { return mabs_y_; }
    std::uint32_t mabDim() const { return mab_dim_; }
    std::uint32_t fps() const { return fps_; }

    /** First damage encountered so far (kNone when intact). */
    TraceError error() const { return error_; }

    bool done() const
    {
        return error_ != TraceError::kNone ||
               frames_read_ >= frame_count_;
    }

    /**
     * Read the next frame.
     *
     * @return nullopt on a truncated record (error() is then set).
     */
    std::optional<Frame> tryNextFrame();

    /**
     * After the last frame, validates the CRC trailer.
     *
     * @return true when the trace is intact (else error() is set).
     */
    bool verifyTrailer();

  private:
    std::istream &is_;
    TraceError error_ = TraceError::kNone;
    std::uint32_t frame_count_ = 0;
    std::uint32_t mabs_x_ = 0;
    std::uint32_t mabs_y_ = 0;
    std::uint32_t mab_dim_ = 0;
    std::uint32_t fps_ = 0;
    std::uint32_t frames_read_ = 0;
    std::uint32_t running_crc_state_;
};

/** Convenience: generate @p profile's video and trace it to @p os. */
void writeTrace(std::ostream &os, const VideoProfile &profile);

/**
 * Load a whole trace with recoverable error handling: any damage
 * discards every frame and the result carries only the typed error;
 * the caller decides whether that is fatal.
 */
TraceLoadResult loadTrace(std::istream &is);

} // namespace vstream

#endif // VSTREAM_VIDEO_TRACE_HH
