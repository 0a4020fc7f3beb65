/**
 * @file
 * A decoded video frame: a grid of macroblocks plus decode metadata.
 */

#ifndef VSTREAM_VIDEO_FRAME_HH
#define VSTREAM_VIDEO_FRAME_HH

#include <cstdint>
#include <vector>

#include "video/gop.hh"
#include "video/macroblock.hh"

namespace vstream
{

/** How the synthetic generator produced a macroblock (ground truth
 * for tests; the simulated hardware never sees this). */
enum class MabOrigin : std::uint8_t
{
    kUnique,
    kPureColor,
    kIntraCopy,
    kInterCopy,
    kGradientShift,
};

/** A decoded frame. */
class Frame
{
  public:
    /** Empty shell; call reinit() before use.  Exists so generators
     * can keep a recycled scratch frame (zero-alloc steady state). */
    Frame() = default;

    Frame(std::uint64_t index, FrameType type, std::uint32_t mabs_x,
          std::uint32_t mabs_y, std::uint32_t mab_dim);

    /**
     * Re-stamp this frame for a new position in the stream, reusing
     * the macroblock storage when the geometry is unchanged.  Resets
     * complexity, encoded bytes, and all origins.
     */
    void reinit(std::uint64_t index, FrameType type, std::uint32_t mabs_x,
                std::uint32_t mabs_y, std::uint32_t mab_dim);

    /**
     * Overwrite every mab's bytes and origin from flat planes: mab i
     * is the mab-size bytes at @p pixels + i * mab size, its origin
     * @p origins[i].  @p checksum is the CRC32 of those pixel bytes,
     * kept for contentChecksum().  The geometry must already be set
     * (reinit()).
     */
    void assignFlat(const std::uint8_t *pixels, const MabOrigin *origins,
                    std::uint32_t checksum);

    std::uint64_t index() const { return index_; }
    FrameType type() const { return type_; }
    std::uint32_t mabsX() const { return mabs_x_; }
    std::uint32_t mabsY() const { return mabs_y_; }
    std::uint32_t mabCount() const { return mabs_x_ * mabs_y_; }
    std::uint32_t mabDim() const { return mab_dim_; }

    /** Decoded size of the full frame in bytes. */
    std::uint64_t decodedBytes() const;

    const Macroblock &mab(std::uint32_t i) const;
    /** Mutable mab; drops the checksum kept by assignFlat(). */
    Macroblock &mab(std::uint32_t i);
    const Macroblock &mabAt(std::uint32_t x, std::uint32_t y) const;

    MabOrigin origin(std::uint32_t i) const { return origins_.at(i); }

    /**
     * Per-frame decode complexity multiplier (lognormal across
     * frames); scales the compute cycles of every mab in the frame.
     */
    double complexity() const { return complexity_; }
    void setComplexity(double c) { complexity_ = c; }

    /** Size of this frame in its encoded (compressed) form. */
    std::uint64_t encodedBytes() const { return encoded_bytes_; }
    void setEncodedBytes(std::uint64_t b) { encoded_bytes_ = b; }

    /**
     * CRC32 over all pixel data (round-trip verification): the value
     * assignFlat() was given, else computed over the mabs.
     */
    std::uint32_t contentChecksum() const;

  private:
    std::uint64_t index_ = 0;
    FrameType type_ = FrameType::kI;
    std::uint32_t mabs_x_ = 0;
    std::uint32_t mabs_y_ = 0;
    std::uint32_t mab_dim_ = 0;
    double complexity_ = 1.0;
    std::uint64_t encoded_bytes_ = 0;
    /** contentChecksum() as assignFlat() set it, when has_checksum_. */
    std::uint32_t checksum_ = 0;
    bool has_checksum_ = false;
    std::vector<Macroblock> mabs_;
    std::vector<MabOrigin> origins_;
};

} // namespace vstream

#endif // VSTREAM_VIDEO_FRAME_HH
