/**
 * @file
 * A decoded video frame: one pixel plane plus decode metadata.
 *
 * The plane holds the frame's macroblocks back to back (mab i is the
 * mab-size bytes at i * mab size).  A frame either owns its plane or
 * views a plane of the content generator: a shared plane it holds a
 * reference to, or a streamed video's ring plane its caller reads
 * before the ring redraws it.  Mab i is a view into whichever plane
 * the frame reads.
 */

#ifndef VSTREAM_VIDEO_FRAME_HH
#define VSTREAM_VIDEO_FRAME_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "video/gop.hh"
#include "video/pixel.hh"

namespace vstream
{

/** A decoded frame. */
class Frame
{
  public:
    /** Empty shell; give it content with reinit() plus assignFlat()
     * or viewShared().  Exists so generators can keep a recycled
     * scratch frame (zero-alloc steady state). */
    Frame() = default;

    /** A frame that owns an all-black plane. */
    Frame(std::uint64_t index, FrameType type, std::uint32_t mabs_x,
          std::uint32_t mabs_y, std::uint32_t mab_dim);

    /**
     * Re-stamp this frame for a new position in the stream: index,
     * type and geometry; complexity and encoded bytes reset.  Drops
     * any shared view; the content must then come from assignFlat()
     * or viewShared().  Allocates nothing: an owned plane keeps its
     * storage for the next assignFlat().
     */
    void reinit(std::uint64_t index, FrameType type, std::uint32_t mabs_x,
                std::uint32_t mabs_y, std::uint32_t mab_dim);

    /**
     * Copy the pixel plane into this frame's own storage (one copy;
     * storage is reused once sized).  @p checksum is the CRC32 of the
     * pixel bytes, kept for contentChecksum().  The geometry must
     * already be set (reinit()).
     */
    void assignFlat(const std::uint8_t *pixels, std::uint32_t checksum);

    /**
     * Read @p pixels in place, without copying; @p owner keeps them
     * alive for as long as this frame (or a copy of it) views them.
     * A null @p owner leaves that to the caller (a streamed video's
     * ring plane, SyntheticVideo::viewNextFrame()).  The geometry must
     * already be set (reinit()).
     */
    void viewShared(std::shared_ptr<const void> owner,
                    const std::uint8_t *pixels, std::uint32_t checksum);

    std::uint64_t index() const { return index_; }
    FrameType type() const { return type_; }
    std::uint32_t mabsX() const { return mabs_x_; }
    std::uint32_t mabsY() const { return mabs_y_; }
    std::uint32_t mabCount() const { return mabs_x_ * mabs_y_; }
    std::uint32_t mabDim() const { return mab_dim_; }
    /** Bytes of one mab. */
    std::uint32_t mabSizeBytes() const
    {
        return mab_dim_ * mab_dim_ * kBytesPerPixel;
    }

    /** Decoded size of the full frame in bytes. */
    std::uint64_t decodedBytes() const;

    /** The whole pixel plane, mab after mab. */
    std::span<const std::uint8_t> plane() const
    {
        return {planeData(), static_cast<std::size_t>(decodedBytes())};
    }

    /** Bytes of mab @p i: a view into the plane. */
    std::span<const std::uint8_t> mabBytes(std::uint32_t i) const;

    /** First (top-left) pixel of mab @p i: its gab base. */
    Pixel mabBase(std::uint32_t i) const;

    /** Overwrite mab @p i with @p bytes (one mab's worth); moves a
     * shared view into owned storage first and drops the checksum
     * kept by assignFlat(). */
    void setMab(std::uint32_t i, std::span<const std::uint8_t> bytes);

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
     * assignFlat() or viewShared() was given, else computed over the
     * plane.
     */
    std::uint32_t contentChecksum() const;

    /** True when the frame reads a shared plane (it owns no pixels). */
    bool viewsShared() const { return view_pixels_ != nullptr; }

  private:
    const std::uint8_t *
    planeData() const
    {
        return view_pixels_ != nullptr ? view_pixels_ : pixels_.data();
    }
    /** Give the frame an owned plane of its geometry, copying a
     * shared view into it (setMab()'s path). */
    void makeOwned();

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
    /** Owned plane (unused while viewing a shared one). */
    std::vector<std::uint8_t> pixels_;
    /** Shared plane viewed in place, and its keep-alive owner. */
    const std::uint8_t *view_pixels_ = nullptr;
    std::shared_ptr<const void> view_owner_;
};

} // namespace vstream

#endif // VSTREAM_VIDEO_FRAME_HH
