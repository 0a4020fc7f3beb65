/**
 * @file
 * Decoded macroblock (mab): the scratch block a decoder hands to a
 * writeback stage.
 *
 * A mab is a square block of decoded pixels (default 4x4 = 48 bytes,
 * the size the paper's Fig. 12c sensitivity study selects).  Its
 * gradient block (gab) subtracts the first (top-left) pixel from
 * every pixel channel-wise with wrap-around arithmetic, so that
 * mab == gab + base exactly; two mabs that differ only by a constant
 * colour offset share one gab.  The transform itself runs on flat
 * planes (video/pixel_kernels.hh); this type only carries one block's
 * bytes and its base.
 */

#ifndef VSTREAM_VIDEO_MACROBLOCK_HH
#define VSTREAM_VIDEO_MACROBLOCK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "video/pixel.hh"

namespace vstream
{

/** A decoded block of pixels stored as contiguous RGB bytes. */
class Macroblock
{
  public:
    /** An all-black block of dimension @p dim. */
    explicit Macroblock(std::uint32_t dim = 4);

    /** Wrap existing raw bytes (must be dim*dim*3 long). */
    Macroblock(std::uint32_t dim, std::vector<std::uint8_t> bytes);

    std::uint32_t dim() const { return dim_; }
    std::uint32_t sizeBytes() const
    {
        return dim_ * dim_ * kBytesPerPixel;
    }

    /** First (top-left) pixel; the gab base. */
    Pixel base() const { return Pixel{bytes_[0], bytes_[1], bytes_[2]}; }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> &bytes() { return bytes_; }

    /** Replace the content with @p len raw bytes of a @p dim block,
     * reusing this block's storage. */
    void assignBytes(std::uint32_t dim, const std::uint8_t *data,
                     std::size_t len);

  private:
    std::uint32_t dim_;
    std::vector<std::uint8_t> bytes_;
};

} // namespace vstream

#endif // VSTREAM_VIDEO_MACROBLOCK_HH
