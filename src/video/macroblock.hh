/**
 * @file
 * Decoded macroblock (mab) and its gradient representation (gab).
 *
 * A mab is a square block of decoded pixels (default 4x4 = 48 bytes,
 * the size the paper's Fig. 12c sensitivity study selects).  Its
 * gradient block subtracts the first (top-left) pixel from every
 * pixel channel-wise with wrap-around arithmetic, so that
 * mab == gab + base exactly; two mabs that differ only by a constant
 * colour offset share one gab.
 */

#ifndef VSTREAM_VIDEO_MACROBLOCK_HH
#define VSTREAM_VIDEO_MACROBLOCK_HH

#include <cstdint>
#include <vector>

#include "hash/hasher.hh"
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
    std::uint32_t pixelCount() const { return dim_ * dim_; }
    std::uint32_t sizeBytes() const
    {
        return pixelCount() * kBytesPerPixel;
    }

    /** Pixel at linear index @p i (row-major). */
    Pixel pixel(std::uint32_t i) const;
    void setPixel(std::uint32_t i, const Pixel &p);

    /** First (top-left) pixel; the gab base. */
    Pixel base() const { return Pixel{bytes_[0], bytes_[1], bytes_[2]}; }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> &bytes() { return bytes_; }

    /** Fill every pixel with @p p (a "pure colour" block). */
    void fill(const Pixel &p);

    /** Replace the content with @p len raw bytes of a @p dim block,
     * reusing this block's storage. */
    void assignBytes(std::uint32_t dim, const std::uint8_t *data,
                     std::size_t len);

    /** Add @p p to every pixel in place (wrap-around) — the DC's gab
     * base re-add at scan-out. */
    void addBase(const Pixel &p);

    /** 32-bit content digest under @p kind. */
    std::uint32_t digest(HashKind kind) const;

    /**
     * Gradient block: each byte minus the corresponding base channel,
     * wrap-around.  The first pixel of the result is always 0.
     */
    Macroblock gradient() const;

    /**
     * In-place variant: write the gradient block into @p out, reusing
     * its storage.  The per-mab workhorse of MachWriteback in GAB
     * mode — no allocation once @p out has been sized.
     */
    void gradientInto(Macroblock &out) const;

    /** Digest of the gradient block. */
    std::uint32_t gradientDigest(HashKind kind) const;

    /** Reconstruct a mab from its gradient block and base pixel. */
    static Macroblock fromGradient(const Macroblock &gab, const Pixel &p);

    /** Add a constant offset to every pixel (wrap-around); the result
     * has the same gradient block but a different base. */
    Macroblock shifted(std::uint8_t dr, std::uint8_t dg,
                       std::uint8_t db) const;

    bool operator==(const Macroblock &o) const;
    bool operator!=(const Macroblock &o) const { return !(*this == o); }

  private:
    std::uint32_t dim_;
    std::vector<std::uint8_t> bytes_;
};

} // namespace vstream

#endif // VSTREAM_VIDEO_MACROBLOCK_HH
