/**
 * @file
 * Pixel-level frame reconstruction at the display side.
 *
 * Folds the stored representation of each mab (raw block, or gradient
 * block with its base re-added) into the CRC32 of the shown frame, to
 * verify whole frames against the checksum taken at decode time - the
 * simulator's proof that the MACH path is lossless (absent undetected
 * hash collisions, which this check is designed to expose).
 */

#ifndef VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH
#define VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/framebuffer_layout.hh"
#include "hash/crc.hh"

namespace vstream
{

/**
 * CRC32 of a shown frame, folded straight from the stored blocks in
 * display order - the same CRC the decoder took over the source
 * plane, without rebuilding the frame.  Each block arrives as a view
 * of where it is stored (the frame-buffer arena or a MACH-buffer
 * entry); none is copied whole.
 *
 * A run of raw blocks that sit back to back in storage (the linear
 * layout's whole frame, a pointer layout's consecutive unique blocks)
 * is folded in place in one update once it outgrows the staging
 * chunk.  Shorter runs, and every gab with its base re-added, are
 * staged in a 768 B chunk that is folded once it fills, so a scan
 * costs about one CRC call per chunk rather than one per block.
 * CRC32 streams across block boundaries, so the digest is the same
 * however the bytes are split.
 */
class ShownFrameCrc
{
  public:
    /** Fold the next mab of the frame from frame-buffer storage; its
     * bytes must stay unchanged until digest() (a scan-out stores
     * nothing, so they do). */
    void add(std::span<const std::uint8_t> stored, const MabRecord &rec,
             bool gradient_mode);

    /** Fold the next mab from storage that may change before
     * digest() (a MACH-buffer entry): its bytes are taken now. */
    void
    addNow(std::span<const std::uint8_t> stored, const MabRecord &rec,
           bool gradient_mode)
    {
        add(stored, rec, gradient_mode);
        flushRun();
    }

    /** CRC32 of every mab added so far. */
    std::uint32_t digest();

  private:
    /** Whole pixels (256 * 3 B), so a gab's base phase restarts with
     * each chunk of a block exactly as it runs on. */
    static constexpr std::size_t kChunk = 768;

    /** Take the pending run of contiguous raw blocks: copied into the
     * chunk when it fits, folded in place otherwise. */
    void flushRun();

    /** Fold the staged chunk. */
    void flushChunk();

    Crc32 crc_;
    const std::uint8_t *run_ = nullptr;
    std::size_t run_len_ = 0;
    std::size_t fill_ = 0;
    std::uint8_t chunk_[kChunk];
};

} // namespace vstream

#endif // VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH
