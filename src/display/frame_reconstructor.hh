/**
 * @file
 * Pixel-level frame reconstruction at the display side.
 *
 * Turns the stored representation of a mab (raw block, or gradient
 * block plus base) back into display pixels, and verifies whole
 * frames against the checksum taken at decode time - the simulator's
 * proof that the MACH path is lossless (absent undetected hash
 * collisions, which this check is designed to expose).
 */

#ifndef VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH
#define VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/frame_buffer_manager.hh"
#include "core/framebuffer_layout.hh"
#include "hash/crc.hh"
#include "video/macroblock.hh"

namespace vstream
{

/** Stateless reconstruction helpers. */
class FrameReconstructor
{
  public:
    /**
     * Rebuild the displayed mab from its stored block bytes.
     *
     * In gradient mode the stored bytes are the gab and the record's
     * base is added back per pixel (the vector-add the DC performs).
     */
    static Macroblock rebuildMab(const std::vector<std::uint8_t> &stored,
                                 const MabRecord &rec,
                                 bool gradient_mode);

    /** Same, from an arena byte view. */
    static Macroblock rebuildMab(const StoredBlock &stored,
                                 const MabRecord &rec,
                                 bool gradient_mode);
};

/**
 * CRC32 of a shown frame, folded straight from the stored blocks in
 * display order - the same CRC the decoder took over the source
 * plane, without rebuilding the frame.
 *
 * A raw block is folded in place, and a run of blocks that sit back
 * to back in storage (the linear layout's whole frame, a pointer
 * layout's consecutive unique blocks) goes into one update.  A gab
 * has its base re-added into a stack block first.
 */
class ShownFrameCrc
{
  public:
    /** Fold the next mab of the frame from frame-buffer storage; its
     * bytes must stay unchanged until digest() (a scan-out stores
     * nothing, so they do). */
    void add(const StoredBlock &stored, const MabRecord &rec,
             bool gradient_mode);

    /** Fold the next mab from storage that may change before
     * digest() (a MACH-buffer entry): folded at once. */
    void
    addNow(const StoredBlock &stored, const MabRecord &rec,
           bool gradient_mode)
    {
        add(stored, rec, gradient_mode);
        flushRun();
    }

    /** CRC32 of every mab added so far. */
    std::uint32_t digest();

  private:
    /** Fold the pending run of contiguous raw blocks. */
    void flushRun();

    Crc32 crc_;
    const std::uint8_t *run_ = nullptr;
    std::size_t run_len_ = 0;
};

} // namespace vstream

#endif // VSTREAM_DISPLAY_FRAME_RECONSTRUCTOR_HH
