/**
 * @file
 * Delta Color Compression (DCC) model.
 *
 * DCC is the commercial intra-block compressor the paper compares
 * against (Sec. 6.2): within one block, pixels are stored as a base
 * colour plus per-channel deltas packed at the minimum bit width.
 * DCC is orthogonal to MACH (intra-block vs inter-block reuse), so
 * the combined GAB+DCC scheme compresses only the unique blocks MACH
 * actually writes.
 */

#ifndef VSTREAM_CORE_DCC_HH
#define VSTREAM_CORE_DCC_HH

#include <cstdint>
#include <span>

#include "video/pixel.hh"

namespace vstream
{

/** Result of compressing one block. */
struct DccResult
{
    /** Bytes after compression (<= uncompressed + 1 B header). */
    std::uint32_t compressed_bytes = 0;
    /** False when the block had to be stored raw. */
    bool compressed = false;

    double
    ratio(std::uint32_t raw_bytes) const
    {
        return raw_bytes ? static_cast<double>(compressed_bytes) /
                               static_cast<double>(raw_bytes)
                         : 1.0;
    }
};

/**
 * Compress the RGB block @p block with base+delta packing.
 *
 * Uses the block's first pixel as the base; each remaining pixel
 * stores three signed deltas packed at the per-channel maximum bit
 * width.  A 1-byte header records the widths.  Falls back to raw
 * storage when packing would not shrink the block.
 */
DccResult dccCompress(std::span<const std::uint8_t> block);

} // namespace vstream

#endif // VSTREAM_CORE_DCC_HH
