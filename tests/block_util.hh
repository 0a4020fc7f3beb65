/**
 * @file
 * Block builders shared by the tests.
 *
 * A Macroblock only carries one block's bytes; the helpers here make,
 * shift and transform blocks with the flat kernels production runs
 * (video/pixel_kernels.hh), and hand a frame's mabs to a writeback
 * stage through one scratch block, as the decoder does.
 */

#ifndef VSTREAM_TESTS_BLOCK_UTIL_HH
#define VSTREAM_TESTS_BLOCK_UTIL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/writeback_stage.hh"
#include "sim/random.hh"
#include "video/frame.hh"
#include "video/macroblock.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

/** A @p dim block of random bytes. */
inline Macroblock
randomMab(Random &rng, std::uint32_t dim = 4)
{
    Macroblock m(dim);
    for (auto &b : m.bytes()) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    return m;
}

/** A @p dim block whose every pixel is @p p. */
inline Macroblock
pureMab(const Pixel &p, std::uint32_t dim = 4)
{
    Macroblock m(dim);
    gradientAdd(m.bytes().data(), m.bytes().data(), m.sizeBytes(), p);
    return m;
}

/** @p m with @p offset added to every pixel (wrap-around): the same
 * gab under a different base. */
inline Macroblock
shiftedMab(const Macroblock &m, const Pixel &offset)
{
    Macroblock out(m.dim());
    gradientAdd(out.bytes().data(), m.bytes().data(), m.sizeBytes(),
                offset);
    return out;
}

/** The gab of the block @p mab: every pixel minus the first. */
inline std::vector<std::uint8_t>
gabOf(std::span<const std::uint8_t> mab)
{
    std::vector<std::uint8_t> gab(mab.size());
    gradientSub(gab.data(), mab.data(), mab.size(),
                Pixel{mab[0], mab[1], mab[2]});
    return gab;
}

/** A copy of the bytes @p stored views. */
inline std::vector<std::uint8_t>
bytesOf(const StoredBlock &stored)
{
    return std::vector<std::uint8_t>(stored.data,
                                     stored.data + stored.size);
}

/** Write every mab of @p frame through @p wb at @p now, between the
 * caller's beginFrame() and finishFrame(). */
inline void
writeMabs(WritebackStage &wb, const Frame &frame, Tick now)
{
    Macroblock block(frame.mabDim());
    for (std::uint32_t i = 0; i < frame.mabCount(); ++i) {
        const std::span<const std::uint8_t> bytes = frame.mabBytes(i);
        block.assignBytes(frame.mabDim(), bytes.data(), bytes.size());
        wb.writeMab(block, i, now);
    }
}

} // namespace vstream

#endif // VSTREAM_TESTS_BLOCK_UTIL_HH
