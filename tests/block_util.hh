/**
 * @file
 * Block builders shared by the tests.
 *
 * A block is its bytes: the builders here make, shift and transform
 * byte vectors with the flat kernels production runs
 * (video/pixel_kernels.hh), and writeMabs() hands a frame's mabs to a
 * writeback stage as views into the frame, as the decoder does.
 */

#ifndef VSTREAM_TESTS_BLOCK_UTIL_HH
#define VSTREAM_TESTS_BLOCK_UTIL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/writeback_stage.hh"
#include "sim/random.hh"
#include "video/frame.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

/** A block a test builds: its bytes, owned. */
using Block = std::vector<std::uint8_t>;

/** A @p dim block of random bytes. */
inline Block
randomMab(Random &rng, std::uint32_t dim = 4)
{
    Block m(dim * dim * kBytesPerPixel);
    for (auto &b : m) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    return m;
}

/** A @p dim block whose every pixel is @p p. */
inline Block
pureMab(const Pixel &p, std::uint32_t dim = 4)
{
    Block m(dim * dim * kBytesPerPixel);
    gradientAdd(m.data(), m.data(), m.size(), p);
    return m;
}

/** @p m with @p offset added to every pixel (wrap-around): the same
 * gab under a different base. */
inline Block
shiftedMab(std::span<const std::uint8_t> m, const Pixel &offset)
{
    Block out(m.size());
    gradientAdd(out.data(), m.data(), m.size(), offset);
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
bytesOf(std::span<const std::uint8_t> stored)
{
    return std::vector<std::uint8_t>(stored.begin(), stored.end());
}

/** Write every mab of @p frame through @p wb at @p now, between the
 * caller's beginFrame() and finishFrame(). */
inline void
writeMabs(WritebackStage &wb, const Frame &frame, Tick now)
{
    for (std::uint32_t i = 0; i < frame.mabCount(); ++i) {
        wb.writeMab(frame.mabBytes(i), i, now);
    }
}

} // namespace vstream

#endif // VSTREAM_TESTS_BLOCK_UTIL_HH
