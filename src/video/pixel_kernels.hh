/**
 * @file
 * The per-mab pixel kernels: one implementation per job.
 *
 *  - **Gradient transform** (`gradientSub` / `gradientAdd`): the
 *    wrap-around per-byte subtract/add of a base pixel whose channel
 *    cycles r,g,b (prepareMachFrame's gabs, the generator's shifted
 *    and smooth blocks, ShownFrameCrc's base re-add).  Where the
 *    compiler targets SSE2 (baseline on x86-64) a 16-pixel loop is
 *    compiled in: lcm(16, 3) = 48, so three rotated 16-byte base
 *    vectors cover every phase of the 3-byte pattern and one
 *    iteration transforms exactly one 48 B (4x4) mab.  The scalar
 *    loop takes the sub-48 B tail, and the whole length on other
 *    hosts.  Byte subtraction is exact mod-256 arithmetic in both
 *    forms, so the bytes never depend on which loop ran.
 *
 *  - **Block equality** (`blockEqual`): the probe behind MACH
 *    verify-on-hit, the collider forge check and MachWriteback's
 *    identity assert.  It is `std::memcmp`, which beats
 *    hand-written packed and SSE2 compares at both 48 B and 768 B.
 */

#ifndef VSTREAM_VIDEO_PIXEL_KERNELS_HH
#define VSTREAM_VIDEO_PIXEL_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <span>

#include "video/pixel.hh"

namespace vstream
{

/**
 * dst[i] = src[i] - base-channel(i mod 3), mod 256, for the
 * floor(@p len / 3) whole pixels (the mab -> gab transform); any 1-2
 * ragged trailing bytes of dst are left untouched.  @p dst may equal
 * @p src.
 */
void gradientSub(std::uint8_t *dst, const std::uint8_t *src,
                 std::size_t len, const Pixel &base);

/** dst[i] = src[i] + base-channel(i mod 3): the gab -> mab inverse. */
void gradientAdd(std::uint8_t *dst, const std::uint8_t *src,
                 std::size_t len, const Pixel &base);

/**
 * True when the @p len bytes at @p a and @p b are identical.  Either
 * pointer may be null when @p len is 0.
 */
bool blockEqual(const std::uint8_t *a, const std::uint8_t *b,
                std::size_t len);

/** Whole-block convenience (vectors, arena views): sizes then
 * contents. */
bool blockEqual(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b);

} // namespace vstream

#endif // VSTREAM_VIDEO_PIXEL_KERNELS_HH
