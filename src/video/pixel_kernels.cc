#include "video/pixel_kernels.hh"

#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace vstream
{

namespace
{

// The gradient contract is the scalar loop's: exactly floor(len / 3)
// pixels are transformed; any 1-2 trailing bytes past the last full
// pixel are left untouched in dst.  In the simulator len is always a
// multiple of 3, but the tests exercise ragged tails too.

// vstream:hot
void
gradientScalar(std::uint8_t *dst, const std::uint8_t *src,
               std::size_t len, const Pixel &base, bool add)
{
    if (add) {
        for (std::size_t i = 0; i + kBytesPerPixel <= len;
             i += kBytesPerPixel) {
            dst[i] = static_cast<std::uint8_t>(src[i] + base.r);
            dst[i + 1] = static_cast<std::uint8_t>(src[i + 1] + base.g);
            dst[i + 2] = static_cast<std::uint8_t>(src[i + 2] + base.b);
        }
        return;
    }
    for (std::size_t i = 0; i + kBytesPerPixel <= len;
         i += kBytesPerPixel) {
        dst[i] = static_cast<std::uint8_t>(src[i] - base.r);
        dst[i + 1] = static_cast<std::uint8_t>(src[i + 1] - base.g);
        dst[i + 2] = static_cast<std::uint8_t>(src[i + 2] - base.b);
    }
}

#if defined(__SSE2__)

/**
 * The r,g,b base pattern repeated across three 16-byte lanes: lcm(16,
 * 3) = 48, so three phase-rotated base vectors keep the channel cycle
 * in lockstep with the 48 B loop.  The repeating byte pattern has
 * period 12 = lcm(4, 3), i.e. only three distinct dwords, so the
 * vectors are assembled register-side — building the pattern in
 * memory and reloading it cost a store-to-load forwarding stall on
 * every call, half the price of a 48 B mab.
 */
struct BasePhases
{
    __m128i p0, p1, p2;
};

BasePhases
makePhases(const Pixel &base)
{
    const auto r = static_cast<std::uint32_t>(base.r);
    const auto g = static_cast<std::uint32_t>(base.g);
    const auto b = static_cast<std::uint32_t>(base.b);
    // d0/d1/d2 are the pattern's bytes 0-3, 4-7, 8-11; every 16-byte
    // phase is some rotation d_k, d_k+1, d_k+2, d_k of the three.
    const auto d0 =
        static_cast<int>(r | (g << 8) | (b << 16) | (r << 24));
    const auto d1 =
        static_cast<int>(g | (b << 8) | (r << 16) | (g << 24));
    const auto d2 =
        static_cast<int>(b | (r << 8) | (g << 16) | (b << 24));
    BasePhases ph;
    ph.p0 = _mm_setr_epi32(d0, d1, d2, d0); // bytes 0..15: phase 0
    ph.p1 = _mm_setr_epi32(d1, d2, d0, d1); // bytes 16..31: phase 1
    ph.p2 = _mm_setr_epi32(d2, d0, d1, d2); // bytes 32..47: phase 2
    return ph;
}

#endif

// vstream:hot
void
gradient(std::uint8_t *dst, const std::uint8_t *src, std::size_t len,
         const Pixel &base, bool add)
{
    std::size_t i = 0;
#if defined(__SSE2__)
    const BasePhases ph = makePhases(base);
    // Each chunk is loaded whole before it is stored, so dst == src
    // is safe.
    for (; i + 48 <= len; i += 48) {
        const auto *s = reinterpret_cast<const __m128i *>(src + i);
        auto *d = reinterpret_cast<__m128i *>(dst + i);
        const __m128i a = _mm_loadu_si128(s);
        const __m128i b = _mm_loadu_si128(s + 1);
        const __m128i c = _mm_loadu_si128(s + 2);
        if (add) {
            _mm_storeu_si128(d, _mm_add_epi8(a, ph.p0));
            _mm_storeu_si128(d + 1, _mm_add_epi8(b, ph.p1));
            _mm_storeu_si128(d + 2, _mm_add_epi8(c, ph.p2));
        } else {
            _mm_storeu_si128(d, _mm_sub_epi8(a, ph.p0));
            _mm_storeu_si128(d + 1, _mm_sub_epi8(b, ph.p1));
            _mm_storeu_si128(d + 2, _mm_sub_epi8(c, ph.p2));
        }
    }
#endif
    // 48 is a multiple of 3, so the tail re-enters at channel phase 0.
    gradientScalar(dst + i, src + i, len - i, base, add);
}

} // namespace

// vstream:hot
void
gradientSub(std::uint8_t *dst, const std::uint8_t *src,
            std::size_t len, const Pixel &base)
{
    gradient(dst, src, len, base, /*add=*/false);
}

// vstream:hot
void
gradientAdd(std::uint8_t *dst, const std::uint8_t *src,
            std::size_t len, const Pixel &base)
{
    gradient(dst, src, len, base, /*add=*/true);
}

// vstream:hot
bool
blockEqual(const std::uint8_t *a, const std::uint8_t *b,
           std::size_t len)
{
    // memcmp's pointers must be valid even for zero bytes, and an
    // empty block may come with null pointers.
    return len == 0 || std::memcmp(a, b, len) == 0;
}

// vstream:hot
bool
blockEqual(std::span<const std::uint8_t> a,
           std::span<const std::uint8_t> b)
{
    return a.size() == b.size() &&
           blockEqual(a.data(), b.data(), a.size());
}

} // namespace vstream
