#include "hash/crc.hh"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VSTREAM_CRC_X86_CLMUL 1
#include <immintrin.h>
#endif

namespace vstream
{

namespace
{

// --- Tables (constexpr) ---------------------------------------------

constexpr std::uint32_t kCrc32Poly = 0xedb88320u; // IEEE, reflected

constexpr std::array<std::uint32_t, 256>
makeCrc32Table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (kCrc32Poly ^ (c >> 1)) : (c >> 1);
        }
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = makeCrc32Table();

constexpr std::uint16_t kCrc16Poly = 0x1021u; // CCITT, MSB-first

constexpr std::array<std::uint16_t, 256>
makeCrc16Table()
{
    std::array<std::uint16_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint16_t c = static_cast<std::uint16_t>(i << 8);
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 0x8000u)
                    ? static_cast<std::uint16_t>((c << 1) ^ kCrc16Poly)
                    : static_cast<std::uint16_t>(c << 1);
        }
        table[i] = c;
    }
    return table;
}

/** kSlice16[1][b] = CRC16 of byte b followed by one zero byte. */
constexpr std::array<std::array<std::uint16_t, 256>, 2>
makeCrc16SliceTables()
{
    std::array<std::array<std::uint16_t, 256>, 2> t{};
    t[0] = makeCrc16Table();
    for (std::uint32_t b = 0; b < 256; ++b) {
        const std::uint16_t prev = t[0][b];
        t[1][b] = static_cast<std::uint16_t>(
            (prev << 8) ^ t[0][(prev >> 8) & 0xffu]);
    }
    return t;
}

constexpr std::array<std::array<std::uint16_t, 256>, 2> kSlice16 =
    makeCrc16SliceTables();

// --- CRC32 kernels --------------------------------------------------

#ifdef VSTREAM_CRC_X86_CLMUL

/*
 * PCLMULQDQ folding for the IEEE polynomial (the classic "Fast CRC
 * computation using PCLMULQDQ" construction).  Lambdas do not inherit
 * a function's target attribute, so the fold step is a macro:
 * FOLD(acc, k, d) sets acc = clmul-fold(acc, k) ^ d.
 */
#define VSTREAM_CRC_TARGET __attribute__((target("pclmul,sse4.1")))
#define VSTREAM_CRC_LOAD(q)                                            \
    _mm_loadu_si128(reinterpret_cast<const __m128i *>(q))
#define VSTREAM_CRC_FOLD(acc, k, d)                                    \
    (acc) = _mm_xor_si128(                                             \
        (d), _mm_xor_si128(_mm_clmulepi64_si128((acc), (k), 0x00),     \
                           _mm_clmulepi64_si128((acc), (k), 0x11)))

/**
 * Fold the 16 B chunks of [p, p+len) (@p len a multiple of 16) into
 * the 128-bit accumulator @p x1, then reduce it to the 32-bit CRC
 * state: fold 128 -> 64 -> 32 bits and Barrett-reduce.  Constants are
 * for reflected 0x04C11DB7.
 */
// vstream:hot
VSTREAM_CRC_TARGET inline std::uint32_t
crc32ClmulFinish(__m128i x1, const std::uint8_t *p, std::size_t len)
{
    const __m128i k3k4 = _mm_setr_epi32(0x751997d0, 1,
                                        static_cast<int>(0xccaa009e),
                                        0);
    const __m128i k5k0 = _mm_setr_epi32(0x63cd6124, 1, 0, 0);
    const __m128i poly_mu =
        _mm_setr_epi32(static_cast<int>(0xdb710641), 1,
                       static_cast<int>(0xf7011641), 1);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    for (; len >= 16; p += 16, len -= 16) {
        VSTREAM_CRC_FOLD(x1, k3k4, VSTREAM_CRC_LOAD(p));
    }

    // Fold 128 -> 64 bits.
    __m128i x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_srli_si128(x1, 8);
    x1 = _mm_xor_si128(x1, x2);

    // Fold 64 -> 32 bits.
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask32);
    x1 = _mm_clmulepi64_si128(x1, k5k0, 0x00);
    x1 = _mm_xor_si128(x1, x2);

    // Barrett reduction.
    x2 = _mm_and_si128(x1, mask32);
    x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x10);
    x2 = _mm_and_si128(x2, mask32);
    x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

/**
 * Long input (@p len a multiple of 16, >= 64): folds 64 B per round
 * through four 128-bit accumulators, merges them into one, and
 * finishes through crc32ClmulFinish.
 */
// vstream:hot
VSTREAM_CRC_TARGET std::uint32_t
crc32ClmulBlock(std::uint32_t state, const std::uint8_t *p,
                std::size_t len)
{
    const __m128i k1k2 = _mm_setr_epi32(0x54442bd4, 1,
                                        static_cast<int>(0xc6e41596),
                                        1);
    const __m128i k3k4 = _mm_setr_epi32(0x751997d0, 1,
                                        static_cast<int>(0xccaa009e),
                                        0);

    __m128i x1 = _mm_xor_si128(VSTREAM_CRC_LOAD(p),
                               _mm_cvtsi32_si128(static_cast<int>(state)));
    __m128i x2 = VSTREAM_CRC_LOAD(p + 16);
    __m128i x3 = VSTREAM_CRC_LOAD(p + 32);
    __m128i x4 = VSTREAM_CRC_LOAD(p + 48);
    p += 64;
    len -= 64;

    while (len >= 64) {
        VSTREAM_CRC_FOLD(x1, k1k2, VSTREAM_CRC_LOAD(p));
        VSTREAM_CRC_FOLD(x2, k1k2, VSTREAM_CRC_LOAD(p + 16));
        VSTREAM_CRC_FOLD(x3, k1k2, VSTREAM_CRC_LOAD(p + 32));
        VSTREAM_CRC_FOLD(x4, k1k2, VSTREAM_CRC_LOAD(p + 48));
        p += 64;
        len -= 64;
    }

    VSTREAM_CRC_FOLD(x1, k3k4, x2);
    VSTREAM_CRC_FOLD(x1, k3k4, x3);
    VSTREAM_CRC_FOLD(x1, k3k4, x4);
    return crc32ClmulFinish(x1, p, len);
}

/**
 * Short input (@p len a non-zero multiple of 16, such as the 48 B
 * mab): one fold per extra 16 B chunk, then the shared reduction.
 * Consecutive blocks have independent chains, so a batch loop keeps
 * several in flight.
 */
// vstream:hot
VSTREAM_CRC_TARGET std::uint32_t
crc32ClmulShort(std::uint32_t state, const std::uint8_t *p,
                std::size_t len)
{
    const __m128i x1 = _mm_xor_si128(
        VSTREAM_CRC_LOAD(p), _mm_cvtsi32_si128(static_cast<int>(state)));
    return crc32ClmulFinish(x1, p + 16, len - 16);
}

/** Whole 16 B chunks through CLMUL, the sub-16 B tail by table. */
// vstream:hot
VSTREAM_CRC_TARGET std::uint32_t
crc32Hardware(std::uint32_t state, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    if (len >= 16) {
        const std::size_t chunk = len & ~std::size_t{15};
        state = chunk >= 64 ? crc32ClmulBlock(state, p, chunk)
                            : crc32ClmulShort(state, p, chunk);
        p += chunk;
        len -= chunk;
    }
    return crc32Reference(state, p, len);
}

#undef VSTREAM_CRC_FOLD
#undef VSTREAM_CRC_LOAD
#undef VSTREAM_CRC_TARGET

#endif

using Crc32Fn = std::uint32_t (*)(std::uint32_t, const void *,
                                  std::size_t);

/**
 * The CRC32 kernel, picked once pre-main by CPU feature alone: the
 * CLMUL fold when the host has PCLMULQDQ, else the table walk.  Both
 * are digest-identical, so the choice never affects simulation
 * output.
 */
Crc32Fn
resolveCrc32()
{
#ifdef VSTREAM_CRC_X86_CLMUL
    if (__builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("sse4.1")) {
        return crc32Hardware;
    }
#endif
    return crc32Reference;
}

const Crc32Fn kCrc32Fn = resolveCrc32();

// --- CRC16 kernels --------------------------------------------------

// vstream:hot
std::uint16_t
crc16Reference(std::uint16_t state, const std::uint8_t *p,
               std::size_t len)
{
    std::uint16_t c = state;
    for (std::size_t i = 0; i < len; ++i) {
        c = static_cast<std::uint16_t>(
            (c << 8) ^ kSlice16[0][((c >> 8) ^ p[i]) & 0xffu]);
    }
    return c;
}

// vstream:hot
std::uint16_t
crc16Slice2(std::uint16_t state, const std::uint8_t *p, std::size_t len)
{
    std::uint16_t c = state;
    while (len >= 2) {
        c = static_cast<std::uint16_t>(
            kSlice16[1][((c >> 8) ^ p[0]) & 0xffu] ^
            kSlice16[0][(c ^ p[1]) & 0xffu]);
        p += 2;
        len -= 2;
    }
    return crc16Reference(c, p, len);
}

/** Four CRC16 states in lockstep (slicing-by-2 per lane). */
// vstream:hot
void
crc16Slice2x4(const std::uint8_t *const *p, std::size_t len,
              std::uint16_t *c)
{
    std::uint16_t c0 = c[0];
    std::uint16_t c1 = c[1];
    std::uint16_t c2 = c[2];
    std::uint16_t c3 = c[3];
    std::size_t off = 0;

#define VSTREAM_CRC16_STEP2(st, q)                                     \
    (st) = static_cast<std::uint16_t>(                                 \
        kSlice16[1][(((st) >> 8) ^ (q)[0]) & 0xffu] ^                  \
        kSlice16[0][((st) ^ (q)[1]) & 0xffu])

    for (; off + 2 <= len; off += 2) {
        VSTREAM_CRC16_STEP2(c0, p[0] + off);
        VSTREAM_CRC16_STEP2(c1, p[1] + off);
        VSTREAM_CRC16_STEP2(c2, p[2] + off);
        VSTREAM_CRC16_STEP2(c3, p[3] + off);
    }

#undef VSTREAM_CRC16_STEP2

    c[0] = crc16Reference(c0, p[0] + off, len - off);
    c[1] = crc16Reference(c1, p[1] + off, len - off);
    c[2] = crc16Reference(c2, p[2] + off, len - off);
    c[3] = crc16Reference(c3, p[3] + off, len - off);
}

} // namespace

// --- Public API -----------------------------------------------------

// vstream:hot
std::uint32_t
crc32Reference(std::uint32_t state, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = state;
    for (std::size_t i = 0; i < len; ++i) {
        c = kCrc32Table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    }
    return c;
}

std::uint16_t
crc16Step(bool sliced, std::uint16_t state, const void *data,
          std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    return sliced ? crc16Slice2(state, p, len)
                  : crc16Reference(state, p, len);
}

// vstream:hot
void
crc32Batch(const std::uint8_t *const *blocks, std::size_t block_len,
           std::size_t count, std::uint32_t *out)
{
#ifdef VSTREAM_CRC_X86_CLMUL
    // Direct calls, not through kCrc32Fn, so that consecutive blocks'
    // fold chains overlap in the pipeline.
    if (kCrc32Fn == crc32Hardware) {
        for (std::size_t i = 0; i < count; ++i) {
            out[i] = ~crc32Hardware(0xffffffffu, blocks[i], block_len);
        }
        return;
    }
#endif
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = ~crc32Reference(0xffffffffu, blocks[i], block_len);
    }
}

// vstream:hot
void
crc16Batch(const std::uint8_t *const *blocks, std::size_t block_len,
           std::size_t count, std::uint16_t *out)
{
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        std::uint16_t c[4] = {0xffffu, 0xffffu, 0xffffu, 0xffffu};
        crc16Slice2x4(blocks + i, block_len, c);
        out[i] = c[0];
        out[i + 1] = c[1];
        out[i + 2] = c[2];
        out[i + 3] = c[3];
    }
    for (; i < count; ++i) {
        out[i] = crc16Slice2(0xffffu, blocks[i], block_len);
    }
}

// vstream:hot
void
Crc32::update(const void *data, std::size_t len)
{
    state_ = kCrc32Fn(state_, data, len);
}

std::uint32_t
Crc32::compute(const void *data, std::size_t len)
{
    Crc32 h;
    h.update(data, len);
    return h.digest();
}

// vstream:hot
void
Crc16::update(const void *data, std::size_t len)
{
    state_ = crc16Slice2(state_,
                         static_cast<const std::uint8_t *>(data), len);
}

std::uint16_t
Crc16::compute(const void *data, std::size_t len)
{
    Crc16 h;
    h.update(data, len);
    return h.digest();
}

} // namespace vstream
