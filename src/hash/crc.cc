#include "hash/crc.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VSTREAM_CRC_X86_CLMUL 1
#include <immintrin.h>
#endif

#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define VSTREAM_CRC_ARM 1
#include <arm_acle.h>
#endif

namespace vstream
{

namespace
{

// --- Table generation (constexpr, shared by every kernel) -----------

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

/**
 * Slicing-by-8 tables: kSlice32[k][b] is the CRC32 of byte b followed
 * by k zero bytes, so eight independent table lookups advance the
 * state by eight message bytes at once.  kSlice32[0] is the classic
 * byte-at-a-time table the reference kernel walks.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeCrc32SliceTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    t[0] = makeCrc32Table();
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t b = 0; b < 256; ++b) {
            const std::uint32_t prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][prev & 0xffu];
        }
    }
    return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kSlice32 =
    makeCrc32SliceTables();

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

// vstream:hot
std::uint32_t
crc32Reference(std::uint32_t state, const std::uint8_t *p,
               std::size_t len)
{
    std::uint32_t c = state;
    for (std::size_t i = 0; i < len; ++i) {
        c = kSlice32[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
    }
    return c;
}

// vstream:hot
std::uint32_t
crc32Slice8(std::uint32_t state, const std::uint8_t *p, std::size_t len)
{
    std::uint32_t c = state;
    while (len >= 8) {
        // Explicit little-endian assembly keeps the kernel
        // endian-agnostic; compilers fold each into one 32-bit load.
        const std::uint32_t lo =
            static_cast<std::uint32_t>(p[0]) |
            (static_cast<std::uint32_t>(p[1]) << 8) |
            (static_cast<std::uint32_t>(p[2]) << 16) |
            (static_cast<std::uint32_t>(p[3]) << 24);
        const std::uint32_t hi =
            static_cast<std::uint32_t>(p[4]) |
            (static_cast<std::uint32_t>(p[5]) << 8) |
            (static_cast<std::uint32_t>(p[6]) << 16) |
            (static_cast<std::uint32_t>(p[7]) << 24);
        c ^= lo;
        c = kSlice32[7][c & 0xffu] ^ kSlice32[6][(c >> 8) & 0xffu] ^
            kSlice32[5][(c >> 16) & 0xffu] ^ kSlice32[4][c >> 24] ^
            kSlice32[3][hi & 0xffu] ^ kSlice32[2][(hi >> 8) & 0xffu] ^
            kSlice32[1][(hi >> 16) & 0xffu] ^ kSlice32[0][hi >> 24];
        p += 8;
        len -= 8;
    }
    return crc32Reference(c, p, len);
}

#ifdef VSTREAM_CRC_X86_CLMUL

/**
 * PCLMULQDQ folding for the IEEE polynomial (the classic "Fast CRC
 * computation using PCLMULQDQ" construction).  Folds 64-byte blocks
 * through four 128-bit accumulators, reduces to one, then Barrett-
 * reduces to 32 bits.  Requires len to be a multiple of 16 and >= 64;
 * the dispatcher feeds tail bytes to the slice-8 kernel.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
crc32ClmulBlock(std::uint32_t state, const std::uint8_t *p,
                std::size_t len)
{
    // Folding/reduction constants for reflected 0x04C11DB7.
    const __m128i k1k2 = _mm_setr_epi32(0x54442bd4, 1,
                                        static_cast<int>(0xc6e41596),
                                        1);
    const __m128i k3k4 = _mm_setr_epi32(0x751997d0, 1,
                                        static_cast<int>(0xccaa009e),
                                        0);
    const __m128i k5k0 = _mm_setr_epi32(0x63cd6124, 1, 0, 0);
    const __m128i poly_mu =
        _mm_setr_epi32(static_cast<int>(0xdb710641), 1,
                       static_cast<int>(0xf7011641), 1);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    __m128i x2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 16));
    __m128i x3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 32));
    __m128i x4 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 48));
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(state)));
    p += 64;
    len -= 64;

// Lambdas do not inherit the enclosing target attribute, so the fold
// steps are macros.  FOLD(acc, k, d): acc = clmul-fold(acc, k) ^ d.
#define VSTREAM_CRC_FOLD(acc, k, d)                                    \
    (acc) = _mm_xor_si128(                                             \
        (d), _mm_xor_si128(_mm_clmulepi64_si128((acc), (k), 0x00),     \
                           _mm_clmulepi64_si128((acc), (k), 0x11)))
#define VSTREAM_CRC_LOAD(q)                                            \
    _mm_loadu_si128(reinterpret_cast<const __m128i *>(q))

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

    while (len >= 16) {
        VSTREAM_CRC_FOLD(x1, k3k4, VSTREAM_CRC_LOAD(p));
        p += 16;
        len -= 16;
    }

#undef VSTREAM_CRC_FOLD
#undef VSTREAM_CRC_LOAD

    // Fold 128 -> 64 bits.
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
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
 * CLMUL fold for one short block: @p len must be a non-zero multiple
 * of 16 (the whole-frame batch's 48 B mab case).  One fold per extra
 * chunk plus the shared 128->32 reduction; consecutive blocks have
 * independent chains, so a batch loop keeps several in flight where
 * slicing-by-8's table lookups serialize on the load ports.
 */
// vstream:hot
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
crc32ClmulShort(std::uint32_t state, const std::uint8_t *p,
                std::size_t len)
{
    const __m128i k3k4 = _mm_setr_epi32(0x751997d0, 1,
                                        static_cast<int>(0xccaa009e),
                                        0);
    const __m128i k5k0 = _mm_setr_epi32(0x63cd6124, 1, 0, 0);
    const __m128i poly_mu =
        _mm_setr_epi32(static_cast<int>(0xdb710641), 1,
                       static_cast<int>(0xf7011641), 1);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(state)));

#define VSTREAM_CRC_FOLD(acc, k, d)                                    \
    (acc) = _mm_xor_si128(                                             \
        (d), _mm_xor_si128(_mm_clmulepi64_si128((acc), (k), 0x00),     \
                           _mm_clmulepi64_si128((acc), (k), 0x11)))

    for (std::size_t off = 16; off + 16 <= len; off += 16) {
        VSTREAM_CRC_FOLD(x1, k3k4,
                         _mm_loadu_si128(
                             reinterpret_cast<const __m128i *>(
                                 p + off)));
    }

#undef VSTREAM_CRC_FOLD

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

// vstream:hot
std::uint32_t
crc32Hardware(std::uint32_t state, const std::uint8_t *p,
              std::size_t len)
{
    if (len >= 64) {
        const std::size_t chunk = len & ~static_cast<std::size_t>(15);
        state = crc32ClmulBlock(state, p, chunk);
        p += chunk;
        len -= chunk;
    } else if (len >= 16) {
        const std::size_t chunk = len & ~static_cast<std::size_t>(15);
        state = crc32ClmulShort(state, p, chunk);
        p += chunk;
        len -= chunk;
    }
    return crc32Slice8(state, p, len);
}

bool
crc32HardwareAvailable()
{
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
}

/**
 * Per-block CLMUL batch for short blocks (16 <= block_len < 64, the
 * 48 B mab digest).  Returns false when the hardware path cannot take
 * the shape, in which case the caller falls back to the interleaved
 * slicing-by-8 lanes.  Digests are identical either way.
 */
// vstream:hot
bool
crc32BatchClmul(const std::uint8_t *const *blocks,
                std::size_t block_len, std::size_t count,
                std::uint32_t *out)
{
    if (block_len < 16 || block_len >= 64) {
        return false;
    }
    const std::size_t chunk =
        block_len & ~static_cast<std::size_t>(15);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t c =
            crc32ClmulShort(0xffffffffu, blocks[i], chunk);
        if (chunk != block_len) {
            c = crc32Slice8(c, blocks[i] + chunk, block_len - chunk);
        }
        out[i] = ~c;
    }
    return true;
}

#elif defined(VSTREAM_CRC_ARM)

// vstream:hot
std::uint32_t
crc32Hardware(std::uint32_t state, const std::uint8_t *p,
              std::size_t len)
{
    std::uint32_t c = state;
    while (len >= 8) {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        c = __crc32d(c, v);
        p += 8;
        len -= 8;
    }
    while (len > 0) {
        c = __crc32b(c, *p++);
        --len;
    }
    return c;
}

bool
crc32BatchClmul(const std::uint8_t *const *blocks,
                std::size_t block_len, std::size_t count,
                std::uint32_t *out)
{
    // The ARM CRC32 instruction is already one step per 8 B; the
    // per-block loop below beats interleaved table lanes on its own.
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = ~crc32Hardware(0xffffffffu, blocks[i], block_len);
    }
    return true;
}

bool
crc32HardwareAvailable()
{
    return true;
}

#else

std::uint32_t
crc32Hardware(std::uint32_t state, const std::uint8_t *p,
              std::size_t len)
{
    return crc32Slice8(state, p, len);
}

bool
crc32BatchClmul(const std::uint8_t *const *, std::size_t, std::size_t,
                std::uint32_t *)
{
    return false;
}

bool
crc32HardwareAvailable()
{
    return false;
}

#endif

using Crc32Fn = std::uint32_t (*)(std::uint32_t, const std::uint8_t *,
                                  std::size_t);

Crc32Fn
kernelFn(CrcKernel k)
{
    switch (k) {
      case CrcKernel::kReference:
        return crc32Reference;
      case CrcKernel::kSlice8:
        return crc32Slice8;
      case CrcKernel::kHardware:
        return crc32Hardware;
    }
    return crc32Reference;
}

/**
 * The dispatch target, picked once pre-main by CPU feature alone: the
 * hardware kernel when the host has one, else slicing-by-8.  All
 * kernels are digest-identical, so the choice never affects
 * simulation output.
 */
CrcKernel
resolveCrc32Kernel()
{
    return crc32HardwareAvailable() ? CrcKernel::kHardware
                                    : CrcKernel::kSlice8;
}

const CrcKernel kActiveKernel = resolveCrc32Kernel();
const Crc32Fn kActiveFn = kernelFn(kActiveKernel);

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

// --- Batched (4-way interleaved) kernels ----------------------------

/**
 * Advance four independent CRC32 states over four equal-length blocks
 * in lockstep.  A single short-block CRC is one long dependency chain
 * of table lookups; four chains in flight fill the load ports, which
 * is where the whole-frame digest batch gets its speedup.  The states
 * are independent, so each result is identical to running the
 * slicing-by-8 kernel on that block alone.
 */
// vstream:hot
void
crc32Slice8x4(const std::uint8_t *const *p, std::size_t len,
              std::uint32_t *c)
{
    std::uint32_t c0 = c[0];
    std::uint32_t c1 = c[1];
    std::uint32_t c2 = c[2];
    std::uint32_t c3 = c[3];
    std::size_t off = 0;

#define VSTREAM_CRC_LOAD32(q)                                          \
    (static_cast<std::uint32_t>((q)[0]) |                              \
     (static_cast<std::uint32_t>((q)[1]) << 8) |                       \
     (static_cast<std::uint32_t>((q)[2]) << 16) |                      \
     (static_cast<std::uint32_t>((q)[3]) << 24))
#define VSTREAM_CRC_STEP8(st, q)                                       \
    do {                                                               \
        const std::uint32_t lo_ = (st) ^ VSTREAM_CRC_LOAD32(q);        \
        const std::uint32_t hi_ = VSTREAM_CRC_LOAD32((q) + 4);         \
        (st) = kSlice32[7][lo_ & 0xffu] ^                              \
               kSlice32[6][(lo_ >> 8) & 0xffu] ^                       \
               kSlice32[5][(lo_ >> 16) & 0xffu] ^                      \
               kSlice32[4][lo_ >> 24] ^ kSlice32[3][hi_ & 0xffu] ^     \
               kSlice32[2][(hi_ >> 8) & 0xffu] ^                       \
               kSlice32[1][(hi_ >> 16) & 0xffu] ^                      \
               kSlice32[0][hi_ >> 24];                                 \
    } while (0)

    for (; off + 8 <= len; off += 8) {
        VSTREAM_CRC_STEP8(c0, p[0] + off);
        VSTREAM_CRC_STEP8(c1, p[1] + off);
        VSTREAM_CRC_STEP8(c2, p[2] + off);
        VSTREAM_CRC_STEP8(c3, p[3] + off);
    }

#undef VSTREAM_CRC_STEP8
#undef VSTREAM_CRC_LOAD32

    c[0] = crc32Reference(c0, p[0] + off, len - off);
    c[1] = crc32Reference(c1, p[1] + off, len - off);
    c[2] = crc32Reference(c2, p[2] + off, len - off);
    c[3] = crc32Reference(c3, p[3] + off, len - off);
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

const char *
crcKernelName(CrcKernel k)
{
    switch (k) {
      case CrcKernel::kReference:
        return "reference";
      case CrcKernel::kSlice8:
        return "slice8";
      case CrcKernel::kHardware:
        return "hw";
    }
    return "unknown";
}

std::vector<CrcKernel>
availableCrc32Kernels()
{
    std::vector<CrcKernel> out{CrcKernel::kReference,
                               CrcKernel::kSlice8};
    if (crc32HardwareAvailable()) {
        out.push_back(CrcKernel::kHardware);
    }
    return out;
}

CrcKernel
activeCrc32Kernel()
{
    return kActiveKernel;
}

std::uint32_t
crc32Step(CrcKernel k, std::uint32_t state, const void *data,
          std::size_t len)
{
    return kernelFn(k)(state, static_cast<const std::uint8_t *>(data),
                       len);
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
    crc32BatchWith(kActiveKernel, blocks, block_len, count, out);
}

// vstream:hot
void
crc32BatchWith(CrcKernel k, const std::uint8_t *const *blocks,
               std::size_t block_len, std::size_t count,
               std::uint32_t *out)
{
    if (k == CrcKernel::kHardware &&
        crc32BatchClmul(blocks, block_len, count, out)) {
        return;
    }
    std::size_t i = 0;
    // Long blocks under the hw kernel fold 64 B per CLMUL round; the
    // per-block tail loop below routes them through it.
    const bool lanes =
        k == CrcKernel::kSlice8 ||
        (k == CrcKernel::kHardware && block_len < 64);
    if (lanes) {
        for (; i + 4 <= count; i += 4) {
            std::uint32_t c[4] = {0xffffffffu, 0xffffffffu,
                                  0xffffffffu, 0xffffffffu};
            crc32Slice8x4(blocks + i, block_len, c);
            out[i] = ~c[0];
            out[i + 1] = ~c[1];
            out[i + 2] = ~c[2];
            out[i + 3] = ~c[3];
        }
    }
    const Crc32Fn fn = kernelFn(k);
    for (; i < count; ++i) {
        out[i] = ~fn(0xffffffffu, blocks[i], block_len);
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
    state_ = kActiveFn(state_, static_cast<const std::uint8_t *>(data),
                       len);
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
