/**
 * @file
 * Equivalence tests for the pixel kernels (video/pixel_kernels.hh)
 * and the batched digest paths (hash/hasher.hh, hash/crc.hh).  The
 * SSE2 gradient loop and the dispatched CRC kernels must produce
 * bytes identical to a scalar reference at every size, alignment and
 * tail shape, so simulation output never depends on the host.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hash/crc.hh"
#include "hash/hasher.hh"
#include "video/pixel.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{
namespace
{

/** Deterministic byte stream (no RNG state shared with the sim). */
std::vector<std::uint8_t>
patternBytes(std::size_t len, std::uint64_t seed)
{
    std::vector<std::uint8_t> v(len);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
    for (std::size_t i = 0; i < len; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v[i] = static_cast<std::uint8_t>(x);
    }
    return v;
}

/**
 * The mod-256 r,g,b-cycling reference every kernel is pinned to:
 * exactly floor(len / 3) whole pixels are transformed and trailing
 * ragged bytes are left untouched in dst (the documented contract;
 * sim lengths are always a multiple of 3).
 */
void
referenceSub(std::uint8_t *dst, const std::uint8_t *src,
             std::size_t len, const Pixel &base)
{
    for (std::size_t i = 0; i + 3 <= len; i += 3) {
        dst[i] = static_cast<std::uint8_t>(src[i] - base.r);
        dst[i + 1] = static_cast<std::uint8_t>(src[i + 1] - base.g);
        dst[i + 2] = static_cast<std::uint8_t>(src[i + 2] - base.b);
    }
}

// Sizes exercise empty input, sub-48 B lengths that run the scalar
// loop end to end, the 48-byte SSE2 stride exactly and with one-off
// tails, non-multiple-of-3 lengths, and full 16x16x3 macroblocks.
const std::size_t kSizes[] = {0,  1,  2,  3,  15,  16,  17,  47,
                              48, 49, 95, 96, 97,  100, 192, 300,
                              767, 768, 769, 3072};

TEST(GradientKernels, SubMatchesScalarReferenceAtEverySizeAndOffset)
{
    const Pixel base{211, 3, 97};
    for (std::size_t len : kSizes) {
        // Offsets walk the buffers off 16-byte alignment so the
        // unaligned-load path is exercised too.
        for (std::size_t off :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
            const auto backing = patternBytes(len + off, len);
            const std::uint8_t *src = backing.data() + off;
            // 0xEE sentinels pin the untouched-ragged-tail contract
            // as well as the transformed prefix.
            std::vector<std::uint8_t> want(len, 0xEE);
            referenceSub(want.data(), src, len, base);
            std::vector<std::uint8_t> got_backing(len + off, 0xEE);
            gradientSub(got_backing.data() + off, src, len, base);
            EXPECT_EQ(std::vector<std::uint8_t>(
                          got_backing.begin() +
                              static_cast<std::ptrdiff_t>(off),
                          got_backing.end()),
                      want)
                << "len " << len << " off " << off;
        }
    }
}

TEST(GradientKernels, AddInvertsSub)
{
    const Pixel base{17, 255, 128};
    for (std::size_t len : kSizes) {
        const auto src = patternBytes(len, 77 + len);
        std::vector<std::uint8_t> gab(len);
        gradientSub(gab.data(), src.data(), len, base);
        std::vector<std::uint8_t> back(len);
        gradientAdd(back.data(), gab.data(), len, base);
        // Only whole pixels round-trip; a ragged tail is untouched
        // by both transforms.
        const std::size_t full = len / 3 * 3;
        EXPECT_TRUE(std::equal(
            back.begin(),
            back.begin() + static_cast<std::ptrdiff_t>(full),
            src.begin()))
            << "len " << len;
    }
}

TEST(GradientKernels, ExactAliasInPlaceMatchesOutOfPlace)
{
    // pureMab() (block_util.hh) runs gradientAdd with dst == src; both
    // transforms must load each chunk before storing it.
    const Pixel base{5, 250, 77};
    for (std::size_t len : kSizes) {
        const auto src = patternBytes(len, 13 * len + 1);
        // In-place leaves the ragged tail holding src bytes.
        std::vector<std::uint8_t> want = src;
        referenceSub(want.data(), src.data(), len, base);
        std::vector<std::uint8_t> in_place = src;
        gradientSub(in_place.data(), in_place.data(), len, base);
        EXPECT_EQ(in_place, want) << "sub len " << len;
        gradientAdd(in_place.data(), in_place.data(), len, base);
        EXPECT_EQ(in_place, src) << "add len " << len;
    }
}

TEST(SimilarityKernels, DetectEqualAndSingleByteDifferingBlocks)
{
    EXPECT_TRUE(blockEqual(nullptr, nullptr, 0));
    for (std::size_t len :
         {std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{15}, std::size_t{16},
          std::size_t{17}, std::size_t{48}, std::size_t{768}}) {
        const auto a = patternBytes(len, len);
        std::vector<std::uint8_t> b = a;
        EXPECT_TRUE(blockEqual(a.data(), b.data(), len))
            << "len " << len;
        // Flip one byte at the head, middle and tail.
        for (std::size_t p : {std::size_t{0}, len / 2, len - 1}) {
            b = a;
            b[p] ^= 0x80;
            EXPECT_FALSE(blockEqual(a.data(), b.data(), len))
                << "len " << len << " flip " << p;
        }
    }
}

TEST(SimilarityKernels, VectorConvenienceComparesSizeThenBytes)
{
    const std::vector<std::uint8_t> a = patternBytes(48, 5);
    std::vector<std::uint8_t> b = a;
    EXPECT_TRUE(blockEqual(a, b));
    b.pop_back();
    EXPECT_FALSE(blockEqual(a, b));
}

TEST(BatchDigests, MatchPerBlockDigestsAtEveryCountAndKind)
{
    // The batched whole-frame digest path must agree bit-for-bit with
    // the one-block-at-a-time digests it replaces, including the
    // interleaved-lane remainders (counts not divisible by 4), at
    // Fig. 12c's 2x2, 4x4 and 8x8 mab sizes.
    for (std::size_t block_len :
         {std::size_t{12}, std::size_t{48}, std::size_t{192}}) {
        for (std::size_t count :
             {std::size_t{1}, std::size_t{2}, std::size_t{3},
              std::size_t{4}, std::size_t{5}, std::size_t{8},
              std::size_t{13}}) {
            std::vector<std::vector<std::uint8_t>> storage;
            std::vector<const std::uint8_t *> blocks;
            for (std::size_t i = 0; i < count; ++i) {
                storage.push_back(
                    patternBytes(block_len, 1000 + i + block_len));
                blocks.push_back(storage.back().data());
            }
            for (HashKind kind :
                 {HashKind::kCrc32, HashKind::kMd5, HashKind::kSha1}) {
                std::vector<std::uint32_t> got(count, 0);
                digest32Batch(kind, blocks.data(), block_len, count,
                              got.data());
                for (std::size_t i = 0; i < count; ++i) {
                    EXPECT_EQ(got[i],
                              digest32(kind, blocks[i], block_len))
                        << hashKindName(kind) << " len " << block_len
                        << " count " << count << " block " << i;
                }
            }
            std::vector<std::uint16_t> aux(count, 0);
            auxDigest16Batch(blocks.data(), block_len, count,
                             aux.data());
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(aux[i], auxDigest16(blocks[i], block_len))
                    << "aux len " << block_len << " count " << count
                    << " block " << i;
            }
        }
    }
}

TEST(BatchDigests, Crc32BatchMatchesReference)
{
    // crc32Batch runs the startup kernel: on a CLMUL host, 12 B
    // blocks take the table walk whole, 48 B blocks one short fold
    // each, and 192 B and 768 B blocks the 64 B fold.  Each digest
    // must equal the reference table walk's.
    for (std::size_t block_len : {std::size_t{12}, std::size_t{48},
                                  std::size_t{192}, std::size_t{768}}) {
        for (std::size_t count = 1; count <= 13; ++count) {
            std::vector<std::vector<std::uint8_t>> storage;
            std::vector<const std::uint8_t *> blocks;
            for (std::size_t i = 0; i < count; ++i) {
                storage.push_back(
                    patternBytes(block_len, 2000 + 31 * i + block_len));
                blocks.push_back(storage.back().data());
            }
            std::vector<std::uint32_t> got(count, 0);
            crc32Batch(blocks.data(), block_len, count, got.data());
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(got[i], ~crc32Reference(0xffffffffu, blocks[i],
                                                  block_len))
                    << "len " << block_len << " count " << count
                    << " block " << i;
            }
        }
    }
}

} // namespace
} // namespace vstream
