/**
 * @file
 * Unit tests for the hash library (CRC32/CRC16/MD5/SHA-1) against
 * published known-answer vectors, plus the 32-bit digest dispatch
 * MACH builds on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "hash/crc.hh"
#include "hash/hasher.hh"
#include "hash/md5.hh"
#include "hash/sha1.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

const char *kNineDigits = "123456789";

TEST(Crc32, CheckValue)
{
    // The canonical CRC-32/IEEE check value.
    EXPECT_EQ(Crc32::compute(kNineDigits, 9), 0xcbf43926u);
}

TEST(Crc32, EmptyInput)
{
    EXPECT_EQ(Crc32::compute("", 0), 0x00000000u);
}

TEST(Crc32, KnownStrings)
{
    EXPECT_EQ(Crc32::compute("a", 1), 0xe8b7be43u);
    EXPECT_EQ(Crc32::compute("abc", 3), 0x352441c2u);
    const std::string lazy =
        "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(Crc32::compute(lazy.data(), lazy.size()), 0x414fa339u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const std::string data = "macroblock content caching";
    Crc32 crc;
    for (char c : data) {
        crc.update(&c, 1);
    }
    EXPECT_EQ(crc.digest(), Crc32::compute(data.data(), data.size()));
}

TEST(Crc32, ResetRestarts)
{
    Crc32 crc;
    crc.update("junk", 4);
    crc.reset();
    crc.update(kNineDigits, 9);
    EXPECT_EQ(crc.digest(), 0xcbf43926u);
}

TEST(Crc32, SensitiveToSingleBitFlip)
{
    std::vector<std::uint8_t> block(48, 0xab);
    const std::uint32_t base = Crc32::compute(block.data(), block.size());
    for (std::size_t i = 0; i < block.size(); i += 7) {
        auto copy = block;
        copy[i] ^= 0x01;
        EXPECT_NE(Crc32::compute(copy.data(), copy.size()), base)
            << "flip at byte " << i;
    }
}

// ---------------------------------------------------------------------
// Kernel equivalence: the CRC32 kernel update() dispatched to must
// produce the reference digest for any length, alignment and
// incremental split - a kernel that diverges would silently change
// every MACH hit.
// ---------------------------------------------------------------------

TEST(CrcEquivalence, Crc32DispatchedMatchesReferenceAllLengths)
{
    Random rng(0xc3c1);
    std::vector<std::uint8_t> buf(4096 + 64);
    for (auto &b : buf) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    // Lengths sweep the kernel-internal thresholds (16-byte folds,
    // the 64-byte fold cutover, sub-16 B tails, Fig. 12c's 12 B and
    // 192 B mabs) and offsets force every load alignment.
    for (std::size_t len : {std::size_t{0}, std::size_t{1},
                            std::size_t{7}, std::size_t{8},
                            std::size_t{12}, std::size_t{15},
                            std::size_t{16}, std::size_t{48},
                            std::size_t{63}, std::size_t{64},
                            std::size_t{65}, std::size_t{127},
                            std::size_t{192}, std::size_t{256},
                            std::size_t{1023}, std::size_t{4096}}) {
        for (std::size_t off : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{7}}) {
            EXPECT_EQ(Crc32::compute(buf.data() + off, len),
                      ~crc32Reference(0xffffffffu, buf.data() + off,
                                      len))
                << "len=" << len << " off=" << off;
        }
    }
}

TEST(CrcEquivalence, Crc32IncrementalSplitsMatchOneShot)
{
    Random rng(0xc3c2);
    std::vector<std::uint8_t> buf(777);
    for (auto &b : buf) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    const std::uint32_t want =
        ~crc32Reference(0xffffffffu, buf.data(), buf.size());
    // Chain the dispatched update() and the raw reference step
    // through the same random-sized chunks.
    Random split_rng(99);
    Crc32 crc;
    std::uint32_t state = 0xffffffffu;
    std::size_t pos = 0;
    while (pos < buf.size()) {
        const std::size_t n = std::min<std::size_t>(
            1 + split_rng.next() % 100, buf.size() - pos);
        crc.update(buf.data() + pos, n);
        state = crc32Reference(state, buf.data() + pos, n);
        pos += n;
    }
    EXPECT_EQ(crc.digest(), want);
    EXPECT_EQ(~state, want);
    EXPECT_EQ(Crc32::compute(buf.data(), buf.size()), want);
}

TEST(CrcEquivalence, Crc16SlicedMatchesReference)
{
    Random rng(0xc3c3);
    std::vector<std::uint8_t> buf(1024 + 8);
    for (auto &b : buf) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    for (std::size_t len : {std::size_t{0}, std::size_t{1},
                            std::size_t{2}, std::size_t{3},
                            std::size_t{9}, std::size_t{48},
                            std::size_t{255}, std::size_t{1024}}) {
        for (std::size_t off : {std::size_t{0}, std::size_t{1},
                                std::size_t{5}}) {
            EXPECT_EQ(crc16Step(true, 0xffffu, buf.data() + off, len),
                      crc16Step(false, 0xffffu, buf.data() + off,
                                len))
                << "len=" << len << " off=" << off;
        }
    }
}

TEST(Crc16, CheckValue)
{
    // CRC-16/CCITT-FALSE check value.
    EXPECT_EQ(Crc16::compute(kNineDigits, 9), 0x29b1u);
}

TEST(Crc16, EmptyInputIsInit)
{
    EXPECT_EQ(Crc16::compute("", 0), 0xffffu);
}

TEST(Crc16, IncrementalMatchesOneShot)
{
    const std::string data = "co-mach auxiliary digest";
    Crc16 crc;
    crc.update(data.data(), 10);
    crc.update(data.data() + 10, data.size() - 10);
    EXPECT_EQ(crc.digest(), Crc16::compute(data.data(), data.size()));
}

TEST(Md5, Rfc1321Vectors)
{
    EXPECT_EQ(Md5::toHex(Md5::compute("", 0)),
              "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(Md5::toHex(Md5::compute("a", 1)),
              "0cc175b9c0f1b6a831c399e269772661");
    EXPECT_EQ(Md5::toHex(Md5::compute("abc", 3)),
              "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(Md5::toHex(Md5::compute("message digest", 14)),
              "f96b697d7cb7938d525a2f31aaf161d0");
    EXPECT_EQ(
        Md5::toHex(Md5::compute("abcdefghijklmnopqrstuvwxyz", 26)),
        "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, LongInputCrossesBlocks)
{
    const std::string s(1000, 'x');
    Md5 one;
    one.update(s.data(), s.size());
    Md5 split;
    split.update(s.data(), 63);
    split.update(s.data() + 63, 64);
    split.update(s.data() + 127, s.size() - 127);
    EXPECT_EQ(one.digest(), split.digest());
}

TEST(Md5, Compute32UsesLeadingBytes)
{
    const auto full = Md5::compute("abc", 3);
    const std::uint32_t d32 = Md5::compute32("abc", 3);
    EXPECT_EQ(d32 & 0xffu, full[0]);
    EXPECT_EQ((d32 >> 24) & 0xffu, full[3]);
}

TEST(Sha1, FipsVectors)
{
    EXPECT_EQ(Sha1::toHex(Sha1::compute("abc", 3)),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(Sha1::toHex(Sha1::compute("", 0)),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    const std::string two_blocks =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    EXPECT_EQ(Sha1::toHex(Sha1::compute(two_blocks.data(),
                                        two_blocks.size())),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs)
{
    Sha1 sha;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) {
        sha.update(chunk.data(), chunk.size());
    }
    EXPECT_EQ(Sha1::toHex(sha.digest()),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Hasher, Digest32MatchesUnderlying)
{
    const char *data = "gradient block";
    const std::size_t len = std::strlen(data);
    EXPECT_EQ(digest32(HashKind::kCrc32, data, len),
              Crc32::compute(data, len));
    EXPECT_EQ(digest32(HashKind::kMd5, data, len),
              Md5::compute32(data, len));
    EXPECT_EQ(digest32(HashKind::kSha1, data, len),
              Sha1::compute32(data, len));
}

TEST(Hasher, AuxDigestIsCrc16)
{
    EXPECT_EQ(auxDigest16(kNineDigits, 9), Crc16::compute(kNineDigits, 9));
}

/** Digest distribution: low index bits of CRC32 over random blocks
 * should spread across MACH sets (the paper checked all 32 bits are
 * usable for indexing). */
TEST(Hasher, LowBitsUniformAcrossSets)
{
    Random rng(42);
    std::vector<int> buckets(64, 0);
    const int n = 64 * 200;
    for (int i = 0; i < n; ++i) {
        std::uint8_t block[48];
        for (auto &b : block) {
            b = static_cast<std::uint8_t>(rng.next());
        }
        ++buckets[Crc32::compute(block, sizeof(block)) & 63u];
    }
    for (int i = 0; i < 64; ++i) {
        EXPECT_GT(buckets[i], 100) << "set " << i;
        EXPECT_LT(buckets[i], 320) << "set " << i;
    }
}

/** No 32-bit collisions expected among a few thousand random blocks
 * (the paper found CRC32 collisions rare: ~1 block in 200 frames). */
TEST(Hasher, CollisionsRareAtSmallScale)
{
    Random rng(7);
    std::set<std::uint32_t> seen;
    int collisions = 0;
    for (int i = 0; i < 20000; ++i) {
        std::uint8_t block[48];
        for (auto &b : block) {
            b = static_cast<std::uint8_t>(rng.next());
        }
        if (!seen.insert(Crc32::compute(block, sizeof(block))).second) {
            ++collisions;
        }
    }
    // Birthday bound: E[collisions] ~ 20000^2 / 2^33 ~ 0.05.
    EXPECT_LE(collisions, 2);
}

struct HashKindCase
{
    HashKind kind;
};

class AllHashes : public ::testing::TestWithParam<HashKind>
{
};

TEST_P(AllHashes, DeterministicAndContentSensitive)
{
    const HashKind kind = GetParam();
    std::vector<std::uint8_t> a(48, 1);
    std::vector<std::uint8_t> b(48, 2);
    EXPECT_EQ(digest32(kind, a.data(), a.size()),
              digest32(kind, a.data(), a.size()));
    EXPECT_NE(digest32(kind, a.data(), a.size()),
              digest32(kind, b.data(), b.size()));
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllHashes,
                         ::testing::Values(HashKind::kCrc32,
                                           HashKind::kMd5,
                                           HashKind::kSha1));

} // namespace
} // namespace vstream
