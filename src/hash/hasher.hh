/**
 * @file
 * Unified 32-bit digest interface over the hash family.
 *
 * MACH tags are 32 bits regardless of the hash studied (Fig. 12d);
 * MD5/SHA-1 digests are truncated, matching how the paper compares
 * the schemes at equal tag cost.
 */

#ifndef VSTREAM_HASH_HASHER_HH
#define VSTREAM_HASH_HASHER_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace vstream
{

/** Hash functions available for macroblock digests. */
enum class HashKind
{
    kCrc32,
    kMd5,
    kSha1,
};

/** Human-readable name ("crc32", "md5", "sha1"). */
std::string hashKindName(HashKind kind);

/** Compute the 32-bit digest of a buffer under the given hash. */
std::uint32_t digest32(HashKind kind, const void *data, std::size_t len);

/**
 * Compute the 16-bit auxiliary digest used by CO-MACH.
 *
 * Always CRC16-CCITT, independent of the primary hash, mirroring the
 * paper's 48-bit (CRC32 || CRC16) deep-hash construction.
 */
std::uint16_t auxDigest16(const void *data, std::size_t len);

/**
 * Whole-frame digest batch: digest @p count equal-length blocks in
 * one dispatch call.  CRC32 runs the PCLMUL fold when the CPU has
 * it and the bytewise table otherwise; MD5 and SHA-1 hoist the
 * per-mab kind switch out of the loop.  Each out[i] equals
 * digest32(kind, blocks[i], block_len) exactly.
 */
void digest32Batch(HashKind kind, const std::uint8_t *const *blocks,
                   std::size_t block_len, std::size_t count,
                   std::uint32_t *out);

/** Batched auxiliary digest: out[i] = auxDigest16(blocks[i], ...). */
void auxDigest16Batch(const std::uint8_t *const *blocks,
                      std::size_t block_len, std::size_t count,
                      std::uint16_t *out);

} // namespace vstream

#endif // VSTREAM_HASH_HASHER_HH
