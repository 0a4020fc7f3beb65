#include "hash/hasher.hh"

#include "hash/crc.hh"
#include "hash/md5.hh"
#include "hash/sha1.hh"
#include "sim/logging.hh"

namespace vstream
{

std::string
hashKindName(HashKind kind)
{
    switch (kind) {
      case HashKind::kCrc32:
        return "crc32";
      case HashKind::kMd5:
        return "md5";
      case HashKind::kSha1:
        return "sha1";
    }
    return "unknown";
}

std::uint32_t
digest32(HashKind kind, const void *data, std::size_t len)
{
    switch (kind) {
      case HashKind::kCrc32:
        return Crc32::compute(data, len);
      case HashKind::kMd5:
        return Md5::compute32(data, len);
      case HashKind::kSha1:
        return Sha1::compute32(data, len);
    }
    vs_panic("unreachable hash kind");
}

std::uint16_t
auxDigest16(const void *data, std::size_t len)
{
    return Crc16::compute(data, len);
}

// vstream:hot
void
digest32Batch(HashKind kind, const std::uint8_t *const *blocks,
              std::size_t block_len, std::size_t count,
              std::uint32_t *out)
{
    switch (kind) {
      case HashKind::kCrc32:
        crc32Batch(blocks, block_len, count, out);
        return;
      case HashKind::kMd5:
        for (std::size_t i = 0; i < count; ++i) {
            out[i] = Md5::compute32(blocks[i], block_len);
        }
        return;
      case HashKind::kSha1:
        for (std::size_t i = 0; i < count; ++i) {
            out[i] = Sha1::compute32(blocks[i], block_len);
        }
        return;
    }
    vs_panic("unreachable hash kind");
}

// vstream:hot
void
auxDigest16Batch(const std::uint8_t *const *blocks,
                 std::size_t block_len, std::size_t count,
                 std::uint16_t *out)
{
    crc16Batch(blocks, block_len, count, out);
}

} // namespace vstream
