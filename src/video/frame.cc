#include "video/frame.hh"

#include <algorithm>
#include <cstring>

#include "hash/crc.hh"
#include "sim/logging.hh"

namespace vstream
{

Frame::Frame(std::uint64_t index, FrameType type, std::uint32_t mabs_x,
             std::uint32_t mabs_y, std::uint32_t mab_dim)
    : index_(index), type_(type), mabs_x_(mabs_x), mabs_y_(mabs_y),
      mab_dim_(mab_dim),
      mabs_(static_cast<std::size_t>(mabs_x) * mabs_y, Macroblock(mab_dim)),
      origins_(static_cast<std::size_t>(mabs_x) * mabs_y,
               MabOrigin::kUnique)
{
    vs_assert(mabs_x_ > 0 && mabs_y_ > 0, "empty frame");
}

// vstream:hot
// vstream:allow(no-hotpath-alloc) geometry changes only on the first
// call (or a profile switch); the steady-state path reuses storage
void
Frame::reinit(std::uint64_t index, FrameType type, std::uint32_t mabs_x,
              std::uint32_t mabs_y, std::uint32_t mab_dim)
{
    vs_assert(mabs_x > 0 && mabs_y > 0, "empty frame");
    index_ = index;
    type_ = type;
    if (mabs_x_ != mabs_x || mabs_y_ != mabs_y || mab_dim_ != mab_dim) {
        const std::size_t count =
            static_cast<std::size_t>(mabs_x) * mabs_y;
        mabs_.assign(count, Macroblock(mab_dim));
        origins_.assign(count, MabOrigin::kUnique);
        mabs_x_ = mabs_x;
        mabs_y_ = mabs_y;
        mab_dim_ = mab_dim;
    } else {
        std::fill(origins_.begin(), origins_.end(), MabOrigin::kUnique);
    }
    complexity_ = 1.0;
    encoded_bytes_ = 0;
    has_checksum_ = false;
}

// vstream:hot
void
Frame::assignFlat(const std::uint8_t *pixels, const MabOrigin *origins,
                  std::uint32_t checksum)
{
    const std::size_t size =
        static_cast<std::size_t>(mab_dim_) * mab_dim_ * kBytesPerPixel;
    for (Macroblock &m : mabs_) {
        std::memcpy(m.bytes().data(), pixels, size);
        pixels += size;
    }
    std::copy(origins, origins + origins_.size(), origins_.begin());
    checksum_ = checksum;
    has_checksum_ = true;
}

std::uint64_t
Frame::decodedBytes() const
{
    return static_cast<std::uint64_t>(mabCount()) * mab_dim_ * mab_dim_ *
           kBytesPerPixel;
}

const Macroblock &
Frame::mab(std::uint32_t i) const
{
    return mabs_.at(i);
}

Macroblock &
Frame::mab(std::uint32_t i)
{
    has_checksum_ = false;
    return mabs_.at(i);
}

const Macroblock &
Frame::mabAt(std::uint32_t x, std::uint32_t y) const
{
    vs_assert(x < mabs_x_ && y < mabs_y_, "mab coordinates out of range");
    return mabs_[static_cast<std::size_t>(y) * mabs_x_ + x];
}

std::uint32_t
Frame::contentChecksum() const
{
    if (has_checksum_) {
        return checksum_;
    }
    Crc32 crc;
    for (const auto &m : mabs_) {
        crc.update(m.bytes().data(), m.bytes().size());
    }
    return crc.digest();
}

} // namespace vstream
