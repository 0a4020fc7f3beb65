#include "video/frame.hh"

#include <cstring>
#include <utility>

#include "hash/crc.hh"
#include "sim/logging.hh"

namespace vstream
{

Frame::Frame(std::uint64_t index, FrameType type, std::uint32_t mabs_x,
             std::uint32_t mabs_y, std::uint32_t mab_dim)
{
    reinit(index, type, mabs_x, mabs_y, mab_dim);
    pixels_.assign(decodedBytes(), 0);
}

// vstream:hot
void
Frame::reinit(std::uint64_t index, FrameType type, std::uint32_t mabs_x,
              std::uint32_t mabs_y, std::uint32_t mab_dim)
{
    vs_assert(mabs_x > 0 && mabs_y > 0, "empty frame");
    index_ = index;
    type_ = type;
    mabs_x_ = mabs_x;
    mabs_y_ = mabs_y;
    mab_dim_ = mab_dim;
    complexity_ = 1.0;
    encoded_bytes_ = 0;
    has_checksum_ = false;
    view_pixels_ = nullptr;
    view_owner_.reset();
}

// vstream:hot
// vstream:allow(no-hotpath-alloc) sizes the owned plane on the first
// frame of a geometry; every later call copies into that storage
void
Frame::assignFlat(const std::uint8_t *pixels, std::uint32_t checksum)
{
    pixels_.resize(decodedBytes());
    std::memcpy(pixels_.data(), pixels, pixels_.size());
    view_pixels_ = nullptr;
    view_owner_.reset();
    checksum_ = checksum;
    has_checksum_ = true;
}

// vstream:hot
void
Frame::viewShared(std::shared_ptr<const void> owner,
                  const std::uint8_t *pixels, std::uint32_t checksum)
{
    vs_assert(pixels != nullptr, "shared view without a plane");
    view_owner_ = std::move(owner);
    view_pixels_ = pixels;
    checksum_ = checksum;
    has_checksum_ = true;
}

std::uint64_t
Frame::decodedBytes() const
{
    return static_cast<std::uint64_t>(mabCount()) * mabSizeBytes();
}

std::span<const std::uint8_t>
Frame::mabBytes(std::uint32_t i) const
{
    vs_assert(i < mabCount(), "mab index out of range");
    const std::uint32_t size = mabSizeBytes();
    return {planeData() + static_cast<std::size_t>(i) * size, size};
}

Pixel
Frame::mabBase(std::uint32_t i) const
{
    const std::uint8_t *p = mabBytes(i).data();
    return Pixel{p[0], p[1], p[2]};
}

void
Frame::makeOwned()
{
    if (view_pixels_ != nullptr) {
        pixels_.assign(view_pixels_, view_pixels_ + decodedBytes());
        view_pixels_ = nullptr;
        view_owner_.reset();
    }
    vs_assert(pixels_.size() == decodedBytes(),
              "frame has no content to modify");
}

void
Frame::setMab(std::uint32_t i, std::span<const std::uint8_t> bytes)
{
    vs_assert(i < mabCount(), "mab index out of range");
    vs_assert(bytes.size() == mabSizeBytes(),
              "mab byte count does not match the frame's mab size");
    // @p bytes may view the shared plane makeOwned() lets go of, or
    // this frame's own mab i.
    const std::shared_ptr<const void> keep = view_owner_;
    makeOwned();
    std::memmove(pixels_.data() + static_cast<std::size_t>(i) * bytes.size(),
                 bytes.data(), bytes.size());
    has_checksum_ = false;
}

std::uint32_t
Frame::contentChecksum() const
{
    if (has_checksum_) {
        return checksum_;
    }
    return Crc32::compute(planeData(), decodedBytes());
}

} // namespace vstream
