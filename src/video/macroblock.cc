#include "video/macroblock.hh"

#include <utility>

#include "sim/logging.hh"

namespace vstream
{

Macroblock::Macroblock(std::uint32_t dim)
    : dim_(dim), bytes_(static_cast<std::size_t>(dim) * dim * kBytesPerPixel,
                        0)
{
    vs_assert(dim_ > 0, "zero-dimension macroblock");
}

Macroblock::Macroblock(std::uint32_t dim, std::vector<std::uint8_t> bytes)
    : dim_(dim), bytes_(std::move(bytes))
{
    vs_assert(bytes_.size() ==
                  static_cast<std::size_t>(dim_) * dim_ * kBytesPerPixel,
              "macroblock byte count does not match dimension");
}

// vstream:hot
// vstream:allow(no-hotpath-alloc) assign reuses capacity; it grows
// only the first time a scratch block sees this dimension
void
Macroblock::assignBytes(std::uint32_t dim, const std::uint8_t *data,
                        std::size_t len)
{
    vs_assert(len == static_cast<std::size_t>(dim) * dim * kBytesPerPixel,
              "macroblock byte count does not match dimension");
    dim_ = dim;
    bytes_.assign(data, data + len);
}

} // namespace vstream
