#include "video/macroblock.hh"

#include <utility>

#include "sim/logging.hh"
#include "video/pixel_kernels.hh"

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

Pixel
Macroblock::pixel(std::uint32_t i) const
{
    vs_assert(i < pixelCount(), "pixel index out of range");
    const std::size_t off = static_cast<std::size_t>(i) * kBytesPerPixel;
    return Pixel{bytes_[off], bytes_[off + 1], bytes_[off + 2]};
}

void
Macroblock::setPixel(std::uint32_t i, const Pixel &p)
{
    vs_assert(i < pixelCount(), "pixel index out of range");
    const std::size_t off = static_cast<std::size_t>(i) * kBytesPerPixel;
    bytes_[off] = p.r;
    bytes_[off + 1] = p.g;
    bytes_[off + 2] = p.b;
}

void
Macroblock::fill(const Pixel &p)
{
    for (std::uint32_t i = 0; i < pixelCount(); ++i) {
        setPixel(i, p);
    }
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

// vstream:hot
void
Macroblock::addBase(const Pixel &p)
{
    // Exact-alias add: the kernels load each chunk before storing it,
    // so src == dst is safe.
    gradientAdd(bytes_.data(), bytes_.data(), bytes_.size(), p);
}

std::uint32_t
Macroblock::digest(HashKind kind) const
{
    return digest32(kind, bytes_.data(), bytes_.size());
}

Macroblock
Macroblock::gradient() const
{
    Macroblock gab(dim_);
    gradientInto(gab);
    return gab;
}

// vstream:hot
// vstream:allow(no-hotpath-alloc) sizes caller scratch once; the
// resize is a no-op on every later frame (callers keep the scratch)
void
Macroblock::gradientInto(Macroblock &out) const
{
    out.dim_ = dim_;
    out.bytes_.resize(bytes_.size());
    // One wrap-around subtract per byte with the channel base cycling
    // r,g,b - dispatched to the startup-selected SIMD kernel.
    gradientSub(out.bytes_.data(), bytes_.data(), bytes_.size(),
                base());
}

std::uint32_t
Macroblock::gradientDigest(HashKind kind) const
{
    return gradient().digest(kind);
}

Macroblock
Macroblock::fromGradient(const Macroblock &gab, const Pixel &p)
{
    Macroblock mab(gab.dim_);
    gradientAdd(mab.bytes_.data(), gab.bytes_.data(), gab.bytes_.size(),
                p);
    return mab;
}

Macroblock
Macroblock::shifted(std::uint8_t dr, std::uint8_t dg, std::uint8_t db) const
{
    Macroblock out(dim_);
    gradientAdd(out.bytes_.data(), bytes_.data(), bytes_.size(),
                Pixel{dr, dg, db});
    return out;
}

bool
Macroblock::operator==(const Macroblock &o) const
{
    return dim_ == o.dim_ && blockEqual(bytes_, o.bytes_);
}

} // namespace vstream
