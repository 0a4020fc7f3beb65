#include "core/dcc.hh"

#include <algorithm>
#include <cstdlib>

namespace vstream
{

namespace
{

/** Bits needed to hold a signed value in [-256, 255]. */
std::uint32_t
signedBits(int v)
{
    if (v == 0)
        return 0;
    const unsigned mag = static_cast<unsigned>(std::abs(v));
    std::uint32_t bits = 0;
    while ((1u << bits) <= mag)
        ++bits;
    return bits + 1; // sign bit
}

} // namespace

DccResult
dccCompress(std::span<const std::uint8_t> block)
{
    const std::uint8_t *base = block.data();
    const std::size_t size = block.size();

    std::uint32_t bits_r = 0, bits_g = 0, bits_b = 0;
    for (std::size_t b = kBytesPerPixel; b < size; b += kBytesPerPixel) {
        bits_r = std::max(bits_r, signedBits(static_cast<int>(block[b]) -
                                             static_cast<int>(base[0])));
        bits_g = std::max(bits_g,
                          signedBits(static_cast<int>(block[b + 1]) -
                                     static_cast<int>(base[1])));
        bits_b = std::max(bits_b,
                          signedBits(static_cast<int>(block[b + 2]) -
                                     static_cast<int>(base[2])));
    }

    const auto n = static_cast<std::uint32_t>(size / kBytesPerPixel);
    const auto raw_bytes = static_cast<std::uint32_t>(size);
    const std::uint32_t header = 2;  // 3x 4-bit widths + mode flag
    const std::uint32_t payload_bits =
        (n - 1) * (bits_r + bits_g + bits_b);
    const std::uint32_t packed =
        header + kBytesPerPixel + (payload_bits + 7) / 8;

    DccResult result;
    if (packed < raw_bytes) {
        result.compressed = true;
        result.compressed_bytes = packed;
    } else {
        result.compressed = false;
        result.compressed_bytes = raw_bytes + 1;
    }
    return result;
}

} // namespace vstream
