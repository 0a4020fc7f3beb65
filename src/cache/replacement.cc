#include "cache/replacement.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vstream
{

ReplacementState::ReplacementState(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), stamps_(static_cast<std::size_t>(sets) * ways, 0)
{
    vs_assert(sets > 0 && ways > 0, "empty replacement state");
}

std::uint64_t &
ReplacementState::stamp(std::uint32_t set, std::uint32_t way)
{
    return stamps_[static_cast<std::size_t>(set) * ways_ + way];
}

void
ReplacementState::touch(std::uint32_t set, std::uint32_t way)
{
    stamp(set, way) = ++clock_;
}

void
ReplacementState::copySet(std::uint32_t from, std::uint32_t to)
{
    std::copy_n(&stamp(from, 0), ways_, &stamp(to, 0));
}

std::uint32_t
ReplacementState::victim(std::uint32_t set)
{
    std::uint32_t best = 0;
    std::uint64_t best_stamp = stamp(set, 0);
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (stamp(set, w) < best_stamp) {
            best_stamp = stamp(set, w);
            best = w;
        }
    }
    return best;
}

} // namespace vstream
