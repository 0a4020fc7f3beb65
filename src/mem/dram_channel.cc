#include "mem/dram_channel.hh"

#include "sim/logging.hh"

namespace vstream
{

DramChannel::DramChannel(std::uint32_t ranks, std::uint32_t banks_per_rank)
    : banks_per_rank_(banks_per_rank),
      banks_(static_cast<std::size_t>(ranks) * banks_per_rank)
{
    vs_assert(!banks_.empty(), "channel with zero banks");
}

} // namespace vstream
