/**
 * @file
 * One LPDDR3 channel: a set of banks sharing a data bus.
 */

#ifndef VSTREAM_MEM_DRAM_CHANNEL_HH
#define VSTREAM_MEM_DRAM_CHANNEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/dram_bank.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace vstream
{

/** Banks plus shared-bus occupancy for one channel. */
class DramChannel
{
  public:
    DramChannel(std::uint32_t ranks, std::uint32_t banks_per_rank);

    /** Bank object for (rank, bank). */
    DramBank &
    bank(std::uint32_t rank, std::uint32_t bank_idx)
    {
        return banks_[bankSlot(rank, bank_idx)];
    }
    const DramBank &
    bank(std::uint32_t rank, std::uint32_t bank_idx) const
    {
        return banks_[bankSlot(rank, bank_idx)];
    }

    /**
     * Occupy the bus for @p duration starting no earlier than
     * @p earliest.
     *
     * @return the tick the transfer completes.
     */
    Tick
    occupyBus(Tick earliest, Tick duration)
    {
        const Tick start = std::max(earliest, bus_free_at_);
        bus_free_at_ = start + duration;
        return bus_free_at_;
    }

    /** Move the bus-free tick @p d ticks later (see
     * DramBank::advance). */
    void advanceBus(Tick d) { bus_free_at_ += d; }

  private:
    std::size_t
    bankSlot(std::uint32_t rank, std::uint32_t bank_idx) const
    {
        const std::size_t idx =
            static_cast<std::size_t>(rank) * banks_per_rank_ + bank_idx;
        vs_assert(idx < banks_.size(), "bank index out of range");
        return idx;
    }

    std::uint32_t banks_per_rank_;
    std::vector<DramBank> banks_;
    Tick bus_free_at_ = 0;
};

} // namespace vstream

#endif // VSTREAM_MEM_DRAM_CHANNEL_HH
