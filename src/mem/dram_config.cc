#include "mem/dram_config.hh"

#include "sim/logging.hh"

namespace vstream
{

std::string
addrMapOrderName(AddrMapOrder order)
{
    switch (order) {
      case AddrMapOrder::kRoRaBaCoCh:
        return "RoRaBaCoCh";
      case AddrMapOrder::kRoRaBaChCo:
        return "RoRaBaChCo";
      case AddrMapOrder::kRoRaCoBaCh:
        return "RoRaCoBaCh";
    }
    return "?";
}

std::string
pagePolicyName(PagePolicy policy)
{
    switch (policy) {
      case PagePolicy::kOpenPage:
        return "open-page";
      case PagePolicy::kClosedPage:
        return "closed-page";
    }
    return "?";
}

std::uint32_t
DramConfig::bytesPerBurst() const
{
    return bus_width_bits / 8 * burst_length;
}

Tick
DramConfig::burstTime() const
{
    // Double data rate: burst_length beats take burst_length/2 clocks.
    return t_ck * (burst_length / 2);
}

std::uint64_t
DramConfig::rowsPerBank() const
{
    const std::uint64_t banks_total =
        static_cast<std::uint64_t>(channels) * ranks_per_channel *
        banks_per_rank;
    return capacity_bytes / (banks_total * row_bytes);
}

void
DramConfig::validate() const
{
    if (channels == 0 || ranks_per_channel == 0 || banks_per_rank == 0) {
        vs_fatal("DRAM geometry must be non-zero");
    }
    if ((row_bytes & (row_bytes - 1)) != 0) {
        vs_fatal("row_bytes must be a power of two");
    }
    if ((burst_length & (burst_length - 1)) != 0 || burst_length < 2) {
        vs_fatal("burst_length must be a power of two >= 2");
    }
    if ((channels & (channels - 1)) != 0) {
        vs_fatal("channel count must be a power of two");
    }
    if ((banks_per_rank & (banks_per_rank - 1)) != 0) {
        vs_fatal("banks_per_rank must be a power of two");
    }
    if (bytesPerBurst() == 0 || bytesPerBurst() > row_bytes) {
        vs_fatal("burst size incompatible with row size");
    }
    if (rowsPerBank() == 0) {
        vs_fatal("capacity too small for geometry");
    }
    if (capacity_bytes > (1ULL << 32)) {
        vs_fatal("capacity_bytes ", capacity_bytes,
                 " above 4 GiB: frame-buffer records hold 32-bit "
                 "addresses");
    }
}

} // namespace vstream
