#include "mem/address_map.hh"

#include <utility>

#include "sim/logging.hh"

namespace vstream
{

std::uint32_t
AddressMap::log2OfPow2(std::uint64_t v)
{
    vs_assert(v != 0 && (v & (v - 1)) == 0, "value not a power of two");
    std::uint32_t bits = 0;
    while (v > 1) {
        v >>= 1;
        ++bits;
    }
    return bits;
}

AddressMap::AddressMap(const DramConfig &cfg)
{
    cfg.validate();
    burst_shift_ = log2OfPow2(cfg.bytesPerBurst());
    columns_per_row_ = cfg.row_bytes / cfg.bytesPerBurst();
    capacity_ = cfg.capacity_bytes;
    order_ = cfg.map_order;

    // A power-of-two field of n values is the mask n - 1.
    channel_.mask = cfg.channels - 1;
    column_.mask = columns_per_row_ - 1;
    bank_.mask = cfg.banks_per_rank - 1;
    rank_.mask = cfg.ranks_per_channel - 1;

    // Lay the sub-row fields out LSB-to-MSB above the burst offset;
    // the row always takes the remaining high bits.
    FieldPos *order[4] = {&channel_, &column_, &bank_, &rank_};
    switch (order_) {
      case AddrMapOrder::kRoRaBaCoCh:
        break;
      case AddrMapOrder::kRoRaBaChCo:
        std::swap(order[0], order[1]); // column, channel, bank, rank
        break;
      case AddrMapOrder::kRoRaCoBaCh:
        std::swap(order[1], order[2]); // channel, bank, column, rank
        break;
    }
    std::uint32_t shift = 0;
    for (FieldPos *f : order) {
        f->shift = shift;
        shift += log2OfPow2(std::uint64_t{f->mask} + 1);
    }
    row_shift_ = shift;
}

Addr
AddressMap::compose(const DramCoord &coord) const
{
    const auto put = [](std::uint32_t value, FieldPos f) {
        return static_cast<Addr>(value & f.mask) << f.shift;
    };
    const Addr a = (coord.row << row_shift_) | put(coord.rank, rank_) |
                   put(coord.bank, bank_) | put(coord.column, column_) |
                   put(coord.channel, channel_);
    return a << burst_shift_;
}

} // namespace vstream
