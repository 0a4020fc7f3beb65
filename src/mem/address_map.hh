/**
 * @file
 * RoRaBaCoCh physical-address interleaving (paper Table 2).
 *
 * From most- to least-significant bits a physical address decomposes
 * as Row : Rank : Bank : Column : Channel, with the burst offset
 * below the channel bits.  Channel interleaving at burst granularity
 * spreads streaming traffic across both LPDDR3 channels.
 */

#ifndef VSTREAM_MEM_ADDRESS_MAP_HH
#define VSTREAM_MEM_ADDRESS_MAP_HH

#include <cstdint>

#include "mem/dram_config.hh"
#include "mem/mem_request.hh"

namespace vstream
{

/** Fully decomposed DRAM coordinates of an address. */
struct DramCoord
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    std::uint32_t column = 0;

    bool
    operator==(const DramCoord &o) const
    {
        return channel == o.channel && rank == o.rank && bank == o.bank &&
               row == o.row && column == o.column;
    }
};

/** Maps addresses to DRAM coordinates under a configurable
 * interleaving order (paper default: RoRaBaCoCh). */
class AddressMap
{
  public:
    explicit AddressMap(const DramConfig &cfg);

    /**
     * Decompose @p addr (wraps modulo capacity).  Defined here, so
     * the controller's per-burst loop and every other caller inline
     * it.
     */
    // vstream:hot
    DramCoord
    decompose(Addr addr) const
    {
        // Simulated allocations sit below capacity_, so the 64-bit
        // modulo is only paid by addresses that actually wrap.
        const Addr a =
            (addr < capacity_ ? addr : addr % capacity_) >> burst_shift_;

        DramCoord coord;
        coord.channel = static_cast<std::uint32_t>(a >> channel_.shift) &
                        channel_.mask;
        coord.column =
            static_cast<std::uint32_t>(a >> column_.shift) & column_.mask;
        coord.bank =
            static_cast<std::uint32_t>(a >> bank_.shift) & bank_.mask;
        coord.rank =
            static_cast<std::uint32_t>(a >> rank_.shift) & rank_.mask;
        coord.row = a >> row_shift_;
        return coord;
    }

    /** Recompose coordinates back to the canonical address (field
     * bits beyond a field's width are dropped). */
    Addr compose(const DramCoord &coord) const;

    /** Columns (bursts) per row. */
    std::uint32_t columnsPerRow() const { return columns_per_row_; }

    /**
     * Bytes covered by the fields below the column (the sub-column
     * stride): stepping an address by a multiple of it leaves every
     * sub-column field unchanged and only advances the column.
     */
    Addr subColumnBytes() const
    {
        return Addr{1} << (burst_shift_ + column_.shift);
    }

    /**
     * Bytes of one column span: an aligned range over which only the
     * column and the fields below it vary, so every address in it
     * maps to the same row of the same banks.
     */
    Addr spanBytes() const { return subColumnBytes() * columns_per_row_; }

    /**
     * Whether the channel takes the lowest burst-index bit, with at
     * least two channels (RoRaBaCoCh, RoRaCoBaCh): two bursts of a
     * line aligned to two bursts then differ only in the channel,
     * the second on the next one.
     */
    bool channelLowest() const
    {
        return channel_.shift == 0 && channel_.mask != 0;
    }

    /** Addresses at or above this wrap (see decompose()). */
    std::uint64_t capacity() const { return capacity_; }

    AddrMapOrder order() const { return order_; }

  private:
    /** Position of one sub-row field in the burst index. */
    struct FieldPos
    {
        std::uint32_t shift = 0;
        /** Zero for an absent field (e.g. rank with one rank). */
        std::uint32_t mask = 0;
    };

    static std::uint32_t log2OfPow2(std::uint64_t v);

    std::uint32_t burst_shift_;
    std::uint64_t capacity_;
    std::uint32_t columns_per_row_;
    AddrMapOrder order_ = AddrMapOrder::kRoRaBaCoCh;
    FieldPos channel_;
    FieldPos column_;
    FieldPos bank_;
    FieldPos rank_;
    /** The row takes every burst-index bit above the four fields. */
    std::uint32_t row_shift_ = 0;
};

} // namespace vstream

#endif // VSTREAM_MEM_ADDRESS_MAP_HH
