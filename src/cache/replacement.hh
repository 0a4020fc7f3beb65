/**
 * @file
 * LRU victim selection for one cache set.
 */

#ifndef VSTREAM_CACHE_REPLACEMENT_HH
#define VSTREAM_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <vector>

namespace vstream
{

/**
 * Per-way LRU stamps for victim selection.
 *
 * One instance serves all sets of a cache; callers pass the slice of
 * way-state for the set being operated on.
 */
class ReplacementState
{
  public:
    ReplacementState(std::uint32_t sets, std::uint32_t ways);

    /** Note a hit on, or a fill into, (set, way): it becomes the
     * set's most recently used way. */
    void touch(std::uint32_t set, std::uint32_t way);

    /** Choose the victim way in @p set (all ways assumed valid). */
    std::uint32_t victim(std::uint32_t set);

    /** Give set @p to the stamps of set @p from (its victim order). */
    void copySet(std::uint32_t from, std::uint32_t to);

    /** Stamp of (set, way): a larger stamp is more recently used. */
    std::uint64_t stampOf(std::uint32_t set, std::uint32_t way) const
    {
        return stamps_[static_cast<std::size_t>(set) * ways_ + way];
    }

  private:
    std::uint64_t &stamp(std::uint32_t set, std::uint32_t way);

    std::uint32_t ways_;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CACHE_REPLACEMENT_HH
