/**
 * @file
 * The MACH ring as one set-major table.
 *
 * A MachTable holds `slots` per-frame MACHs of the same geometry: a
 * digest-indexed, set-associative cache mapping macroblock digests to
 * the memory addresses of their (unique) data.  Slot cur is the MACH
 * of the frame being decoded; the frozen MACHs of the previous frames
 * sit in the slots before it, age a at slot (cur - a) mod slots.
 * MachArray keeps num_machs slots (the current frame plus seven frozen
 * ones by default); CO-MACH is a one-slot table with full 48-bit tags.
 *
 * Tags are indexed [set][slot][way], so one set's digests for every
 * live frame sit side by side and a lookup compares them all at once
 * (SSE2 where the compiler targets it, a scalar loop elsewhere), the
 * paper's parallel probe of the current and frozen MACHs.  Full
 * entries are then checked only in the frames whose digest matched,
 * newest first, which keeps the per-frame probe order exactly: the
 * first hit wins, and every aux mismatch met before it counts as a
 * detected collision.
 *
 * Entries carry the 32-bit primary digest as the tag, an optional
 * 16-bit auxiliary CRC16 (CO-MACH collision detection), the pointer
 * to the block in the frame buffer, and - simulation only - a copy of
 * the true block bytes so hash collisions can be counted exactly
 * (slot-major, so that arena grows one slot at a time while the ring
 * first fills, as a ring of separate caches would).  Inserts fill a set's first free way, so the valid ways of a (set,
 * slot) are always a prefix; only the current slot takes inserts and
 * keeps LRU stamps (nothing reads a frozen slot's before it is
 * recycled).
 */

#ifndef VSTREAM_CORE_MACH_TABLE_HH
#define VSTREAM_CORE_MACH_TABLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/mach_config.hh"
#include "mem/mem_request.hh"

namespace vstream
{

/** Result of probing a MachTable. */
struct MachProbe
{
    bool hit = false;
    /** Age of the slot that hit: 0 = the current frame's MACH. */
    std::uint32_t age = 0;
    Addr ptr = 0;
    /**
     * A tag matched but its CRC16 aux did not: a digest collision the
     * aux caught (CO-MACH), accumulated over every entry probed before
     * the hit.  Without CO-MACH the first tag match hits.
     */
    bool collision_detected = false;
    /** The hit's stored content differs from the probed block: a
     * collision the tag could not distinguish. */
    bool collision_undetected = false;
};

/** A ring of per-frame macroblock caches in one set-major table. */
class MachTable
{
  public:
    /**
     * @param cfg        hash geometry (ways) and CO-MACH mode
     * @param entries    entries per slot (a power-of-two set count)
     * @param slots      per-frame MACHs in the ring, >= 1
     * @param full_tags  compare aux (CRC16) as part of the tag
     */
    MachTable(const MachConfig &cfg, std::uint32_t entries,
              std::uint32_t slots, bool full_tags);

    /**
     * Probe the current slot, then the frozen ones newest to oldest,
     * for @p digest (and @p aux where it takes part).
     *
     * @param truth actual block bytes, for collision accounting.
     */
    MachProbe lookup(std::uint32_t digest, std::uint16_t aux,
                     std::span<const std::uint8_t> truth);

    /** Insert digest -> ptr into the current slot (evicting its LRU
     * way when the set is full). */
    void insert(std::uint32_t digest, std::uint16_t aux, Addr ptr,
                std::span<const std::uint8_t> truth);

    /**
     * Freeze the current slot and make the next one current,
     * recycling it: its entries are invalidated and its LRU state
     * cleared, storage kept.  With one slot this just clears it.
     */
    void advance();

    /** Frozen slots in use (at most slots - 1). */
    std::uint32_t history() const { return hist_; }

    /** Valid entries in the current slot. */
    std::uint32_t validCount() const { return slot_valid_[cur_]; }

    /** Visit the current slot's valid entries as fn(digest, ptr), set
     * by set and way by way (the order of its dumped image). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::uint32_t set = 0; set < sets_; ++set) {
            const std::size_t e0 = entryIndex(set, cur_, 0);
            const std::uint32_t n = fill_[fillIndex(set, cur_)];
            for (std::uint32_t w = 0; w < n; ++w) {
                fn(digests_[e0 + w], ptrs_[e0 + w]);
            }
        }
    }

  private:
    std::size_t
    entryIndex(std::uint32_t set, std::uint32_t slot,
               std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * set_stride_ +
               static_cast<std::size_t>(slot) * ways_ + way;
    }
    std::size_t
    fillIndex(std::uint32_t set, std::uint32_t slot) const
    {
        return static_cast<std::size_t>(set) * slots_ + slot;
    }
    std::uint32_t
    slotOfAge(std::uint32_t age) const
    {
        return cur_ >= age ? cur_ - age : cur_ + slots_ - age;
    }
    /** Truth bytes of (set, slot, way): slot-major, so the arena
     * grows a slot at a time as the ring first fills. */
    std::size_t
    truthOffset(std::uint32_t set, std::uint32_t slot,
                std::uint32_t way) const
    {
        return ((static_cast<std::size_t>(slot) * sets_ + set) * ways_ +
                way) *
               truth_stride_;
    }

    /** Bit e - set base of every entry of @p set holding @p digest,
     * valid or not (wide_ == false only). */
    std::uint64_t matchMask(std::uint32_t set, std::uint32_t digest) const;

    /** Check the tag-matched entry (set, age, way) against @p aux and
     * @p truth; true (with @p probe filled) when it is the hit. */
    bool checkEntry(std::uint32_t set, std::uint32_t age,
                    std::uint32_t way, std::uint16_t aux,
                    std::span<const std::uint8_t> truth,
                    MachProbe &probe);

    /** LRU stamps of the current slot. */
    void touch(std::uint32_t set, std::uint32_t way);
    std::uint32_t victim(std::uint32_t set) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t slots_;
    bool full_tags_;
    bool co_mach_;
    /** Entries per set, padded to whole 4-digest groups. */
    std::uint32_t set_stride_;
    /** More than 64 entries per set: no one-word match mask, the
     * lookup walks each slot's valid ways instead. */
    bool wide_;
    /** (1 << ways) - 1: one slot's bits of a match mask. */
    std::uint64_t way_mask_;

    std::uint32_t cur_ = 0;
    std::uint32_t hist_ = 0;
    /** Slots that have been current so far (the ring fills in slot
     * order before it wraps). */
    std::uint32_t slots_used_ = 1;

    // [set][slot][way], set_stride_ entries per set.
    std::vector<std::uint32_t> digests_;
    std::vector<std::uint16_t> auxes_;
    std::vector<Addr> ptrs_;
    /** Valid ways of every (set, slot): a prefix of this length. */
    std::vector<std::uint32_t> fill_;
    /** Per set: bit slot * ways + way set while that entry is valid
     * (narrow tables only). */
    std::vector<std::uint64_t> valid_;
    /** Valid entries per slot. */
    std::vector<std::uint32_t> slot_valid_;
    /** Fixed per-entry byte stride of the truth arena, learned from
     * the first insert (every block of a stream has the same size). */
    std::uint32_t truth_stride_ = 0;
    /** Truth bytes of every slot used so far, [slot][set][way]. */
    std::vector<std::uint8_t> truth_arena_;
    /** LRU stamps of the current slot, [set][way], and their clock. */
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CORE_MACH_TABLE_HH
