/**
 * @file
 * Frame-buffer pool and simulated block store.
 *
 * Allocates per-frame buffer slots (metadata + data regions) out of
 * simulated DRAM, recycles them once a frame is both displayed and
 * outside the MACH reference window, and tracks the peak number of
 * simultaneously live buffers - the quantity behind the paper's
 * memory-capacity discussion (5.3x for 16-frame batching, Fig. 12a's
 * extra-buffer counts).
 *
 * The manager also plays the role of "what the bytes in DRAM are":
 * block contents written by the decoder are stored here so the
 * display model can reconstruct frames and the test suite can verify
 * losslessness end to end.  A slot holds the bytes and little else:
 * every stored block is one mab, appended to the slot's arena, and
 * the k-th block of a frame sits at k mabs into the arena.  On the
 * mab grid (every layout but DCC's) it also sits k mabs into the data
 * region, so a lookup is arithmetic; only a slot whose blocks left the
 * grid keeps one 4 B region offset per stored block.  Storing is the
 * one copy a block's bytes get, the VD's write to memory: readers (the
 * display, the tests) get spans of the arena, empty when nothing is
 * stored.
 */

#ifndef VSTREAM_CORE_FRAME_BUFFER_MANAGER_HH
#define VSTREAM_CORE_FRAME_BUFFER_MANAGER_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/framebuffer_layout.hh"
#include "mem/memory_system.hh"

namespace vstream
{

/**
 * One reusable frame-buffer slot: the DRAM regions of one decoded
 * frame, the frame's layout, and the bytes stored in it.  A slot (and
 * with it the layout's record and dump capacity) is recycled whole.
 */
struct BufferSlot
{
    Addr meta_base = 0;
    Addr data_base = 0;
    Addr mach_dump_base = 0;
    std::uint64_t meta_capacity = 0;
    std::uint64_t data_capacity = 0;
    std::uint64_t mach_dump_capacity = 0;
    bool in_use = false;
    std::uint64_t frame_index = 0;
    /**
     * Simulated contents: the frame's stored blocks, one mab each, in
     * the order (and so the increasing region offset) they were
     * stored; the k-th at k mabs.  Reserved to the data capacity when
     * the slot is made, so a store never grows it.
     */
    std::vector<std::uint8_t> arena;
    /**
     * Region offset of every stored block once one left the mab grid
     * (DCC packs unique blocks closer); empty while the k-th block
     * sits k mabs into the data region.
     */
    std::vector<std::uint32_t> packed;
    /** Where the held frame's mabs live; the writeback fills it. */
    FrameLayout layout;
};

/**
 * n / d for every n below a bound, as one multiply and shift.  With
 * 2^s >= bound * d and m = ceil(2^s / d) = (2^s + e) / d, e < d:
 * n * m / 2^s = n / d + n e / (d 2^s), and n e < bound * d <= 2^s,
 * so the excess stays under 1 / d and never carries the quotient
 * past floor(n / d).  The product stays below 2 bound^2, inside 64
 * bits for any bound up to 2^31.
 */
class ExactDivision
{
  public:
    ExactDivision(std::uint32_t d, std::uint64_t bound);

    std::uint32_t
    operator()(std::uint32_t n) const
    {
        return static_cast<std::uint32_t>((n * mul_) >> shift_);
    }

  private:
    std::uint64_t mul_ = 1;
    std::uint32_t shift_ = 0;
};

/** Pool of frame buffers plus the simulated block store. */
class FrameBufferManager
{
  public:
    /**
     * @param mem             owner of the simulated address space
     * @param mab_count       mabs per frame
     * @param mab_bytes       decoded bytes per mab
     * @param mach_dump_bytes capacity reserved for a MACH dump image
     */
    FrameBufferManager(MemorySystem &mem, std::uint32_t mab_count,
                       std::uint32_t mab_bytes,
                       std::uint64_t mach_dump_bytes);

    /**
     * Acquire a slot for @p frame_index: the lowest-indexed free slot,
     * or a new one when all are held.  The DRAM address assignment
     * (and with it every simulated timing) depends on this order.
     * The reference stays valid for the manager's lifetime.
     */
    BufferSlot &acquire(std::uint64_t frame_index);

    /** Release the slot holding @p frame_index (no-op if absent). */
    void release(std::uint64_t frame_index);

    /** Slot currently holding @p frame_index, or nullptr. */
    BufferSlot *find(std::uint64_t frame_index);

    /**
     * Slots made from now on expect stores off the mab grid (DCC):
     * each reserves its region-offset list when made, so no store
     * allocates.
     */
    void expectPackedStores();

    /**
     * Record one mab of block bytes at @p addr in @p slot's data
     * region.  Each block of a frame is stored once, above the
     * previous one (the order both writebacks write in); anything
     * else panics.
     */
    void storeBlock(BufferSlot &slot, Addr addr,
                    std::span<const std::uint8_t> bytes);

    /**
     * View of the block stored at @p addr; empty when nothing is.
     * Valid until the slot is acquired again: a slot's arena never
     * grows past the capacity reserved when it was made, so a later
     * storeBlock() moves no stored bytes.
     */
    std::span<const std::uint8_t> loadBlock(Addr addr) const;

    /**
     * View of the @p bytes stored from @p addr on, when the blocks
     * covering them sit back to back in the slot's region (a linear
     * frame's whole data region); empty otherwise.  Valid as long as
     * loadBlock()'s view.
     */
    std::span<const std::uint8_t> loadRun(Addr addr,
                                          std::uint64_t bytes) const;

    /** Slots ever allocated (== peak simultaneous buffers). */
    std::uint32_t slotsAllocated() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    /** Total DRAM footprint of the pool, bytes. */
    std::uint64_t poolBytes() const;

  private:
    static constexpr std::size_t kNoBlock = SIZE_MAX;

    /** Index of @p slot's block at region offset @p off, or
     * kNoBlock. */
    std::size_t blockAt(const BufferSlot &slot, std::uint32_t off) const;

    /** Slot whose data region holds @p addr, or nullptr. */
    const BufferSlot *slotContaining(Addr addr) const;

    MemorySystem &mem_;
    std::uint32_t mab_count_;
    std::uint32_t mab_bytes_;
    std::uint64_t meta_capacity_;
    std::uint64_t data_capacity_;
    /** n / mab size for every n up to a slot's data capacity. */
    ExactDivision mab_index_;
    std::uint64_t mach_dump_capacity_;
    /** Slots reserve their region-offset lists when made. */
    bool packed_stores_ = false;
    /** Every slot ever made, in acquisition order; a deque, so
     * growth never moves a slot a caller holds. */
    std::deque<BufferSlot> slots_;
    /** Index of the last slotContaining() match (a lookup memo; it
     * changes no observable state). */
    mutable std::size_t last_slot_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CORE_FRAME_BUFFER_MANAGER_HH
