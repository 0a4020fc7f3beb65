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
 * losslessness end to end.
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
 * View of block bytes stored in a slot's arena.
 *
 * Valid until the next storeBlock() into the same slot (arena growth
 * may move the bytes); consume it before writing again.
 */
struct StoredBlock
{
    const std::uint8_t *data = nullptr;
    std::uint32_t size = 0;

    explicit operator bool() const { return data != nullptr; }
};

/** Where one stored block of a slot lives. */
struct BlockEntry
{
    /** Block address minus the slot's data_base. */
    std::uint32_t region_off = 0;
    /** Offset of the block's bytes in the slot's arena. */
    std::uint32_t arena_off = 0;
    std::uint32_t size = 0;
};

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
     * Simulated contents: blocks append into one frame-sized arena,
     * and the first block_count entries of blocks index them in
     * increasing region offset.  blocks is sized to the frame's mab
     * count when the slot is created; the writebacks store each block
     * once, in address order, so a store is an append that never
     * grows it.
     */
    std::vector<std::uint8_t> arena;
    std::vector<BlockEntry> blocks;
    std::size_t block_count = 0;
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
     * Record block bytes at @p addr in @p slot's data region.  Each
     * block of a frame is stored once, above the previous one (the
     * order both writebacks write in); anything else panics.
     */
    void storeBlock(BufferSlot &slot, Addr addr,
                    std::span<const std::uint8_t> bytes);

    /** Fetch block bytes at @p addr; empty view when nothing stored. */
    StoredBlock loadBlock(Addr addr) const;

    /**
     * View of the @p bytes stored from @p addr on, when the blocks
     * covering them sit back to back both in the slot's region and in
     * its arena (a linear frame's whole data region); empty view
     * otherwise.
     */
    StoredBlock loadRun(Addr addr, std::uint64_t bytes) const;

    /** Slots ever allocated (== peak simultaneous buffers). */
    std::uint32_t slotsAllocated() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    /** Total DRAM footprint of the pool, bytes. */
    std::uint64_t poolBytes() const;

  private:
    /** Entry of @p slot at region offset @p off, or nullptr. */
    const BlockEntry *findBlock(const BufferSlot &slot,
                                std::uint32_t off) const;

    /** Slot whose data region holds @p addr, or nullptr. */
    const BufferSlot *slotContaining(Addr addr) const;

    MemorySystem &mem_;
    std::uint32_t mab_count_;
    std::uint64_t meta_capacity_;
    std::uint64_t data_capacity_;
    /** off / mab size for every offset inside a slot's data. */
    ExactDivision mab_index_;
    std::uint64_t mach_dump_capacity_;
    /** Every slot ever made, in acquisition order; a deque, so
     * growth never moves a slot a caller holds. */
    std::deque<BufferSlot> slots_;
    /** Index of the last slotContaining() match (a lookup memo; it
     * changes no observable state). */
    mutable std::size_t last_slot_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CORE_FRAME_BUFFER_MANAGER_HH
