#include "core/frame_buffer_manager.hh"

#include <cstring>

#include "sim/logging.hh"

namespace vstream
{

FrameBufferManager::FrameBufferManager(MemorySystem &mem,
                                       std::uint32_t mab_count,
                                       std::uint32_t mab_bytes,
                                       std::uint64_t mach_dump_bytes)
    : mem_(mem),
      // Worst-case metadata: a 4 B pointer/digest stream and a 3 B
      // base stream (kept in disjoint halves with slack so the two
      // write-combining cursors never collide) plus the 1 bit/mab
      // pointer-vs-digest bitmap.
      meta_capacity_(static_cast<std::uint64_t>(mab_count) * 9 +
                     (mab_count + 7) / 8 + 128),
      data_capacity_(static_cast<std::uint64_t>(mab_count) * mab_bytes),
      mach_dump_capacity_(mach_dump_bytes)
{
}

BufferSlot &
FrameBufferManager::acquire(std::uint64_t frame_index)
{
    // The pool recycles the lowest-indexed free slot (preserving the
    // historical first-free scan order) or constructs a new one; the
    // make callback runs only on growth, so the DRAM regions are
    // allocated exactly once per slot.
    BufferSlot &slot = slots_.acquire([this] {
        BufferSlot fresh;
        fresh.arena.reserve(data_capacity_);
        fresh.meta_base = mem_.allocate(meta_capacity_, "fb.meta");
        fresh.data_base = mem_.allocate(data_capacity_, "fb.data");
        fresh.mach_dump_base =
            mach_dump_capacity_
                ? mem_.allocate(mach_dump_capacity_, "fb.machdump")
                : 0;
        fresh.meta_capacity = meta_capacity_;
        fresh.data_capacity = data_capacity_;
        fresh.mach_dump_capacity = mach_dump_capacity_;
        return fresh;
    });
    slot.in_use = true;
    slot.frame_index = frame_index;
    slot.arena.clear();
    slot.block_index.clear();
    return slot;
}

void
FrameBufferManager::release(std::uint64_t frame_index)
{
    for (std::size_t i = 0; i < slots_.allocated(); ++i) {
        BufferSlot &slot = slots_.at(i);
        if (slot.in_use && slot.frame_index == frame_index) {
            slot.in_use = false;
            slots_.release(slot);
            return;
        }
    }
}

BufferSlot *
FrameBufferManager::find(std::uint64_t frame_index)
{
    for (std::size_t i = 0; i < slots_.allocated(); ++i) {
        BufferSlot &slot = slots_.at(i);
        if (slot.in_use && slot.frame_index == frame_index) {
            return &slot;
        }
    }
    return nullptr;
}

const BufferSlot *
FrameBufferManager::find(std::uint64_t frame_index) const
{
    for (std::size_t i = 0; i < slots_.allocated(); ++i) {
        const BufferSlot &slot = slots_.at(i);
        if (slot.in_use && slot.frame_index == frame_index) {
            return &slot;
        }
    }
    return nullptr;
}

std::size_t
FrameBufferManager::slotIndexContaining(Addr addr) const
{
    const auto holds = [this, addr](std::size_t i) {
        const BufferSlot &slot = slots_.at(i);
        return addr >= slot.data_base &&
               addr < slot.data_base + slot.data_capacity;
    };
    // Blocks arrive in runs within one slot; data ranges are disjoint
    // and never move, so the last match is checked first.
    if (last_slot_ < slots_.allocated() && holds(last_slot_)) {
        return last_slot_;
    }
    for (std::size_t i = 0; i < slots_.allocated(); ++i) {
        if (holds(i)) {
            last_slot_ = i;
            return i;
        }
    }
    return slots_.allocated();
}

BufferSlot *
FrameBufferManager::slotContaining(Addr addr)
{
    const std::size_t i = slotIndexContaining(addr);
    return i < slots_.allocated() ? &slots_.at(i) : nullptr;
}

const BufferSlot *
FrameBufferManager::slotContaining(Addr addr) const
{
    const std::size_t i = slotIndexContaining(addr);
    return i < slots_.allocated() ? &slots_.at(i) : nullptr;
}

// vstream:hot
void
FrameBufferManager::storeBlock(Addr addr,
                               const std::vector<std::uint8_t> &bytes)
{
    BufferSlot *slot = slotContaining(addr);
    vs_assert(slot != nullptr,
              "block store outside any frame buffer: addr=", addr);
    const auto size = static_cast<std::uint32_t>(bytes.size());
    std::uint64_t *packed = slot->block_index.find(addr);
    if (packed != nullptr &&
        static_cast<std::uint32_t>(*packed) == size) {
        // Same-size overwrite: reuse the existing arena slab.
        std::memcpy(slot->arena.data() + (*packed >> 32), bytes.data(),
                    size);
        return;
    }
    const std::uint64_t off = slot->arena.size();
    slot->arena.insert(slot->arena.end(), bytes.begin(), bytes.end());
    const std::uint64_t entry = (off << 32) | size;
    if (packed != nullptr) {
        *packed = entry; // old slab becomes frame-local garbage
    } else {
        slot->block_index[addr] = entry;
    }
}

// vstream:hot
StoredBlock
FrameBufferManager::loadBlock(Addr addr) const
{
    const BufferSlot *slot = slotContaining(addr);
    if (slot == nullptr) {
        return {};
    }
    const std::uint64_t *packed = slot->block_index.find(addr);
    if (packed == nullptr) {
        return {};
    }
    return {slot->arena.data() + (*packed >> 32),
            static_cast<std::uint32_t>(*packed)};
}

std::uint32_t
FrameBufferManager::slotsInUse() const
{
    return static_cast<std::uint32_t>(slots_.stats().live);
}

std::uint64_t
FrameBufferManager::poolBytes() const
{
    return static_cast<std::uint64_t>(slots_.allocated()) *
           (meta_capacity_ + data_capacity_ + mach_dump_capacity_);
}

} // namespace vstream
