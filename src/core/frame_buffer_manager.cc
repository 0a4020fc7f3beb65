#include "core/frame_buffer_manager.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace vstream
{

FrameBufferManager::FrameBufferManager(MemorySystem &mem,
                                       std::uint32_t mab_count,
                                       std::uint32_t mab_bytes,
                                       std::uint64_t mach_dump_bytes)
    : mem_(mem), mab_count_(mab_count), mab_bytes_(mab_bytes),
      // Worst-case metadata: a 4 B pointer/digest stream and a 3 B
      // base stream (kept in disjoint halves with slack so the two
      // write-combining cursors never collide) plus the 1 bit/mab
      // pointer-vs-digest bitmap.
      meta_capacity_(static_cast<std::uint64_t>(mab_count) * 9 +
                     (mab_count + 7) / 8 + 128),
      data_capacity_(static_cast<std::uint64_t>(mab_count) * mab_bytes),
      mach_dump_capacity_(mach_dump_bytes)
{
    vs_assert(mab_bytes_ > 0, "zero-byte mabs");
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
        fresh.blocks.resize(mab_count_);
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
    slot.block_count = 0;
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
                               std::span<const std::uint8_t> bytes)
{
    BufferSlot *slot = slotContaining(addr);
    vs_assert(slot != nullptr,
              "block store outside any frame buffer: addr=", addr);
    const auto off = static_cast<std::uint32_t>(addr - slot->data_base);
    const std::size_t n = slot->block_count;
    if (n == slot->blocks.size() ||
        (n > 0 && slot->blocks[n - 1].region_off >= off)) {
        storeOutOfOrder(*slot, off, bytes);
        return;
    }
    slot->blocks[n] = {off, static_cast<std::uint32_t>(slot->arena.size()),
                       static_cast<std::uint32_t>(bytes.size())};
    slot->block_count = n + 1;
    slot->arena.insert(slot->arena.end(), bytes.begin(), bytes.end());
}

// vstream:allow(no-hotpath-alloc) reached only by out-of-order or
// repeated stores, which the writebacks never make
void
FrameBufferManager::storeOutOfOrder(BufferSlot &slot, std::uint32_t off,
                                    std::span<const std::uint8_t> bytes)
{
    const auto size = static_cast<std::uint32_t>(bytes.size());
    const auto begin = slot.blocks.begin();
    const auto end = begin + static_cast<std::ptrdiff_t>(slot.block_count);
    const auto it = std::lower_bound(
        begin, end, off,
        [](const BlockEntry &e, std::uint32_t o) { return e.region_off < o; });
    const bool stored = it != end && it->region_off == off;
    if (stored && it->size == size) {
        // Same-size overwrite: reuse the existing arena slab.
        std::memcpy(slot.arena.data() + it->arena_off, bytes.data(), size);
        return;
    }
    const BlockEntry entry{off, static_cast<std::uint32_t>(slot.arena.size()),
                           size};
    slot.arena.insert(slot.arena.end(), bytes.begin(), bytes.end());
    if (stored) {
        *it = entry; // the old slab becomes frame-local garbage
        return;
    }
    // A new block below the last one: insert it in order, dropping
    // one unused tail entry if there is one.
    const bool spare = slot.block_count < slot.blocks.size();
    slot.blocks.insert(it, entry);
    if (spare) {
        slot.blocks.pop_back();
    }
    ++slot.block_count;
}

// vstream:hot
const BlockEntry *
FrameBufferManager::findBlock(const BufferSlot &slot, std::uint32_t off) const
{
    const BlockEntry *begin = slot.blocks.data();
    const BlockEntry *end = begin + slot.block_count;
    // Blocks of a whole mab each sit at entry off / mab size (every
    // layout but the DCC-compacted one): try that before searching.
    const std::size_t direct = off / mab_bytes_;
    if (direct < slot.block_count && begin[direct].region_off == off) {
        return begin + direct;
    }
    const BlockEntry *it = std::lower_bound(
        begin, end, off,
        [](const BlockEntry &e, std::uint32_t o) { return e.region_off < o; });
    return it != end && it->region_off == off ? it : nullptr;
}

// vstream:hot
StoredBlock
FrameBufferManager::loadBlock(Addr addr) const
{
    const BufferSlot *slot = slotContaining(addr);
    if (slot == nullptr) {
        return {};
    }
    const BlockEntry *e =
        findBlock(*slot, static_cast<std::uint32_t>(addr - slot->data_base));
    if (e == nullptr) {
        return {};
    }
    return {slot->arena.data() + e->arena_off, e->size};
}

// vstream:hot
StoredBlock
FrameBufferManager::loadRun(Addr addr, std::uint64_t bytes) const
{
    const BufferSlot *slot = slotContaining(addr);
    if (slot == nullptr) {
        return {};
    }
    const auto off = static_cast<std::uint32_t>(addr - slot->data_base);
    const BlockEntry *e = findBlock(*slot, off);
    if (e == nullptr) {
        return {};
    }
    const BlockEntry *end = slot->blocks.data() + slot->block_count;
    std::uint64_t covered = 0;
    for (const BlockEntry *b = e; b != end && covered < bytes; ++b) {
        if (b->region_off != off + covered ||
            b->arena_off != e->arena_off + covered) {
            return {};
        }
        covered += b->size;
    }
    if (covered != bytes) {
        return {};
    }
    return {slot->arena.data() + e->arena_off,
            static_cast<std::uint32_t>(bytes)};
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
