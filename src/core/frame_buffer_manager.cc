#include "core/frame_buffer_manager.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vstream
{

ExactDivision::ExactDivision(std::uint32_t d, std::uint64_t bound)
{
    vs_assert(d > 0, "division by zero (zero-byte mabs?)");
    vs_assert(bound <= (std::uint64_t{1} << 31), "exact division below ",
              bound, ": bound over 2^31");
    while ((std::uint64_t{1} << shift_) < bound * d) {
        ++shift_;
    }
    mul_ = ((std::uint64_t{1} << shift_) + d - 1) / d;
}

FrameBufferManager::FrameBufferManager(MemorySystem &mem,
                                       std::uint32_t mab_count,
                                       std::uint32_t mab_bytes,
                                       std::uint64_t mach_dump_bytes)
    : mem_(mem), mab_count_(mab_count),
      // Worst-case metadata: a 4 B pointer/digest stream and a 3 B
      // base stream (kept in disjoint halves with slack so the two
      // write-combining cursors never collide) plus the 1 bit/mab
      // pointer-vs-digest bitmap.
      meta_capacity_(static_cast<std::uint64_t>(mab_count) * 9 +
                     (mab_count + 7) / 8 + 128),
      data_capacity_(static_cast<std::uint64_t>(mab_count) * mab_bytes),
      mab_index_(mab_bytes, data_capacity_),
      mach_dump_capacity_(mach_dump_bytes)
{
}

BufferSlot &
FrameBufferManager::acquire(std::uint64_t frame_index)
{
    BufferSlot *slot = nullptr;
    for (BufferSlot &s : slots_) {
        if (!s.in_use) {
            slot = &s;
            break;
        }
    }
    if (slot == nullptr) {
        // Growth is the one place a slot is built: its DRAM regions
        // are allocated exactly once, and steady state recycles.
        slot = &slots_.emplace_back();
        slot->arena.reserve(data_capacity_);
        slot->blocks.resize(mab_count_);
        slot->meta_base = mem_.allocate(meta_capacity_, "fb.meta");
        slot->data_base = mem_.allocate(data_capacity_, "fb.data");
        slot->mach_dump_base =
            mach_dump_capacity_
                ? mem_.allocate(mach_dump_capacity_, "fb.machdump")
                : 0;
        slot->meta_capacity = meta_capacity_;
        slot->data_capacity = data_capacity_;
        slot->mach_dump_capacity = mach_dump_capacity_;
    }
    slot->in_use = true;
    slot->frame_index = frame_index;
    slot->arena.clear();
    slot->block_count = 0;
    return *slot;
}

void
FrameBufferManager::release(std::uint64_t frame_index)
{
    if (BufferSlot *slot = find(frame_index)) {
        slot->in_use = false;
    }
}

BufferSlot *
FrameBufferManager::find(std::uint64_t frame_index)
{
    for (BufferSlot &slot : slots_) {
        if (slot.in_use && slot.frame_index == frame_index) {
            return &slot;
        }
    }
    return nullptr;
}

const BufferSlot *
FrameBufferManager::slotContaining(Addr addr) const
{
    const auto holds = [addr](const BufferSlot &slot) {
        return addr >= slot.data_base &&
               addr < slot.data_base + slot.data_capacity;
    };
    // Blocks are read in runs within one slot; data ranges are
    // disjoint and never move, so the last match is checked first.
    if (last_slot_ < slots_.size() && holds(slots_[last_slot_])) {
        return &slots_[last_slot_];
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (holds(slots_[i])) {
            last_slot_ = i;
            return &slots_[i];
        }
    }
    return nullptr;
}

// vstream:hot
void
FrameBufferManager::storeBlock(BufferSlot &slot, Addr addr,
                               std::span<const std::uint8_t> bytes)
{
    vs_assert(addr >= slot.data_base &&
                  addr < slot.data_base + slot.data_capacity,
              "block store outside its frame buffer: addr=", addr);
    const auto off = static_cast<std::uint32_t>(addr - slot.data_base);
    const std::size_t n = slot.block_count;
    vs_assert(n < slot.blocks.size() &&
                  (n == 0 || slot.blocks[n - 1].region_off < off),
              "block stored out of order or past the mab count: offset ",
              off, " after ", n, " blocks");
    slot.blocks[n] = {off, static_cast<std::uint32_t>(slot.arena.size()),
                      static_cast<std::uint32_t>(bytes.size())};
    slot.block_count = n + 1;
    slot.arena.insert(slot.arena.end(), bytes.begin(), bytes.end());
}

// vstream:hot
const BlockEntry *
FrameBufferManager::findBlock(const BufferSlot &slot, std::uint32_t off) const
{
    const BlockEntry *begin = slot.blocks.data();
    const BlockEntry *end = begin + slot.block_count;
    // Blocks of a whole mab each sit at entry off / mab size (every
    // layout but the DCC-compacted one): try that before searching.
    const std::size_t direct = mab_index_(off);
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

std::uint64_t
FrameBufferManager::poolBytes() const
{
    return static_cast<std::uint64_t>(slots_.size()) *
           (meta_capacity_ + data_capacity_ + mach_dump_capacity_);
}

} // namespace vstream
