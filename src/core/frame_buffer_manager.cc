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
    : mem_(mem), mab_count_(mab_count), mab_bytes_(mab_bytes),
      // Worst-case metadata: a 4 B pointer/digest stream and a 3 B
      // base stream (kept in disjoint halves with slack so the two
      // write-combining cursors never collide) plus the 1 bit/mab
      // pointer-vs-digest bitmap.
      meta_capacity_(static_cast<std::uint64_t>(mab_count) * 9 +
                     (mab_count + 7) / 8 + 128),
      data_capacity_(static_cast<std::uint64_t>(mab_count) * mab_bytes),
      mab_index_(mab_bytes, data_capacity_ + 1),
      mach_dump_capacity_(mach_dump_bytes)
{
}

void
FrameBufferManager::expectPackedStores()
{
    packed_stores_ = true;
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
        if (packed_stores_) {
            slot->packed.reserve(mab_count_);
        }
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
    slot->packed.clear();
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
// The region-offset list grows only in a slot made without
// expectPackedStores(); a DCC writeback's slots reserve it when made.
// vstream:allow(no-hotpath-alloc)
void
FrameBufferManager::storeBlock(BufferSlot &slot, Addr addr,
                               std::span<const std::uint8_t> bytes)
{
    vs_assert(addr >= slot.data_base &&
                  addr < slot.data_base + slot.data_capacity,
              "block store outside its frame buffer: addr=", addr);
    vs_assert(bytes.size() == mab_bytes_, "a stored block is one mab (",
              mab_bytes_, " B), not ", bytes.size(), " B");
    const auto off = static_cast<std::uint32_t>(addr - slot.data_base);
    // Arena offset of this block; region offset of the last one.
    const std::size_t next = slot.arena.size();
    const std::size_t last =
        slot.packed.empty() ? next - mab_bytes_ : slot.packed.back();
    vs_assert(next < slot.data_capacity && (next == 0 || last < off),
              "block stored out of order or past the mab count: offset ",
              off, " after ", next / mab_bytes_, " blocks");
    if (!slot.packed.empty() || off != next) {
        if (slot.packed.empty()) {
            // The first block off the mab grid: list the region
            // offsets of the blocks before it, which sat on it.
            for (std::size_t a = 0; a < next; a += mab_bytes_) {
                slot.packed.push_back(static_cast<std::uint32_t>(a));
            }
        }
        slot.packed.push_back(off);
    }
    slot.arena.insert(slot.arena.end(), bytes.begin(), bytes.end());
}

// vstream:hot
std::size_t
FrameBufferManager::blockAt(const BufferSlot &slot, std::uint32_t off) const
{
    if (slot.packed.empty()) {
        const std::uint32_t k = mab_index_(off);
        return off < slot.arena.size() && k * mab_bytes_ == off ? k
                                                                : kNoBlock;
    }
    const auto it =
        std::lower_bound(slot.packed.begin(), slot.packed.end(), off);
    return it != slot.packed.end() && *it == off
               ? static_cast<std::size_t>(it - slot.packed.begin())
               : kNoBlock;
}

// vstream:hot
std::span<const std::uint8_t>
FrameBufferManager::loadBlock(Addr addr) const
{
    const BufferSlot *slot = slotContaining(addr);
    if (slot == nullptr) {
        return {};
    }
    const std::size_t k =
        blockAt(*slot, static_cast<std::uint32_t>(addr - slot->data_base));
    if (k == kNoBlock) {
        return {};
    }
    return {slot->arena.data() + k * mab_bytes_, mab_bytes_};
}

// vstream:hot
std::span<const std::uint8_t>
FrameBufferManager::loadRun(Addr addr, std::uint64_t bytes) const
{
    const BufferSlot *slot = slotContaining(addr);
    if (slot == nullptr) {
        return {};
    }
    const auto off = static_cast<std::uint32_t>(addr - slot->data_base);
    const std::size_t k = blockAt(*slot, off);
    if (k == kNoBlock || bytes > slot->arena.size() - k * mab_bytes_) {
        return {};
    }
    // Whole blocks only; on the grid they sit back to back in the
    // region as in the arena, off it each offset must say so.
    const std::uint32_t n = mab_index_(static_cast<std::uint32_t>(bytes));
    if (static_cast<std::uint64_t>(n) * mab_bytes_ != bytes) {
        return {};
    }
    for (std::uint32_t j = 1; j < n && !slot->packed.empty(); ++j) {
        if (slot->packed[k + j] != off + j * mab_bytes_) {
            return {};
        }
    }
    return {slot->arena.data() + k * mab_bytes_, bytes};
}

std::uint64_t
FrameBufferManager::poolBytes() const
{
    return static_cast<std::uint64_t>(slots_.size()) *
           (meta_capacity_ + data_capacity_ + mach_dump_capacity_);
}

} // namespace vstream
