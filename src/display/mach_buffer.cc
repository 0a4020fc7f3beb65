#include "display/mach_buffer.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

MachBuffer::MachBuffer(std::uint32_t entries, std::uint32_t ways)
    : sets_(entries / ways), ways_(ways),
      store_(static_cast<std::size_t>(entries)),
      repl_(sets_, ways_)
{
    vs_assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0,
              "MACH buffer set count must be a power of two");
}

MachBuffer::Entry &
MachBuffer::entry(std::uint32_t set, std::uint32_t way)
{
    return store_[static_cast<std::size_t>(set) * ways_ + way];
}

std::uint32_t
MachBuffer::setOf(std::uint32_t digest) const
{
    return digest & (sets_ - 1);
}

std::span<std::uint8_t>
MachBuffer::blockBytes(std::uint32_t block)
{
    return {arena_.data() + static_cast<std::size_t>(block) * block_bytes_,
            block_bytes_};
}

std::span<const std::uint8_t>
MachBuffer::lookup(std::uint32_t digest)
{
    const std::uint32_t set = setOf(digest);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &e = entry(set, w);
        if (e.block != kInvalid && e.digest == digest) {
            ++hits_;
            repl_.touch(set, w);
            return blockBytes(e.block);
        }
    }
    ++misses_;
    return {};
}

void
MachBuffer::insert(std::uint32_t digest, std::span<const std::uint8_t> block)
{
    if (block_bytes_ == 0) {
        block_bytes_ = static_cast<std::uint32_t>(block.size());
        arena_.reserve(store_.size() * block_bytes_);
    }
    vs_assert(!block.empty() && block.size() == block_bytes_,
              "MACH buffer block size changed between inserts");
    const std::uint32_t set = setOf(digest);

    // Refresh an existing entry in place.
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &e = entry(set, w);
        if (e.block != kInvalid && e.digest == digest) {
            std::ranges::copy(block, blockBytes(e.block).begin());
            repl_.touch(set, w);
            return;
        }
    }

    std::uint32_t way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (entry(set, w).block == kInvalid) {
            way = w;
            break;
        }
    }
    if (way == ways_) {
        way = repl_.victim(set);
    }

    Entry &e = entry(set, way);
    if (e.block == kInvalid) {
        // First fill: the entry takes the next arena block, within
        // the capacity reserved above.
        e.block = static_cast<std::uint32_t>(arena_.size() / block_bytes_);
        arena_.insert(arena_.end(), block.begin(), block.end());
    } else {
        // The LRU victim's block now holds the new one.
        std::ranges::copy(block, blockBytes(e.block).begin());
    }
    e.digest = digest;
    repl_.touch(set, way);
    ++inserts_;
}

void
MachBuffer::regStats(StatsRegistry &r, const std::string &prefix) const
{
    r.addCallback(prefix + ".hits", "digest records served here",
                  [this] { return static_cast<double>(hits_); });
    r.addCallback(prefix + ".misses", "digest records resolved via DRAM",
                  [this] { return static_cast<double>(misses_); });
    r.addCallback(prefix + ".inserts", "blocks installed",
                  [this] { return static_cast<double>(inserts_); });
}

} // namespace vstream
