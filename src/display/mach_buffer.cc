#include "display/mach_buffer.hh"

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

const std::vector<std::uint8_t> *
MachBuffer::lookup(std::uint32_t digest)
{
    const std::uint32_t set = setOf(digest);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &e = entry(set, w);
        if (e.valid && e.digest == digest) {
            ++hits_;
            repl_.touch(set, w);
            return &e.block;
        }
    }
    ++misses_;
    return nullptr;
}

void
MachBuffer::insert(std::uint32_t digest,
                   const std::vector<std::uint8_t> &block)
{
    insert(digest, block.data(),
           static_cast<std::uint32_t>(block.size()));
}

void
MachBuffer::insert(std::uint32_t digest, const std::uint8_t *data,
                   std::uint32_t size)
{
    const std::uint32_t set = setOf(digest);

    // Refresh an existing entry in place.
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Entry &e = entry(set, w);
        if (e.valid && e.digest == digest) {
            e.block.assign(data, data + size);
            repl_.touch(set, w);
            return;
        }
    }

    std::uint32_t way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!entry(set, w).valid) {
            way = w;
            break;
        }
    }
    if (way == ways_) {
        way = repl_.victim(set);
    }

    Entry &e = entry(set, way);
    e.valid = true;
    e.digest = digest;
    e.block.assign(data, data + size);
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
