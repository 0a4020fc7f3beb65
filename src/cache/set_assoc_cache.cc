#include "cache/set_assoc_cache.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

namespace
{

std::uint32_t
log2u(std::uint64_t v)
{
    std::uint32_t bits = 0;
    while (v > 1) {
        v >>= 1;
        ++bits;
    }
    return bits;
}

} // namespace

SetAssocCache::SetAssocCache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg), sets_(cfg.numSets()),
      ways_(cfg.assoc), line_shift_(log2u(cfg.line_bytes)),
      set_shift_(log2u(sets_)),
      lines_(static_cast<std::size_t>(cfg.numLines())), mru_(sets_, 0),
      repl_(sets_, ways_)
{
    cfg_.validate();
}

Addr
SetAssocCache::lineAddr(std::uint32_t set, std::uint64_t tag) const
{
    return ((tag << set_shift_) | set) << line_shift_;
}

SetAssocCache::Line &
SetAssocCache::line(std::uint32_t set, std::uint32_t way)
{
    return lines_[static_cast<std::size_t>(set) * ways_ + way];
}

const SetAssocCache::Line &
SetAssocCache::line(std::uint32_t set, std::uint32_t way) const
{
    return lines_[static_cast<std::size_t>(set) * ways_ + way];
}

// vstream:allow(no-hotpath-alloc) appends into the caller's reused
// summary scratch; its vectors keep their capacity across accesses
bool
SetAssocCache::accessSlow(std::uint32_t set, std::uint64_t tag, MemOp op,
                          CacheAccessSummary &summary)
{
    ++mutations_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Line &l = line(set, w);
        if (l.valid && l.tag == tag) {
            repl_.touch(set, w);
            mru_[set] = w;
            if (op == MemOp::kWrite) {
                l.dirty = true;
            }
            return true;
        }
    }

    if (op == MemOp::kWrite && !cfg_.write_allocate) {
        // Streaming store: bypass, no state change.
        return false;
    }

    // Find an invalid way; otherwise evict the LRU victim.
    std::uint32_t victim_way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!line(set, w).valid) {
            victim_way = w;
            break;
        }
    }
    if (victim_way == ways_) {
        victim_way = repl_.victim(set);
        Line &v = line(set, victim_way);
        ++evictions_;
        if (v.dirty) {
            ++writebacks_;
            summary.writebacks.push_back(lineAddr(set, v.tag));
        }
    }

    Line &l = line(set, victim_way);
    l.valid = true;
    l.tag = tag;
    l.dirty = op == MemOp::kWrite;
    repl_.touch(set, victim_way);
    mru_[set] = victim_way;

    // A read miss fetches the line; so does an allocating write miss
    // (fetch-on-write).
    summary.fills.push_back(lineAddr(set, tag));
    return false;
}

CacheAccessSummary
SetAssocCache::access(Addr addr, std::uint32_t size, MemOp op)
{
    CacheAccessSummary summary;
    accessInto(addr, size, op, summary);
    return summary;
}

// vstream:hot
void
SetAssocCache::accessInto(Addr addr, std::uint32_t size, MemOp op,
                          CacheAccessSummary &summary)
{
    vs_assert(size > 0, "zero-size cache access");

    summary.writebacks.clear();
    summary.fills.clear();
    const Addr first = addr >> line_shift_;
    const Addr last = (addr + size - 1) >> line_shift_;
    const bool read = op == MemOp::kRead;
    if (read) {
        // Nothing but MRU-way hits since this region was last read,
        // when each of its lines was its set's MRU way: every line
        // hits the MRU way again, which changes no state.
        for (const RegionMemo &m : memo_) {
            if (m.first == first && m.last == last &&
                m.mutations == mutations_) {
                summary.lines = static_cast<std::uint32_t>(last - first + 1);
                summary.hits = summary.lines;
                summary.misses = 0;
                hits_ += summary.lines;
                ++memo_hits_;
                return;
            }
        }
    }
    std::uint32_t hits = 0;
    for (Addr ln = first; ln <= last; ++ln) {
        const std::uint32_t set = setOf(ln);
        const std::uint64_t tag = tagOf(ln);
        // MRU-way first: the common hit needs neither a scan nor a
        // replacement update (see mru_).
        Line &m = line(set, mru_[set]);
        if (m.valid && m.tag == tag) {
            if (op == MemOp::kWrite) {
                m.dirty = true;
            }
            ++hits;
        } else if (accessSlow(set, tag, op, summary)) {
            ++hits;
        }
    }
    summary.lines = static_cast<std::uint32_t>(last - first + 1);
    summary.hits = hits;
    summary.misses = summary.lines - hits;
    hits_ += summary.hits;
    misses_ += summary.misses;
    // A read leaves each of its lines as its set's MRU way, unless a
    // later line of the region maps to the same set.
    if (read && last - first < sets_) {
        memo_[memo_next_] = RegionMemo{first, last, mutations_};
        memo_next_ ^= 1;
    }
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr ln = addr >> line_shift_;
    const std::uint32_t set = setOf(ln);
    const std::uint64_t tag = tagOf(ln);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.tag == tag) {
            return true;
        }
    }
    return false;
}

void
SetAssocCache::invalidateAll()
{
    ++mutations_;
    for (auto &l : lines_) {
        l.valid = false;
        l.dirty = false;
    }
}

std::uint64_t
SetAssocCache::invalidateRange(Addr addr, std::uint64_t size)
{
    ++mutations_;
    if (size == 0) {
        return 0;
    }
    std::uint64_t invalidated = 0;
    const Addr first = addr >> line_shift_;
    const Addr last = (addr + size - 1) >> line_shift_;

    // For ranges larger than the cache, walking the cache itself is
    // cheaper than walking the address range.
    if (last - first + 1 >= lines_.size()) {
        for (std::uint32_t set = 0; set < sets_; ++set) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                Line &l = line(set, w);
                if (!l.valid) {
                    continue;
                }
                const Addr la = lineAddr(set, l.tag);
                if (la >= (first << line_shift_) &&
                    la <= (last << line_shift_)) {
                    l.valid = false;
                    l.dirty = false;
                    ++invalidated;
                }
            }
        }
        return invalidated;
    }

    for (Addr ln = first; ln <= last; ++ln) {
        const std::uint32_t set = setOf(ln);
        const std::uint64_t tag = tagOf(ln);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Line &l = line(set, w);
            if (l.valid && l.tag == tag) {
                l.valid = false;
                l.dirty = false;
                ++invalidated;
            }
        }
    }
    return invalidated;
}

std::vector<Addr>
SetAssocCache::flush()
{
    ++mutations_;
    std::vector<Addr> dirty_lines;
    for (std::uint32_t set = 0; set < sets_; ++set) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Line &l = line(set, w);
            if (l.valid && l.dirty) {
                dirty_lines.push_back(lineAddr(set, l.tag));
            }
            l.valid = false;
            l.dirty = false;
        }
    }
    writebacks_ += dirty_lines.size();
    return dirty_lines;
}

double
SetAssocCache::missRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) /
                       static_cast<double>(total)
                 : 0.0;
}

void
SetAssocCache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    writebacks_ = 0;
}

void
SetAssocCache::regStats(StatsRegistry &r) const
{
    r.addCallback(name_ + ".hits", "lines hit",
                  [this] { return static_cast<double>(hits_); });
    r.addCallback(name_ + ".misses", "lines missed",
                  [this] { return static_cast<double>(misses_); });
    r.addCallback(name_ + ".missRate", "misses / accesses",
                  [this] { return missRate(); });
    r.addCallback(name_ + ".evictions", "valid lines evicted",
                  [this] { return static_cast<double>(evictions_); });
    r.addCallback(name_ + ".writebacks", "dirty lines written back",
                  [this] { return static_cast<double>(writebacks_); });
}

} // namespace vstream
