#include "cache/set_assoc_cache.hh"

#include <algorithm>
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

SetAssocCache::SetAssocCache(std::string name, const CacheConfig &cfg,
                             std::uint32_t region_lines)
    : name_(std::move(name)), cfg_(cfg), sets_(cfg.numSets()),
      ways_(cfg.assoc), line_shift_(log2u(cfg.line_bytes)),
      set_shift_(log2u(sets_)),
      lines_(static_cast<std::size_t>(cfg.numLines())), mru_(sets_, 0),
      repl_(sets_, ways_), region_(region_lines),
      region_shift_(log2u(region_lines)),
      region_byte_mask_((Addr{region_lines} << line_shift_) - 1)
{
    cfg_.validate();
    vs_assert(region_ > 0 && (region_ & (region_ - 1)) == 0 &&
                  region_ <= sets_,
              "cache region of ", region_,
              " lines must be a power of two no larger than ", sets_,
              " sets");
    lockstep_.assign(sets_ >> region_shift_, 1);
    changed_.assign(lockstep_.size(), 0);
}

Addr
SetAssocCache::lineAddr(std::uint32_t set, std::uint64_t tag) const
{
    return ((tag << set_shift_) | set) << line_shift_;
}

// vstream:allow(no-hotpath-alloc) appends into the caller's reused
// summary scratch; its vectors keep their capacity across accesses
bool
SetAssocCache::accessSlow(std::uint32_t set, std::uint64_t tag,
                          CacheAccessSummary &summary, std::uint32_t span)
{
    // A hit off the MRU way reorders the set, a miss fills it.
    changed_[set >> region_shift_] = 1;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.tag == tag) {
            repl_.touch(set, w);
            mru_[set] = w;
            return true;
        }
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
        evictions_ += span;
    }

    Line &l = line(set, victim_way);
    l.valid = true;
    l.tag = tag;
    repl_.touch(set, victim_way);
    mru_[set] = victim_way;

    const Addr fill = lineAddr(set, tag);
    for (std::uint32_t i = 0; i < span; ++i) {
        summary.fills.push_back(fill + (Addr{i} << line_shift_));
    }
    return false;
}

void
SetAssocCache::copyOut(std::uint32_t group)
{
    const std::uint32_t base = group << region_shift_;
    const auto from = lines_.begin() +
                      static_cast<std::ptrdiff_t>(base) * ways_;
    for (std::uint32_t set = base + 1; set < base + region_; ++set) {
        std::copy(from, from + ways_, &line(set, 0));
        mru_[set] = mru_[base];
        repl_.copySet(base, set);
    }
    lockstep_[group] = 0;
    changed_[group] = 1;
    ++copy_outs_;
}

bool
SetAssocCache::groupAgrees(std::uint32_t group) const
{
    // The MRU way needs no comparison: when valid it is the set's
    // newest valid way, which the LRU order already fixes, and when
    // invalid nothing reads it before the next touch resets it.
    // Invalid ways' stamps are never read either: victim() runs only
    // on a full set, and a fill takes a fresh stamp.
    const std::uint32_t base = group << region_shift_;
    for (std::uint32_t set = base + 1; set < base + region_; ++set) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Line &a = line(base, w);
            const Line &b = line(set, w);
            if (a.valid != b.valid ||
                (a.valid && a.tag != b.tag)) {
                return false;
            }
        }
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!line(base, w).valid) {
                continue;
            }
            for (std::uint32_t v = w + 1; v < ways_; ++v) {
                if (line(base, v).valid &&
                    (repl_.stampOf(base, w) < repl_.stampOf(base, v)) !=
                        (repl_.stampOf(set, w) < repl_.stampOf(set, v))) {
                    return false;
                }
            }
        }
    }
    return true;
}

CacheAccessSummary
SetAssocCache::access(Addr addr, std::uint32_t size)
{
    CacheAccessSummary summary;
    accessInto(addr, size, summary);
    return summary;
}

// vstream:hot
void
SetAssocCache::accessInto(Addr addr, std::uint32_t size,
                          CacheAccessSummary &summary)
{
    vs_assert(size > 0, "zero-size cache access");

    summary.fills.clear();
    const Addr first = addr >> line_shift_;
    const Addr last = (addr + size - 1) >> line_shift_;
    std::uint32_t hits = 0;
    // One region (or the part of it inside the access) at a time: its
    // lines share a tag and fall in consecutive sets of one group.
    for (Addr ln = first; ln <= last;) {
        const Addr end = std::min(last, ln | (region_ - 1));
        const auto n = static_cast<std::uint32_t>(end - ln + 1);
        const std::uint32_t set = setOf(ln);
        const std::uint32_t group = set >> region_shift_;
        const std::uint64_t tag = tagOf(ln);
        if (n == region_ && lockstep_[group]) {
            ++lockstep_accesses_;
            if (accessSet(set, tag, summary, region_)) {
                hits += region_;
            }
        } else {
            if (lockstep_[group]) {
                copyOut(group);
            }
            for (std::uint32_t i = 0; i < n; ++i) {
                if (accessSet(set + i, tag, summary, 1)) {
                    ++hits;
                }
            }
            // Sets that disagreed when last compared still do unless
            // one of them changed since.
            if (n == region_ && changed_[group]) {
                changed_[group] = 0;
                lockstep_[group] = groupAgrees(group) ? 1 : 0;
            }
        }
        ln = end + 1;
    }
    summary.lines = static_cast<std::uint32_t>(last - first + 1);
    summary.hits = hits;
    summary.misses = summary.lines - hits;
    hits_ += summary.hits;
    misses_ += summary.misses;
}

bool
SetAssocCache::holdsTag(std::uint32_t set, std::uint64_t tag) const
{
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.tag == tag) {
            return true;
        }
    }
    return false;
}

std::uint32_t
SetAssocCache::clearTag(std::uint32_t set, std::uint64_t tag)
{
    std::uint32_t cleared = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        Line &l = line(set, w);
        if (l.valid && l.tag == tag) {
            l.valid = false;
            ++cleared;
        }
    }
    return cleared;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr ln = addr >> line_shift_;
    std::uint32_t set = setOf(ln);
    if (lockstep_[set >> region_shift_]) {
        set &= ~(region_ - 1); // the group's first set holds its state
    }
    return holdsTag(set, tagOf(ln));
}

void
SetAssocCache::invalidateAll()
{
    for (auto &l : lines_) {
        l.valid = false;
    }
    std::fill(lockstep_.begin(), lockstep_.end(), 1);
}

std::uint64_t
SetAssocCache::invalidateRange(Addr addr, std::uint64_t size)
{
    if (size == 0) {
        return 0;
    }
    std::uint64_t invalidated = 0;
    const Addr first = addr >> line_shift_;
    const Addr last = (addr + size - 1) >> line_shift_;
    const Addr region_mask = Addr{region_} - 1;

    // For ranges larger than the cache, walking the cache itself is
    // cheaper than walking the address range.
    if (last - first + 1 >= lines_.size()) {
        for (std::uint32_t group = 0; group < lockstep_.size(); ++group) {
            const std::uint32_t base = group << region_shift_;
            if (lockstep_[group]) {
                // Each resident region lies wholly inside the range,
                // wholly outside it, or across an edge.  Without an
                // edge the first set stands for the group as before.
                bool split = false;
                for (std::uint32_t w = 0; w < ways_ && !split; ++w) {
                    const Line &l = line(base, w);
                    const Addr lo = (l.tag << set_shift_) | base;
                    split = l.valid && lo <= last &&
                            lo + region_mask >= first &&
                            (lo < first || lo + region_mask > last);
                }
                if (!split) {
                    for (std::uint32_t w = 0; w < ways_; ++w) {
                        Line &l = line(base, w);
                        const Addr lo = (l.tag << set_shift_) | base;
                        if (l.valid && lo >= first && lo <= last) {
                            l.valid = false;
                            invalidated += region_;
                        }
                    }
                    continue;
                }
                copyOut(group);
            }
            for (std::uint32_t set = base; set < base + region_; ++set) {
                for (std::uint32_t w = 0; w < ways_; ++w) {
                    Line &l = line(set, w);
                    const Addr ln = (l.tag << set_shift_) | set;
                    if (l.valid && ln >= first && ln <= last) {
                        l.valid = false;
                        changed_[group] = 1;
                        ++invalidated;
                    }
                }
            }
        }
        return invalidated;
    }

    for (Addr ln = first; ln <= last;) {
        const std::uint32_t set = setOf(ln);
        const std::uint32_t group = set >> region_shift_;
        const std::uint64_t tag = tagOf(ln);
        if (lockstep_[group]) {
            // The first set stands for the group.  A region the range
            // covers whole, or one not resident, leaves every set of
            // the group alike: the group stays in lockstep.
            const std::uint32_t base = group << region_shift_;
            const Addr region_first = ln & ~region_mask;
            const Addr region_last = region_first + region_mask;
            if (region_first >= first && region_last <= last) {
                invalidated += std::uint64_t{region_} * clearTag(base, tag);
                ln = region_last + 1;
                continue;
            }
            if (!holdsTag(base, tag)) {
                ln = std::min(region_last, last) + 1;
                continue;
            }
            copyOut(group);
        }
        const std::uint32_t cleared = clearTag(set, tag);
        if (cleared > 0) {
            changed_[group] = 1;
        }
        invalidated += cleared;
        ++ln;
    }
    return invalidated;
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
}

} // namespace vstream
