#include "core/mach_cache.hh"

#include <cstring>

#include "sim/logging.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

MachCache::MachCache(const MachConfig &cfg, std::uint32_t entries,
                     bool full_tags)
    : cfg_(cfg),
      sets_((entries ? entries : cfg.entries) / cfg.ways),
      ways_(cfg.ways), full_tags_(full_tags),
      entries_(static_cast<std::size_t>(sets_) * ways_),
      repl_(sets_, ways_)
{
    vs_assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0,
              "MACH set count must be a power of two");
}

MachEntry &
MachCache::entry(std::uint32_t set, std::uint32_t way)
{
    return entries_[static_cast<std::size_t>(set) * ways_ + way];
}

const MachEntry &
MachCache::entry(std::uint32_t set, std::uint32_t way) const
{
    return entries_[static_cast<std::size_t>(set) * ways_ + way];
}

std::uint32_t
MachCache::setOf(std::uint32_t digest) const
{
    // The paper indexes with the low digest bits (all 32 are
    // uniformly distributed).
    return digest & (sets_ - 1);
}

std::uint8_t *
MachCache::truthAt(std::uint32_t set, std::uint32_t way)
{
    return truth_arena_.data() +
           (static_cast<std::size_t>(set) * ways_ + way) *
               truth_stride_;
}

const std::uint8_t *
MachCache::truthAt(std::uint32_t set, std::uint32_t way) const
{
    return truth_arena_.data() +
           (static_cast<std::size_t>(set) * ways_ + way) *
               truth_stride_;
}

MachProbe
MachCache::lookup(std::uint32_t digest, std::uint16_t aux,
                  std::span<const std::uint8_t> truth)
{
    MachProbe probe;
    const std::uint32_t set = setOf(digest);

    for (std::uint32_t w = 0; w < ways_; ++w) {
        MachEntry &e = entry(set, w);
        if (!e.valid || e.digest != digest) {
            continue;
        }
        if (full_tags_ && e.aux != aux) {
            continue;
        }

        if (cfg_.co_mach && !full_tags_ && e.aux != aux) {
            // Primary digest collided; the CRC16 check caught it.
            probe.collision_detected = true;
            continue;
        }

        probe.hit = true;
        probe.ptr = e.ptr;
        if (truth.size() != truth_stride_ ||
            !blockEqual(truthAt(set, w), truth.data(),
                        truth.size())) {
            // The (possibly 48-bit) tag matched but the content
            // differs: an undetected collision.
            probe.collision_undetected = true;
        }
        repl_.touch(set, w);
        return probe;
    }
    return probe;
}

void
MachCache::insert(std::uint32_t digest, std::uint16_t aux, Addr ptr,
                  std::span<const std::uint8_t> truth)
{
    vs_assert(!frozen_, "insert into a frozen MACH");

    if (truth_arena_.empty() && !truth.empty()) {
        truth_stride_ = static_cast<std::uint32_t>(truth.size());
        truth_arena_.assign(entries_.size() *
                                static_cast<std::size_t>(truth_stride_),
                            0);
    }
    vs_assert(truth.size() == truth_stride_,
              "MACH truth size changed between inserts");

    const std::uint32_t set = setOf(digest);

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

    MachEntry &e = entry(set, way);
    e.valid = true;
    e.digest = digest;
    e.aux = aux;
    e.ptr = ptr;
    if (!truth.empty()) {
        std::memcpy(truthAt(set, way), truth.data(), truth.size());
    }
    repl_.touch(set, way);
}

void
MachCache::recycle()
{
    for (MachEntry &e : entries_) {
        e.valid = false;
    }
    frozen_ = false;
    repl_.reset();
}

std::uint32_t
MachCache::validCount() const
{
    std::uint32_t n = 0;
    for (const auto &e : entries_) {
        if (e.valid) {
            ++n;
        }
    }
    return n;
}

std::uint64_t
MachCache::dumpBytes() const
{
    return static_cast<std::uint64_t>(validCount()) *
           (cfg_.digest_bytes + cfg_.pointer_bytes);
}

std::vector<const MachEntry *>
MachCache::validEntries() const
{
    std::vector<const MachEntry *> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_) {
        if (e.valid) {
            out.push_back(&e);
        }
    }
    return out;
}

} // namespace vstream
