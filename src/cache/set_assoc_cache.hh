/**
 * @file
 * Generic address-indexed set-associative cache model.
 *
 * Instantiated as the video decoder's internal cache (Fig. 7a sweeps
 * it from 32 KB to 512 KB) and, with assoc=1, as the 16 KB display
 * cache.  Both serve reads only: the decoded-frame writeback streams
 * past the VD cache (paper Sec. 4.1), and a DMA overwrite reaches it
 * as invalidateRange().  The model tracks tags only; data correctness
 * is the client's concern (the simulator keeps pixel data in Frame
 * objects).
 *
 * Region mode (the decoder's cache): a region is an aligned run of
 * region_lines lines, and it falls in region_lines consecutive sets,
 * a group.  While a group is in lockstep, all of its sets hold the
 * same state and only the group's first set stores it, so an access
 * to a whole region makes one check for all of its lines.  The
 * results (hits, misses, fills, evictions) are exactly those of the
 * per-line walk; docs/PERFORMANCE.md "VD reads by region" gives the
 * argument.
 */

#ifndef VSTREAM_CACHE_SET_ASSOC_CACHE_HH
#define VSTREAM_CACHE_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/replacement.hh"
#include "mem/mem_request.hh"

namespace vstream
{

class StatsRegistry;

/** Outcome of a (possibly multi-line) cache access. */
struct CacheAccessSummary
{
    std::uint32_t lines = 0;
    std::uint32_t hits = 0;
    std::uint32_t misses = 0;
    /** Line addresses that must be fetched from memory. */
    std::vector<Addr> fills;
};

/** Tag-only set-associative cache. */
class SetAssocCache
{
  public:
    /**
     * @param region_lines lines per region: a power of two no larger
     *     than the set count; 1 (the default) is the per-line cache.
     */
    SetAssocCache(std::string name, const CacheConfig &cfg,
                  std::uint32_t region_lines = 1);

    /** Read [addr, addr+size); a miss allocates the line. */
    CacheAccessSummary access(Addr addr, std::uint32_t size);

    /**
     * Zero-alloc variant of access(): results land in @p summary,
     * whose vectors are cleared and reused (hot paths pass a member
     * scratch so steady-state accesses never allocate).
     */
    void accessInto(Addr addr, std::uint32_t size,
                    CacheAccessSummary &summary);

    /**
     * Read of whole regions [addr, addr+size) that hits the MRU way
     * of every region, each on a lockstep group: counts the hits and
     * returns true.  A read hit on the MRU way changes no other
     * state, so on false nothing has changed and the caller goes
     * through accessInto().
     */
    // vstream:hot
    bool tryMruReadHit(Addr addr, std::uint32_t size)
    {
        if (size == 0 || ((addr | size) & region_byte_mask_) != 0) {
            return false;
        }
        const Addr first = addr >> line_shift_;
        const Addr end = (addr + size) >> line_shift_;
        for (Addr ln = first; ln < end; ln += region_) {
            const std::uint32_t set = setOf(ln);
            const Line &m = line(set, mru_[set]);
            if (!lockstep_[set >> region_shift_] || !m.valid ||
                m.tag != tagOf(ln)) {
                return false;
            }
        }
        hits_ += end - first;
        lockstep_accesses_ += (end - first) >> region_shift_;
        return true;
    }

    /**
     * Whole-region accesses made by one check on a lockstep group
     * (with one-line regions, every line access): a diagnostic of the
     * region fast path, not a model stat.
     */
    std::uint64_t lockstepAccesses() const { return lockstep_accesses_; }

    /**
     * Lockstep groups taken out of lockstep (a partial access, or an
     * invalidateRange edge that splits a resident region): a
     * diagnostic of the region fast path, not a model stat.
     */
    std::uint64_t copyOuts() const { return copy_outs_; }

    /** Probe without updating any state. */
    bool contains(Addr addr) const;

    /** Invalidate everything. */
    void invalidateAll();

    /**
     * Invalidate every line covering [addr, addr+size) - the
     * coherence action for a DMA engine overwriting memory behind
     * the cache.  A lockstep group stays in lockstep unless a range
     * edge splits one of its resident regions.
     *
     * @return number of lines invalidated.
     */
    std::uint64_t invalidateRange(Addr addr, std::uint64_t size);

    const CacheConfig &config() const { return cfg_; }
    const std::string &name() const { return name_; }

    std::uint64_t hitCount() const { return hits_; }
    std::uint64_t missCount() const { return misses_; }
    std::uint64_t evictionCount() const { return evictions_; }
    double missRate() const;

    /** Register hit/miss/eviction stats under this cache's name. */
    void regStats(StatsRegistry &r) const;

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
    };

    /** Set of line number @p ln (an address >> line_shift_). */
    std::uint32_t setOf(Addr ln) const
    {
        return static_cast<std::uint32_t>(ln & (sets_ - 1));
    }
    std::uint64_t tagOf(Addr ln) const { return ln >> set_shift_; }
    Addr lineAddr(std::uint32_t set, std::uint64_t tag) const;
    Line &line(std::uint32_t set, std::uint32_t way)
    {
        return lines_[static_cast<std::size_t>(set) * ways_ + way];
    }
    const Line &line(std::uint32_t set, std::uint32_t way) const
    {
        return lines_[static_cast<std::size_t>(set) * ways_ + way];
    }

    /**
     * Read tag @p tag in @p set, standing for @p span consecutive
     * sets of identical state (1, or a whole lockstep group): MRU way
     * first, then accessSlow().  Returns hit.
     */
    bool accessSet(std::uint32_t set, std::uint64_t tag,
                   CacheAccessSummary &summary, std::uint32_t span)
    {
        // MRU-way first: the common hit needs neither a scan nor a
        // replacement update (see mru_).
        const Line &m = line(set, mru_[set]);
        if (m.valid && m.tag == tag) {
            return true;
        }
        return accessSlow(set, tag, summary, span);
    }

    /**
     * Read whose set's MRU way did not match: scan the other ways,
     * else miss and fill.  Evictions count @p span times, and fills
     * expand to the span's consecutive line addresses in ascending
     * order.  Returns hit.
     */
    bool accessSlow(std::uint32_t set, std::uint64_t tag,
                    CacheAccessSummary &summary, std::uint32_t span);

    /** Whether a valid way of @p set holds @p tag. */
    bool holdsTag(std::uint32_t set, std::uint64_t tag) const;

    /** Invalidate the way of @p set holding @p tag, if any; returns
     * the ways cleared. */
    std::uint32_t clearTag(std::uint32_t set, std::uint64_t tag);

    /** Give every set of lockstep group @p group the state of its
     * first set, and take the group out of lockstep. */
    void copyOut(std::uint32_t group);

    /**
     * Whether every set of @p group behaves as its first set: the
     * same valid bits, the same tag on each valid way, and the same
     * LRU order over the valid ways.
     */
    bool groupAgrees(std::uint32_t group) const;

    std::string name_;
    CacheConfig cfg_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t line_shift_;
    /** log2(sets_): validate() requires a power-of-two set count. */
    std::uint32_t set_shift_;
    std::vector<Line> lines_;
    /**
     * Per set, the way last hit or filled.  It holds the set's
     * largest LRU stamp, so a hit on it leaves the victim order
     * unchanged and skips ReplacementState::touch.
     */
    std::vector<std::uint32_t> mru_;
    ReplacementState repl_;
    /** Lines (and sets) per region, a power of two, and its log2. */
    std::uint32_t region_;
    std::uint32_t region_shift_;
    /** Region bytes - 1: region-aligned addresses have none of it. */
    Addr region_byte_mask_;
    /** Per group of region_ sets: 1 while only its first set holds
     * state (always 1 with one-line regions). */
    std::vector<std::uint8_t> lockstep_;
    /**
     * Per group: 1 once a set of it changed after its last
     * groupAgrees() (or its copyOut), so only then can a comparison
     * find it back in lockstep.
     */
    std::vector<std::uint8_t> changed_;
    std::uint64_t lockstep_accesses_ = 0;
    std::uint64_t copy_outs_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CACHE_SET_ASSOC_CACHE_HH
