/**
 * @file
 * Generic address-indexed set-associative cache model.
 *
 * Instantiated as the video decoder's internal cache (Fig. 7a sweeps
 * it from 32 KB to 512 KB) and, with assoc=1, as the 16 KB display
 * cache.  The model tracks tags and dirty bits only; data correctness
 * is the client's concern (the simulator keeps pixel data in Frame
 * objects).
 */

#ifndef VSTREAM_CACHE_SET_ASSOC_CACHE_HH
#define VSTREAM_CACHE_SET_ASSOC_CACHE_HH

#include <array>
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
    /** Line addresses of dirty victims that must be written back. */
    std::vector<Addr> writebacks;
    /** Line addresses that must be fetched from memory. */
    std::vector<Addr> fills;
};

/** Tag-only set-associative cache. */
class SetAssocCache
{
  public:
    SetAssocCache(std::string name, const CacheConfig &cfg);

    /**
     * Access [addr, addr+size) with operation @p op.
     *
     * Reads allocate on miss.  Writes allocate only when the config
     * enables write_allocate; otherwise write misses bypass the cache
     * entirely (streaming store).
     */
    CacheAccessSummary access(Addr addr, std::uint32_t size, MemOp op);

    /**
     * Zero-alloc variant of access(): results land in @p summary,
     * whose vectors are cleared and reused (hot paths pass a member
     * scratch so steady-state accesses never allocate).
     */
    void accessInto(Addr addr, std::uint32_t size, MemOp op,
                    CacheAccessSummary &summary);

    /**
     * Reads answered by the region memo without walking their lines
     * (a diagnostic of the fast path, not a model stat).
     */
    std::uint64_t memoHits() const { return memo_hits_; }

    /** Probe without updating any state. */
    bool contains(Addr addr) const;

    /** Invalidate everything (dirty contents dropped). */
    void invalidateAll();

    /**
     * Invalidate every line covering [addr, addr+size) (dirty data
     * dropped) - the coherence action for a DMA engine overwriting
     * memory behind the cache.
     *
     * @return number of lines invalidated.
     */
    std::uint64_t invalidateRange(Addr addr, std::uint64_t size);

    /**
     * Flush: returns dirty line addresses and leaves the cache
     * clean+empty.
     */
    std::vector<Addr> flush();

    const CacheConfig &config() const { return cfg_; }
    const std::string &name() const { return name_; }

    std::uint64_t hitCount() const { return hits_; }
    std::uint64_t missCount() const { return misses_; }
    std::uint64_t evictionCount() const { return evictions_; }
    std::uint64_t writebackCount() const { return writebacks_; }
    double missRate() const;

    void resetStats();

    /** Register hit/miss/eviction stats under this cache's name. */
    void regStats(StatsRegistry &r) const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
    };

    /** Set of line number @p ln (an address >> line_shift_). */
    std::uint32_t setOf(Addr ln) const
    {
        return static_cast<std::uint32_t>(ln & (sets_ - 1));
    }
    std::uint64_t tagOf(Addr ln) const { return ln >> set_shift_; }
    Addr lineAddr(std::uint32_t set, std::uint64_t tag) const;
    Line &line(std::uint32_t set, std::uint32_t way);
    const Line &line(std::uint32_t set, std::uint32_t way) const;

    /**
     * Access one line whose set's MRU way did not match: scan the
     * other ways, else miss (and maybe fill).  Returns hit; may add
     * to @p summary.
     */
    bool accessSlow(std::uint32_t set, std::uint64_t tag, MemOp op,
                    CacheAccessSummary &summary);

    /**
     * A read region [first, last] (line numbers) whose every line was
     * its set's MRU way when mutations_ read @c mutations.
     */
    struct RegionMemo
    {
        Addr first = 0;
        Addr last = 0;
        std::uint64_t mutations = ~std::uint64_t(0);
    };

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
    /**
     * Bumped by every change to tags, valid bits, the MRU ways or the
     * replacement state: accessSlow, invalidation and flush.  Only an
     * MRU-way hit leaves it alone, and that changes nothing a read
     * can observe (a write hit only sets the dirty bit).
     */
    std::uint64_t mutations_ = 0;
    /** The last two read regions; see accessInto. */
    std::array<RegionMemo, 2> memo_{};
    std::uint32_t memo_next_ = 0;
    std::uint64_t memo_hits_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CACHE_SET_ASSOC_CACHE_HH
