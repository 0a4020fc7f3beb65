/**
 * @file
 * One per-frame MACH: a digest-indexed, set-associative cache mapping
 * macroblock digests to the memory addresses of their (unique) data.
 *
 * Entries carry the 32-bit primary digest as the tag, an optional
 * 16-bit auxiliary CRC16 (CO-MACH collision detection), the pointer
 * to the block in the frame buffer, and - simulation only - a copy of
 * the true block bytes so hash collisions can be counted exactly.
 *
 * A MACH is mutable while its frame is being decoded and is frozen
 * afterwards; frozen MACHs serve lookups from younger frames and are
 * dumped to memory for the display's MACH buffer.
 */

#ifndef VSTREAM_CORE_MACH_CACHE_HH
#define VSTREAM_CORE_MACH_CACHE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cache/replacement.hh"
#include "core/mach_config.hh"
#include "mem/mem_request.hh"

namespace vstream
{

/**
 * One MACH entry.  The ground-truth block bytes used for
 * simulation-side collision verification live in the cache's shared
 * arena (one fixed-stride slab per entry), not in the entry itself,
 * so inserts never allocate.
 */
struct MachEntry
{
    bool valid = false;
    std::uint32_t digest = 0;
    std::uint16_t aux = 0;
    Addr ptr = 0;
};

/** Result of probing one MACH. */
struct MachProbe
{
    bool hit = false;
    Addr ptr = 0;
    /**
     * The tag matched but the stored content differs: a digest
     * collision.  With CO-MACH the CRC16 usually catches it (the
     * probe then reports a miss with collision_detected); without,
     * the hit stands and the display would show the wrong block
     * (collision_undetected).
     */
    bool collision_detected = false;
    bool collision_undetected = false;
};

/** A single per-frame macroblock cache. */
class MachCache
{
  public:
    /**
     * @param cfg        geometry and behaviour
     * @param entries    entry count override (CO-MACH reuses this
     *                   class with its own size); 0 = cfg.entries
     * @param full_tags  compare aux (CRC16) as part of the tag
     */
    explicit MachCache(const MachConfig &cfg, std::uint32_t entries = 0,
                       bool full_tags = false);

    /**
     * Probe for @p digest (and @p aux when CO-MACH is on).
     *
     * @param truth  actual block bytes, for collision accounting.
     */
    MachProbe lookup(std::uint32_t digest, std::uint16_t aux,
                     std::span<const std::uint8_t> truth);

    /** Insert a mapping digest -> ptr (evicts LRU if needed). */
    void insert(std::uint32_t digest, std::uint16_t aux, Addr ptr,
                std::span<const std::uint8_t> truth);

    /** Freeze: further insert() calls panic. */
    void freeze() { frozen_ = true; }

    /**
     * Return to the freshly constructed state without releasing any
     * storage: entries invalidated, freeze lifted, LRU stamps
     * cleared.  The truth arena (whose stride is fixed for a whole
     * stream) is kept, so recycled frames insert with zero heap
     * allocation.
     */
    void recycle();

    /** Number of valid entries. */
    std::uint32_t validCount() const;

    /** Size of the dumped metadata image in memory (digest+pointer
     * per valid entry). */
    std::uint64_t dumpBytes() const;

    /** All valid entries (for the display-side MACH-buffer load). */
    std::vector<const MachEntry *> validEntries() const;

    /** Visit every valid entry in index order without allocating. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const MachEntry &e : entries_) {
            if (e.valid) {
                fn(e);
            }
        }
    }

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }

  private:
    MachEntry &entry(std::uint32_t set, std::uint32_t way);
    const MachEntry &entry(std::uint32_t set, std::uint32_t way) const;
    std::uint32_t setOf(std::uint32_t digest) const;

    /** Arena slab of the entry at (set, way). */
    std::uint8_t *truthAt(std::uint32_t set, std::uint32_t way);
    const std::uint8_t *truthAt(std::uint32_t set,
                                std::uint32_t way) const;

    // By value: a reference member dangles when the cache is built
    // from a temporary config (ASan stack-use-after-scope).
    MachConfig cfg_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    bool full_tags_;
    bool frozen_ = false;
    std::vector<MachEntry> entries_;
    /** Fixed per-entry byte stride, learned from the first insert
     * (every block in one cache has the same size). */
    std::uint32_t truth_stride_ = 0;
    std::vector<std::uint8_t> truth_arena_;
    ReplacementState repl_;
};

} // namespace vstream

#endif // VSTREAM_CORE_MACH_CACHE_HH
