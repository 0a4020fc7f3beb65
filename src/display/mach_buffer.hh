/**
 * @file
 * The MACH buffer (Sec. 5.1): a digest-indexed block store at the
 * display controller.
 *
 * Holds whole mabs/gabs keyed by their content digest; populated as
 * the DC scans each frame's unique blocks that appear in that frame's
 * dumped MACH image.  Inter-matches stored as digests in the
 * pointer+digest layout are served from here without touching DRAM.
 * The blocks live in one arena of entries x block bytes, sized on the
 * first insert and filled in the order entries first become valid.
 */

#ifndef VSTREAM_DISPLAY_MACH_BUFFER_HH
#define VSTREAM_DISPLAY_MACH_BUFFER_HH

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "cache/replacement.hh"

namespace vstream
{

class StatsRegistry;

/** Digest-indexed, set-associative block buffer. */
class MachBuffer
{
  public:
    MachBuffer(std::uint32_t entries, std::uint32_t ways);

    /** View of the block stored under @p digest, empty on a miss.
     * The next insert() may overwrite the viewed bytes. */
    std::span<const std::uint8_t> lookup(std::uint32_t digest);

    /** Insert (or refresh in place) @p block under @p digest.  Every
     * block has the first insert's size. */
    void insert(std::uint32_t digest, std::span<const std::uint8_t> block);

    std::uint64_t hitCount() const { return hits_; }
    std::uint64_t missCount() const { return misses_; }
    std::uint64_t insertCount() const { return inserts_; }

    std::uint32_t entries() const { return sets_ * ways_; }

    /** Register hit/miss/insert stats under @p prefix. */
    void regStats(StatsRegistry &r, const std::string &prefix) const;

  private:
    static constexpr std::uint32_t kInvalid = UINT32_MAX;

    struct Entry
    {
        std::uint32_t digest = 0;
        /** Index of the entry's block in the arena; kInvalid until
         * the entry is first filled. */
        std::uint32_t block = kInvalid;
    };

    Entry &entry(std::uint32_t set, std::uint32_t way);
    std::uint32_t setOf(std::uint32_t digest) const;
    /** Bytes of arena block @p block. */
    std::span<std::uint8_t> blockBytes(std::uint32_t block);

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Entry> store_;
    ReplacementState repl_;
    /** Bytes per block, learned from the first insert. */
    std::uint32_t block_bytes_ = 0;
    /** Every filled entry's block; reserved for all entries on the
     * first insert, so its pages are touched only as entries fill and
     * a view never moves. */
    std::vector<std::uint8_t> arena_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
};

} // namespace vstream

#endif // VSTREAM_DISPLAY_MACH_BUFFER_HH
