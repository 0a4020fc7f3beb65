/**
 * @file
 * The MACH buffer (Sec. 5.1): a digest-indexed block store at the
 * display controller.
 *
 * Holds whole mabs/gabs keyed by their content digest; populated as
 * the DC scans each frame's unique blocks that appear in that frame's
 * dumped MACH image.  Inter-matches stored as digests in the
 * pointer+digest layout are served from here without touching DRAM.
 */

#ifndef VSTREAM_DISPLAY_MACH_BUFFER_HH
#define VSTREAM_DISPLAY_MACH_BUFFER_HH

#include <cstdint>
#include <ostream>
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

    /** Block bytes for @p digest, or nullptr on miss. */
    const std::vector<std::uint8_t> *lookup(std::uint32_t digest);

    /** Insert (or refresh) a block under @p digest. */
    void insert(std::uint32_t digest,
                const std::vector<std::uint8_t> &block);

    /** Same, from a raw byte view (the frame-buffer arena path). */
    void insert(std::uint32_t digest, const std::uint8_t *data,
                std::uint32_t size);

    std::uint64_t hitCount() const { return hits_; }
    std::uint64_t missCount() const { return misses_; }
    std::uint64_t insertCount() const { return inserts_; }

    std::uint32_t entries() const { return sets_ * ways_; }

    /** Register hit/miss/insert stats under @p prefix. */
    void regStats(StatsRegistry &r, const std::string &prefix) const;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint32_t digest = 0;
        std::vector<std::uint8_t> block;
    };

    Entry &entry(std::uint32_t set, std::uint32_t way);
    std::uint32_t setOf(std::uint32_t digest) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Entry> store_;
    ReplacementState repl_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
};

} // namespace vstream

#endif // VSTREAM_DISPLAY_MACH_BUFFER_HH
