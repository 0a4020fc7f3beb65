/**
 * @file
 * Geometry of the generic set-associative cache model.
 */

#ifndef VSTREAM_CACHE_CACHE_CONFIG_HH
#define VSTREAM_CACHE_CACHE_CONFIG_HH

#include <cstdint>

namespace vstream
{

/** Geometry of an LRU, read-only cache instance. */
struct CacheConfig
{
    /** Total data capacity, bytes. */
    std::uint64_t size_bytes = 32 * 1024;
    /** Line size, bytes. */
    std::uint32_t line_bytes = 64;
    /** Ways per set; 1 = direct-mapped. */
    std::uint32_t assoc = 4;

    std::uint32_t numLines() const;
    std::uint32_t numSets() const;

    /** Abort if sizes are not consistent powers of two. */
    void validate() const;
};

} // namespace vstream

#endif // VSTREAM_CACHE_CACHE_CONFIG_HH
