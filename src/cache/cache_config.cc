#include "cache/cache_config.hh"

#include "sim/logging.hh"

namespace vstream
{

std::uint32_t
CacheConfig::numLines() const
{
    return static_cast<std::uint32_t>(size_bytes / line_bytes);
}

std::uint32_t
CacheConfig::numSets() const
{
    return numLines() / assoc;
}

void
CacheConfig::validate() const
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
        vs_fatal("cache line size must be a power of two");
    }
    if (size_bytes == 0 || size_bytes % line_bytes != 0) {
        vs_fatal("cache size must be a multiple of the line size");
    }
    if (assoc == 0 || numLines() % assoc != 0) {
        vs_fatal("associativity must divide the line count");
    }
    const std::uint32_t sets = numSets();
    if (sets == 0 || (sets & (sets - 1)) != 0) {
        vs_fatal("number of sets must be a power of two, got ", sets);
    }
}

} // namespace vstream
