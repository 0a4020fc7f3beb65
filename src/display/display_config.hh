/**
 * @file
 * Display-controller configuration (paper Table 2 defaults).
 */

#ifndef VSTREAM_DISPLAY_DISPLAY_CONFIG_HH
#define VSTREAM_DISPLAY_DISPLAY_CONFIG_HH

#include <cstdint>

#include "cache/cache_config.hh"

namespace vstream
{

/** Static display parameters. */
struct DisplayConfig
{
    /** Display controller + panel interface power. */
    double power_w = 0.12;

    /** Enable the 16 KB direct-mapped display cache (Sec. 5.1). */
    bool use_display_cache = true;
    /** Enable the MACH buffer (digest-indexed block store). */
    bool use_mach_buffer = true;
    /**
     * Checksum-based transaction elimination (the industrial scheme
     * of [9]/[35] the paper relates to): when a frame's checksum
     * equals the frame already on screen, the scan-out is skipped
     * entirely.  Whole-frame granularity only - complementary to
     * MACH's block-level reuse.
     */
    bool transaction_elimination = false;

    /** Display cache geometry: 16 KB direct-mapped, 64 B lines. */
    CacheConfig display_cache = {
        .size_bytes = 16 * 1024,
        .line_bytes = 64,
        .assoc = 1,
    };

    /** MACH buffer: 2K entries x 48 B = 96 KB. */
    std::uint32_t mach_buffer_entries = 2048;
    std::uint32_t mach_buffer_ways = 4;

    /** How many recent frames' MACH dumps the DC retains (set from
     * the decoder's MACH count; digest records can reference blocks
     * that far back). */
    std::uint32_t mach_window = 8;

    void validate() const;
};

} // namespace vstream

#endif // VSTREAM_DISPLAY_DISPLAY_CONFIG_HH
