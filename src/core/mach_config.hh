/**
 * @file
 * Configuration of the MAcroblock caCHe (MACH) subsystem.
 *
 * Defaults follow the paper's chosen design point: 8 per-frame MACHs
 * of 256 entries each (4-way, LRU, indexed by the low 6 digest bits),
 * CRC32 digests, 4 B pointers, 3 B gab bases, and the CACTI-derived
 * power numbers of Table 2.
 */

#ifndef VSTREAM_CORE_MACH_CONFIG_HH
#define VSTREAM_CORE_MACH_CONFIG_HH

#include <cstdint>

#include "hash/hasher.hh"

namespace vstream
{

/** Static parameters of MACH at the video-decoder side. */
struct MachConfig
{
    /** Number of per-frame MACHs retained (current + previous 7). */
    std::uint32_t num_machs = 8;
    /** Entries per MACH. */
    std::uint32_t entries = 256;
    /** Set associativity. */
    std::uint32_t ways = 4;
    /** Digest function (Fig. 12d compares crc32/md5/sha1). */
    HashKind hash = HashKind::kCrc32;
    /** Content representation: gradient blocks (gab) vs raw (mab). */
    bool use_gradient = false;

    /** Enable the CO-MACH collision detector (CRC32||CRC16 tags). */
    bool co_mach = false;
    /**
     * Byte-compare the stored block against the candidate on every
     * hit.  Catches even digest+aux collisions (including injected
     * ones) at the cost of re-reading the 48 B block; a mismatch
     * demotes the hit to a miss and the writeback falls back to a
     * full unique write.
     */
    bool verify_on_hit = false;
    /** CO-MACH entries (1.5 KB at 10 B/entry ~= 128, 4-way). */
    std::uint32_t co_mach_entries = 128;

    /** Metadata field widths, bytes. */
    std::uint32_t pointer_bytes = 4;
    std::uint32_t base_bytes = 3;
    std::uint32_t digest_bytes = 4;

    // --- power overheads (paper Table 2 / Sec. 6.3) --------------------
    /** 8 KB MACH at the VD. */
    double mach_power_w = 5.7e-3;
    /** 16 KB display cache at the DC. */
    double display_cache_power_w = 4.1e-3;
    /** 96 KB MACH buffer at the DC. */
    double mach_buffer_power_w = 25.4e-3;
    /** CO-MACH + CRC16 generator. */
    double co_mach_power_w = 1.4e-3;

    std::uint32_t sets() const { return entries / ways; }

    void validate() const;
};

} // namespace vstream

#endif // VSTREAM_CORE_MACH_CONFIG_HH
