/**
 * @file
 * Display controller (DC) IP model.
 *
 * Every vsync the DC scans out one frame from memory.  With the
 * baseline linear layout it streams the frame buffer sequentially;
 * with MACH layouts it walks the per-mab metadata, chases pointers
 * through the display cache, serves digest records from the MACH
 * buffer, re-adds gab bases, and reconstructs a pixel-exact frame.
 * All DRAM traffic, fragmentation, and cache statistics the paper
 * reports in Sec. 5/Fig. 10 are collected here.
 */

#ifndef VSTREAM_DISPLAY_DISPLAY_CONTROLLER_HH
#define VSTREAM_DISPLAY_DISPLAY_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "core/flat_table.hh"
#include "core/frame_buffer_manager.hh"
#include "core/framebuffer_layout.hh"
#include "display/display_config.hh"
#include "display/mach_buffer.hh"
#include "mem/memory_system.hh"

namespace vstream
{

/** Statistics of one frame scan-out. */
struct ScanStats
{
    Tick start = 0;
    Tick finish = 0;
    std::uint64_t dram_requests = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t meta_bytes = 0;
    std::uint64_t display_cache_hits = 0;
    std::uint64_t display_cache_misses = 0;
    std::uint64_t mach_buffer_hits = 0;
    std::uint64_t mach_buffer_misses = 0;
    std::uint64_t digest_records = 0;
    std::uint64_t pointer_records = 0;
    std::uint64_t fragmented_fetches = 0;
    /** CRC32 of the frame as shown, folded from the fetched blocks
     * (0 for an eliminated scan). */
    std::uint32_t shown_checksum = 0;
    /** Frame checksum matched the decode-time checksum. */
    bool verified = false;
    /** Scan skipped entirely (transaction elimination). */
    bool eliminated = false;
};

/** Cumulative DC statistics. */
struct DisplayTotals
{
    std::uint64_t frames_shown = 0;
    std::uint64_t re_renders = 0;
    std::uint64_t dram_requests = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t meta_bytes = 0;
    std::uint64_t digest_records = 0;
    std::uint64_t pointer_records = 0;
    std::uint64_t fragmented_fetches = 0;
    std::uint64_t verify_failures = 0;
    /** Scans skipped by transaction elimination. */
    std::uint64_t eliminated_frames = 0;
    /** Re-scans of the previous frame forced by a streaming-buffer
     * underrun (the successor had not arrived by its vsync). */
    std::uint64_t underrun_repeats = 0;
    /** Order-sensitive hash over every scanned-out frame's pixel
     * checksum: the "pixels" side of the dedup tier's traffic-not-
     * pixels invariant (tests compare it across dedup on/off runs).
     * Deliberately not a registered stat - it is a proof artifact,
     * not a metric. */
    std::uint64_t pixel_digest = 0;
};

/** The DC IP. */
class DisplayController
{
  public:
    /** The queue parameter is unused (see sim/event_queue.hh). */
    DisplayController(std::string name, EventQueue *, MemorySystem &mem,
                      FrameBufferManager &fbm, const DisplayConfig &cfg);

    /**
     * Scan out @p layout starting at @p now (a vsync tick).
     *
     * @param re_render true when the frame is being shown again
     *        because its successor missed the deadline.
     */
    ScanStats scanOut(const FrameLayout &layout, Tick now,
                      bool re_render = false);

    /** Record that the frame just scanned out was a repeat forced by
     * a streaming-buffer underrun (graceful degradation, not a
     * panic). */
    void noteUnderrunRepeat() { ++totals_.underrun_repeats; }

    const DisplayConfig &config() const { return cfg_; }
    const DisplayTotals &totals() const { return totals_; }
    SetAssocCache *displayCache() { return display_cache_.get(); }
    MachBuffer *machBuffer() { return mach_buffer_.get(); }

    /** Register the controller's, its cache's and its MACH buffer's
     * stats. */
    void regStats(StatsRegistry &r);

  private:
    /** Stream @p bytes sequentially from @p base; returns end tick. */
    Tick streamRead(Addr base, std::uint64_t bytes, Tick now,
                    ScanStats &stats);

    /** Fetch one block through the display cache. */
    Tick fetchBlock(Addr addr, std::uint32_t size, Tick now,
                    ScanStats &stats);

    /** Resolve a digest record on a MACH-buffer miss. */
    std::span<const std::uint8_t>
    resolveDigestMiss(const FrameLayout &layout, std::uint32_t digest,
                      Tick &now, ScanStats &stats);

    using MachDumpVec = std::vector<std::pair<std::uint32_t, Addr>>;

    /** Copy @p dump into the dump ring as its newest entry; @p
     * cap_hint (the frame's mab count) bounds any dump size, so ring
     * slots are reserved once and recycled allocation-free. */
    void pushDump(const MachDumpVec &dump, std::size_t cap_hint);
    /** Dump @p i of the ring, 0 = newest. */
    const MachDumpVec &dumpAt(std::size_t i) const;

    std::string name_;
    MemorySystem &mem_;
    FrameBufferManager &fbm_;
    DisplayConfig cfg_;
    /** The display cache (Sec. 5.1): a small line cache at the DC
     * that recovers the locality pointer indirection destroys -
     * repeated intra-matches and the second halves of fragmented
     * (line-straddling) block fetches hit here, not in DRAM. */
    std::unique_ptr<SetAssocCache> display_cache_;
    std::unique_ptr<MachBuffer> mach_buffer_;

    /**
     * MACH dumps of recent frames (digest -> ptr).  A recycled ring
     * of cfg_.mach_window slots refreshed by copy-assignment (which
     * reuses each slot's capacity), so the steady-state scan-out
     * keeps no per-frame dump allocation.
     */
    std::vector<MachDumpVec> dump_ring_;
    std::size_t dump_next_ = 0;
    std::size_t dump_count_ = 0;

    // Scratch reused across scan-outs (zero-alloc steady state).
    FlatSet<std::uint32_t> dump_digest_scratch_;
    CacheAccessSummary access_scratch_;

    /** Checksum of the frame currently on the panel (transaction
     * elimination); ~0 when nothing has been shown yet. */
    std::uint64_t on_screen_checksum_ = ~0ULL;

    DisplayTotals totals_;
};

} // namespace vstream

#endif // VSTREAM_DISPLAY_DISPLAY_CONTROLLER_HH
