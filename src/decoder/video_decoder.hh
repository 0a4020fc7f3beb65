/**
 * @file
 * Hardware video decoder (VD) timing model.
 *
 * Decodes a frame macroblock by macroblock: encoded bits are read
 * through the VD's internal cache, P/B mabs issue motion-compensation
 * reference reads against the previous frame's buffer, compute cycles
 * accrue per the calibrated cost model at the current P-state
 * frequency, and the decoded block is handed to a WritebackStage.
 * All memory stalls are folded into the frame's decode time, which is
 * how a frame can miss its 16.6 ms deadline (paper Region I).
 */

#ifndef VSTREAM_DECODER_VIDEO_DECODER_HH
#define VSTREAM_DECODER_VIDEO_DECODER_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "cache/set_assoc_cache.hh"
#include "core/frame_buffer_manager.hh"
#include "core/writeback_stage.hh"
#include "decoder/decode_cost_model.hh"
#include "decoder/decoder_config.hh"
#include "mem/memory_system.hh"
#include "video/frame.hh"
#include "video/video_profile.hh"

namespace vstream
{

/** Timing outcome of decoding one frame. */
struct FrameDecodeResult
{
    Tick start = 0;
    Tick finish = 0;
    std::uint64_t mabs = 0;
    std::uint64_t encoded_bytes = 0;
    std::uint64_t mc_reads = 0;
    /** Portion of (finish - start) spent waiting on DRAM. */
    Tick mem_stall = 0;

    Tick busy() const { return finish - start; }
};

/** The VD IP. */
class VideoDecoder
{
  public:
    /** The queue parameter is unused (see sim/event_queue.hh). */
    VideoDecoder(std::string name, EventQueue *, MemorySystem &mem,
                 const DecoderConfig &cfg, const VideoProfile &profile);

    /** Change the P-state (the "race" knob). */
    void setFrequency(VdFrequency f) { freq_ = f; }
    VdFrequency frequency() const { return freq_; }

    /**
     * Decode @p frame starting at @p start.
     *
     * @param wb        writeback path for decoded mabs
     * @param slot      this frame's buffer
     * @param prev_slot previous frame's buffer (MC references), may
     *                  be null for the first/I frames
     * @param layout    caller-owned (pooled) layout storage the
     *                  writeback stage fills in place
     */
    FrameDecodeResult decodeFrame(const Frame &frame, WritebackStage &wb,
                                  BufferSlot &slot,
                                  const BufferSlot *prev_slot, Tick start,
                                  FrameLayout &layout);

    SetAssocCache &cache() { return *cache_; }
    const DecoderConfig &config() const { return cfg_; }

    /** Register the decoder's and its cache's stats. */
    void regStats(StatsRegistry &r);

  private:
    /** Read [addr, addr+size) through the VD cache, widened to the
     * read-prefetch granularity (dense fill bursts). */
    Tick readThroughCache(Addr addr, std::uint32_t size, Tick now,
                          Tick *stall);

    /** Read @p bytes of encoded stream through the VD cache. */
    Tick readEncoded(std::uint64_t bytes, Tick now, Tick *stall);

    /** One MC reference read for mab @p idx. */
    Tick readReference(const BufferSlot &prev, std::uint32_t idx,
                       std::uint32_t mab_count, std::int32_t reach_off,
                       Tick now, Tick *stall);

    std::string name_;
    MemorySystem &mem_;
    DecoderConfig cfg_;
    VideoProfile profile_;
    DecodeCostModel cost_;
    VdFrequency freq_ = VdFrequency::kLow;
    std::unique_ptr<SetAssocCache> cache_;

    Addr encoded_region_ = 0;
    /** Offset of the next encoded read in the ring, always below
     * DecoderConfig::kEncodedRingBytes. */
    std::uint64_t encoded_cursor_ = 0;

    /** Reused cache-access scratch: readThroughCache runs per mab
     * and must not construct fresh summary vectors each call. */
    CacheAccessSummary access_scratch_;

    std::uint64_t frames_decoded_ = 0;
};

} // namespace vstream

#endif // VSTREAM_DECODER_VIDEO_DECODER_HH
