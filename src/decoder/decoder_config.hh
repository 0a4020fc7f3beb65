/**
 * @file
 * Static configuration of the video-decoder IP model.
 */

#ifndef VSTREAM_DECODER_DECODER_CONFIG_HH
#define VSTREAM_DECODER_DECODER_CONFIG_HH

#include <cstdint>

#include "cache/cache_config.hh"
#include "decoder/decode_cost_model.hh"
#include "power/power_state.hh"

namespace vstream
{

/** All static decoder parameters. */
struct DecoderConfig
{
    VdPowerConfig power;
    DecodeCostParams cost;

    /**
     * The VD's internal cache (Sec. 4.1): serves encoded-stream reads
     * and motion-compensation reference reads, and nothing else.
     * Decoded-frame writeback streams past it, which is why growing
     * it does not help the write path (Fig. 7a).
     */
    CacheConfig cache = {
        .size_bytes = 64 * 1024,
        .line_bytes = 64,
        .assoc = 4,
    };

    /** Ring buffer holding buffered encoded frames. */
    static constexpr std::uint64_t kEncodedRingBytes = 8ULL << 20;

    /**
     * Read-side prefetch granularity, bytes.  The bitstream DMA and
     * the MC reference fetcher bring data in dense bursts of this
     * size, so their DRAM accesses row-hit within a burst; Act/Pre
     * behaviour is then dominated by the decoder's *write* stream,
     * whose spacing is what racing improves (Sec. 3.2).  A power of
     * two, so read regions round with a mask.
     */
    static constexpr std::uint32_t kReadPrefetchBytes = 512;
    static_assert((kReadPrefetchBytes & (kReadPrefetchBytes - 1)) == 0,
                  "the read-prefetch granularity must be a power of two");

    /**
     * Motion-vector reach of P/B reference reads, in mabs.  Small
     * values give the high address locality real MC exhibits.
     */
    static constexpr std::uint32_t kMcReachMabs = 8;

    void validate() const;
};

} // namespace vstream

#endif // VSTREAM_DECODER_DECODER_CONFIG_HH
