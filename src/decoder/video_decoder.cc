#include "decoder/video_decoder.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

namespace
{

/**
 * Lines per read region of the VD cache: every read is widened to
 * whole kReadPrefetchBytes regions, so the cache checks one tag per
 * region when a region is a power-of-two number of lines no larger
 * than the set count, and walks lines otherwise.
 */
std::uint32_t
readRegionLines(const CacheConfig &cache)
{
    const std::uint32_t lines =
        DecoderConfig::kReadPrefetchBytes / cache.line_bytes;
    const bool pow2 = lines > 0 && (lines & (lines - 1)) == 0;
    return pow2 && lines <= cache.numSets() ? lines : 1;
}

} // namespace

VideoDecoder::VideoDecoder(std::string name, EventQueue *,
                           MemorySystem &mem, const DecoderConfig &cfg,
                           const VideoProfile &profile)
    : name_(std::move(name)), mem_(mem), cfg_(cfg),
      profile_(profile), cost_(profile, cfg.power, cfg.cost)
{
    cfg_.validate();
    cache_ = std::make_unique<SetAssocCache>(
        name_ + ".cache", cfg_.cache, readRegionLines(cfg_.cache));
    encoded_region_ = mem_.allocate(DecoderConfig::kEncodedRingBytes,
                                    "vd.encoded_ring");
}

Tick
VideoDecoder::readThroughCache(Addr addr, std::uint32_t size, Tick now,
                               Tick *stall)
{
    // Widen the access to the prefetch granularity: the read engines
    // (bitstream DMA, MC fetcher) fill whole aligned regions in one
    // dense burst, so fills of one region row-hit each other.
    const Addr mask = ~Addr{DecoderConfig::kReadPrefetchBytes - 1};
    const Addr lo = addr & mask;
    const Addr hi = (addr + size + DecoderConfig::kReadPrefetchBytes - 1) &
                    mask;

    const auto widened = static_cast<std::uint32_t>(hi - lo);
    if (cache_->tryMruReadHit(lo, widened)) {
        return now; // all hits: no fills to fetch
    }
    CacheAccessSummary &s = access_scratch_;
    cache_->accessInto(lo, widened, s);
    const Tick t = mem_.readLines(s.fills, cfg_.cache.line_bytes,
                                  Requester::kVideoDecoder, now);
    *stall += t - now;
    return t;
}

Tick
VideoDecoder::readEncoded(std::uint64_t bytes, Tick now, Tick *stall)
{
    // Sequential walk of the encoded ring through the VD cache; the
    // cursor stays wrapped into the ring.
    const Addr addr = encoded_region_ + encoded_cursor_;
    encoded_cursor_ += bytes;
    while (encoded_cursor_ >= DecoderConfig::kEncodedRingBytes) {
        encoded_cursor_ -= DecoderConfig::kEncodedRingBytes;
    }
    return readThroughCache(addr, static_cast<std::uint32_t>(bytes), now,
                            stall);
}

Tick
VideoDecoder::readReference(const BufferSlot &prev, std::uint32_t idx,
                            std::uint32_t mab_count,
                            std::int32_t reach_off, Tick now, Tick *stall)
{
    // Motion vectors are short: the reference block sits near the
    // same position in the previous frame.  That locality does not
    // shape Fig. 7a: its compute miss rate is flat (4.96% at 32 KB,
    // 4.94% at 512 KB), because every compute miss is compulsory.
    // The read goes to the reference's linear address under every
    // layout, also under M and G, where the slot holds the frame
    // MACH-compacted and the block may be stored elsewhere or not
    // at all (DESIGN.md section 2).
    std::int64_t ref_idx = static_cast<std::int64_t>(idx) + reach_off;
    if (ref_idx < 0) {
        ref_idx = 0;
    }
    if (ref_idx >= static_cast<std::int64_t>(mab_count)) {
        ref_idx = mab_count - 1;
    }

    const std::uint32_t mab_bytes =
        profile_.mab_dim * profile_.mab_dim * kBytesPerPixel;
    const Addr addr = prev.data_base +
                      static_cast<Addr>(ref_idx) * mab_bytes;

    return readThroughCache(addr, mab_bytes, now, stall);
}

FrameDecodeResult
VideoDecoder::decodeFrame(const Frame &frame, WritebackStage &wb,
                          BufferSlot &slot, const BufferSlot *prev_slot,
                          Tick start, FrameLayout &layout)
{
    FrameDecodeResult result;
    result.start = start;
    result.mabs = frame.mabCount();
    result.encoded_bytes = frame.encodedBytes();

    // Per-frame deterministic jitter stream: identical across
    // schemes/frequencies so comparisons see the same video.
    Random jitter_rng(profile_.seed ^
                      (frame.index() * 0x9e3779b97f4a7c15ULL));

    // The writeback engine is a DMA master behind the cache: lines
    // covering the buffer being overwritten must be invalidated or
    // later MC reads would hit stale data from the slot's previous
    // occupant.
    cache_->invalidateRange(slot.data_base, slot.data_capacity);

    wb.beginFrame(frame, slot, start, layout);

    const double hz = cfg_.power.frequencyHz(freq_);
    const std::uint32_t mab_count = frame.mabCount();
    const std::uint64_t enc_per_mab =
        std::max<std::uint64_t>(1, frame.encodedBytes() / mab_count);
    const bool needs_mc = frame.type() != FrameType::kI;

    Tick t = start;
    for (std::uint32_t i = 0; i < mab_count; ++i) {
        // 1. Fetch this mab's slice of the encoded stream.
        t = readEncoded(enc_per_mab, t, &result.mem_stall);

        // 2. Motion compensation reference (P/B mabs).
        if (needs_mc && prev_slot != nullptr) {
            constexpr auto reach = DecoderConfig::kMcReachMabs;
            const auto off =
                static_cast<std::int32_t>(jitter_rng.uniformInt(0, 2 * reach)) -
                static_cast<std::int32_t>(reach);
            t = readReference(*prev_slot, i, mab_count, off, t,
                              &result.mem_stall);
            ++result.mc_reads;
        }

        // 3. Compute: entropy decode + IQ/iDCT + reconstruction.
        const double jitter_factor = jitter_rng.uniform(
            1.0 - cfg_.cost.jitter, 1.0 + cfg_.cost.jitter);
        const double cycles =
            cost_.mabCycles(frame.type(), frame.complexity(),
                            jitter_factor);
        t += cyclesToTicks(static_cast<std::uint64_t>(cycles), hz);

        // 4. Writeback (posted; does not stall the pipeline) of the
        //    reconstructed block, viewed where the frame holds it.
        wb.writeMab(frame.mabBytes(i), i, t);
    }

    result.finish = t;
    ++frames_decoded_;
    return result;
}

void
VideoDecoder::regStats(StatsRegistry &r)
{
    r.addCallback(name_ + ".framesDecoded", "frames fully decoded",
                  [this] {
                      return static_cast<double>(frames_decoded_);
                  });
    cache_->regStats(r);
}

} // namespace vstream
