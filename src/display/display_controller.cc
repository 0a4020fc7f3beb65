#include "display/display_controller.hh"

#include <utility>

#include "core/flat_table.hh"
#include "display/frame_reconstructor.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

DisplayController::DisplayController(std::string name, EventQueue *,
                                     MemorySystem &mem,
                                     FrameBufferManager &fbm,
                                     const DisplayConfig &cfg)
    : name_(std::move(name)), mem_(mem), fbm_(fbm), cfg_(cfg)
{
    cfg_.validate();
    if (cfg_.use_display_cache) {
        display_cache_ = std::make_unique<SetAssocCache>(
            "dc.displayCache", cfg_.display_cache);
    }
    if (cfg_.use_mach_buffer) {
        mach_buffer_ = std::make_unique<MachBuffer>(
            cfg_.mach_buffer_entries, cfg_.mach_buffer_ways);
    }
}

Tick
DisplayController::streamRead(Addr base, std::uint64_t bytes, Tick now,
                              ScanStats &stats)
{
    // Sequential stream: one 64 B request per line, issued
    // back-to-back (the DC prefetches through a deep FIFO).
    constexpr std::uint32_t kLine = 64;
    const auto lines = static_cast<std::uint32_t>(bytes / kLine);
    const auto tail = static_cast<std::uint32_t>(bytes % kLine);
    Tick t = mem_.readRun(base, lines, kLine,
                          Requester::kDisplayController, now)
                 .finish_tick;
    if (tail > 0) {
        t = mem_.read(base + bytes - tail, tail,
                      Requester::kDisplayController, t)
                .finish_tick;
    }
    stats.dram_requests += lines + (tail > 0 ? 1 : 0);
    stats.bytes_read += bytes;
    return t;
}

Tick
DisplayController::fetchBlock(Addr addr, std::uint32_t size, Tick now,
                              ScanStats &stats)
{
    if (display_cache_) {
        display_cache_->accessInto(addr, size, access_scratch_);
        const std::vector<Addr> &fills = access_scratch_.fills;
        const std::uint32_t span = access_scratch_.lines;
        const std::uint32_t line = display_cache_->config().line_bytes;
        if (span > 1) {
            ++stats.fragmented_fetches;
        }
        stats.display_cache_hits += span - fills.size();
        stats.display_cache_misses += fills.size();
        stats.dram_requests += fills.size();
        stats.bytes_read += fills.size() * line;
        return mem_.readLines(fills, line, Requester::kDisplayController,
                              now);
    }
    // No display cache: every line of the block hits DRAM.
    const auto span =
        static_cast<std::uint32_t>((addr + size - 1) / 64 - addr / 64 + 1);
    if (span > 1) {
        ++stats.fragmented_fetches;
    }
    stats.dram_requests += span;
    stats.bytes_read += span * 64ULL;
    return mem_.readRun(addr / 64 * 64, span, 64,
                        Requester::kDisplayController, now)
        .finish_tick;
}

std::span<const std::uint8_t>
DisplayController::resolveDigestMiss(const FrameLayout &layout,
                                     std::uint32_t digest, Tick &now,
                                     ScanStats &stats)
{
    // The digest is not resident in the MACH buffer: consult the
    // dumped MACH images (one extra metadata read), then fetch the
    // block through the display-cache path.
    const MemResult meta = mem_.read(layout.machDumpBase(), 64,
                                     Requester::kDisplayController, now);
    now = meta.finish_tick;
    ++stats.dram_requests;
    stats.bytes_read += 64;

    for (std::size_t k = 0; k < dump_count_; ++k) {
        for (const auto &[d, ptr] : dumpAt(k)) {
            if (d == digest) {
                now = fetchBlock(ptr, layout.mabBytes(), now, stats);
                return fbm_.loadBlock(ptr);
            }
        }
    }
    return {};
}

// vstream:hot
// vstream:allow(no-hotpath-alloc) warmup-only: ring slots reserved
// to the per-frame mab bound once, then recycled allocation-free
void
DisplayController::pushDump(const MachDumpVec &dump,
                            std::size_t cap_hint)
{
    const std::size_t cap = cfg_.mach_window;
    if (cap == 0) {
        return;
    }
    if (dump_ring_.size() < cap && dump_next_ == dump_ring_.size()) {
        dump_ring_.push_back(dump);
        // A dump lists at most one entry per mab of the frame, so
        // reserving the mab count makes every later recycle of this
        // slot allocation-free no matter how dump sizes vary.
        dump_ring_.back().reserve(cap_hint);
        dump_next_ = dump_ring_.size() % cap;
    } else {
        MachDumpVec &slot = dump_ring_[dump_next_];
        slot.reserve(cap_hint);
        slot.assign(dump.begin(), dump.end());
        dump_next_ = (dump_next_ + 1) % cap;
    }
    dump_count_ = std::min(dump_count_ + 1, cap);
}

const DisplayController::MachDumpVec &
DisplayController::dumpAt(std::size_t i) const
{
    vs_assert(i < dump_count_, "dump ring index out of range");
    const std::size_t cap = cfg_.mach_window;
    return dump_ring_[(dump_next_ + cap - 1 - i) % cap];
}

ScanStats
DisplayController::scanOut(const FrameLayout &layout, Tick now,
                           bool re_render)
{
    ScanStats stats;
    stats.start = now;
    Tick t = now;

    // Transaction elimination: the frame on the panel already shows
    // exactly this content - skip the whole scan.
    if (cfg_.transaction_elimination &&
        on_screen_checksum_ == layout.sourceChecksum()) {
        stats.finish = now;
        stats.verified = true;
        stats.eliminated = true;
        ++totals_.frames_shown;
        ++totals_.eliminated_frames;
        // The panel keeps showing exactly this content; fold its
        // checksum so the digest covers eliminated frames too.
        totals_.pixel_digest = mixHash(
            totals_.pixel_digest ^ layout.sourceChecksum());
        if (re_render) {
            ++totals_.re_renders;
        }
        return stats;
    }

    // The shown frame is verified from the blocks as fetched: each
    // is folded into the frame CRC straight from storage.
    ShownFrameCrc shown;

    if (layout.kind() == LayoutKind::kLinear) {
        // Baseline: stream the whole decoded frame.
        const std::uint64_t frame_bytes =
            static_cast<std::uint64_t>(layout.mabCount()) *
            layout.mabBytes();
        t = streamRead(layout.dataBase(), frame_bytes, t, stats);
        // Record i sits at dataBase() + i * mabBytes(), stored in
        // order: the frame is one run.
        const std::span<const std::uint8_t> all =
            fbm_.loadRun(layout.dataBase(), frame_bytes);
        vs_assert(!all.empty(), "linear frame ", layout.frameIndex(),
                  " is not stored back to back");
        shown.add(all, layout.record(0), false);
    } else {
        // Metadata stream: pointers/digests (+ bases + bitmap).
        t = streamRead(layout.metaBase(), layout.metaBytes(), t, stats);
        stats.meta_bytes = layout.metaBytes();

        // Pick up this frame's MACH dump for future digest lookups.
        if (layout.kind() == LayoutKind::kPointerDigest &&
            layout.machDumpBytes() > 0 && !re_render) {
            t = streamRead(layout.machDumpBase(), layout.machDumpBytes(),
                           t, stats);
            stats.meta_bytes += layout.machDumpBytes();
            pushDump(layout.machDump(), layout.mabCount());
        }

        // Digests present in this frame's dump: unique blocks worth
        // inserting into the MACH buffer as they stream past.
        FlatSet<std::uint32_t> &dump_digests = dump_digest_scratch_;
        dump_digests.clear();
        for (const auto &[d, ptr] : layout.machDump()) {
            dump_digests.insert(d);
        }

        for (std::uint32_t i = 0; i < layout.mabCount(); ++i) {
            const MabRecord &rec = layout.record(i);
            std::span<const std::uint8_t> stored;

            if (rec.storage == MabStorage::kInterDigest && mach_buffer_) {
                ++stats.digest_records;
                const std::span<const std::uint8_t> hit =
                    mach_buffer_->lookup(rec.digest);
                if (!hit.empty()) {
                    ++stats.mach_buffer_hits;
                    // A later insert in this scan may overwrite the
                    // entry: fold its bytes now.
                    shown.addNow(hit, rec, layout.gradientMode());
                    continue;
                }
                ++stats.mach_buffer_misses;
                stored = resolveDigestMiss(layout, rec.digest, t, stats);
                if (stored.empty()) {
                    // Dump aged out too: fall back to the block
                    // pointer the record still carries.
                    t = fetchBlock(rec.data_addr, layout.mabBytes(), t,
                                   stats);
                    stored = fbm_.loadBlock(rec.data_addr);
                }
            } else {
                ++stats.pointer_records;
                t = fetchBlock(rec.data_addr, layout.mabBytes(), t,
                               stats);
                stored = fbm_.loadBlock(rec.data_addr);
                if (!stored.empty() && mach_buffer_ &&
                    rec.storage == MabStorage::kUnique &&
                    dump_digests.contains(rec.digest)) {
                    mach_buffer_->insert(rec.digest, stored);
                }
            }

            vs_assert(!stored.empty(),
                      "display could not locate block for mab ", i,
                      " of frame ", layout.frameIndex());
            shown.add(stored, rec, layout.gradientMode());
        }
    }

    stats.finish = t;
    const std::uint32_t shown_sum = shown.digest();
    stats.shown_checksum = shown_sum;
    stats.verified = shown_sum == layout.sourceChecksum();
    on_screen_checksum_ = layout.sourceChecksum();
    totals_.pixel_digest =
        mixHash(totals_.pixel_digest ^ shown_sum);

    ++totals_.frames_shown;
    if (re_render) {
        ++totals_.re_renders;
    }
    totals_.dram_requests += stats.dram_requests;
    totals_.bytes_read += stats.bytes_read;
    totals_.meta_bytes += stats.meta_bytes;
    totals_.digest_records += stats.digest_records;
    totals_.pointer_records += stats.pointer_records;
    totals_.fragmented_fetches += stats.fragmented_fetches;
    if (!stats.verified) {
        ++totals_.verify_failures;
    }
    return stats;
}

void
DisplayController::regStats(StatsRegistry &r)
{
    r.addCallback(name_ + ".framesShown", "frames scanned out",
                  [this] {
                      return static_cast<double>(totals_.frames_shown);
                  });
    r.addCallback(name_ + ".reRenders",
                  "stale frames shown again after a drop", [this] {
                      return static_cast<double>(totals_.re_renders);
                  });
    r.addCallback(name_ + ".dramRequests", "DRAM requests issued",
                  [this] {
                      return static_cast<double>(totals_.dram_requests);
                  });
    r.addCallback(name_ + ".bytesRead", "frame-buffer bytes fetched",
                  [this] {
                      return static_cast<double>(totals_.bytes_read);
                  });
    r.addCallback(name_ + ".metaBytes", "layout metadata bytes fetched",
                  [this] {
                      return static_cast<double>(totals_.meta_bytes);
                  });
    r.addCallback(name_ + ".eliminatedFrames",
                  "scans skipped by transaction elimination", [this] {
                      return static_cast<double>(
                          totals_.eliminated_frames);
                  });
    r.addCallback(name_ + ".verifyFailures",
                  "frames whose checksum mismatched", [this] {
                      return static_cast<double>(
                          totals_.verify_failures);
                  });
    r.addCallback(name_ + ".underrunRepeats",
                  "frame repeats forced by a buffer underrun", [this] {
                      return static_cast<double>(
                          totals_.underrun_repeats);
                  });
    if (display_cache_) {
        display_cache_->regStats(r);
    }
    if (mach_buffer_) {
        mach_buffer_->regStats(r, name_ + ".machBuffer");
    }
}

} // namespace vstream
