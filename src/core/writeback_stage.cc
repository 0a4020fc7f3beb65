#include "core/writeback_stage.hh"

#include <algorithm>
#include <bit>

#include "core/dcc.hh"
#include "hash/hasher.hh"
#include "sim/logging.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

namespace
{

/** Whether @p mab views mab @p idx of @p frame in place: the same
 * storage, so the same bytes. */
bool
viewsMab(const Frame *frame, Macroblock mab, std::uint32_t idx)
{
    return frame != nullptr && idx < frame->mabCount() &&
           mab.data() == frame->mabBytes(idx).data() &&
           mab.size() == frame->mabSizeBytes();
}

/** The gab base of @p mab: its first pixel. */
Pixel
gabBase(Macroblock mab)
{
    return Pixel{mab[0], mab[1], mab[2]};
}

} // namespace

double
WritebackTotals::savings(std::uint32_t mab_bytes) const
{
    const auto baseline = baselineBytes(mab_bytes);
    if (baseline == 0) {
        return 0.0;
    }
    return 1.0 - static_cast<double>(totalBytes()) /
                     static_cast<double>(baseline);
}

// ---------------------------------------------------------------------
// LinearWriteback
// ---------------------------------------------------------------------

LinearWriteback::LinearWriteback(MemorySystem &mem, FrameBufferManager &fbm)
    : fbm_(fbm), data_buf_(mem, totals_.dram_write_requests)
{
}

void
LinearWriteback::beginFrame(const Frame &frame, BufferSlot &slot,
                            Tick /*now*/, FrameLayout &layout)
{
    slot_ = &slot;
    frame_ = &frame;
    mab_bytes_ = frame.mabSizeBytes();
    layout.reinit(frame.index(), LayoutKind::kLinear, frame.mabCount(),
                  mab_bytes_, /*gradient_mode=*/false);
    layout_ = &layout;
    layout_->setDataBase(slot.data_base);
    layout_->setMetaBase(slot.meta_base);
    layout_->setSourceChecksum(frame.contentChecksum());
    data_buf_.rebase(slot.data_base);
}

// vstream:hot
void
LinearWriteback::writeMab(const Macroblock &mab, std::uint32_t idx,
                          Tick now)
{
    vs_assert(layout_ != nullptr, "writeMab outside a frame");
    vs_assert(viewsMab(frame_, mab, idx),
              "writeMab must view the frame given to beginFrame");
    const Addr addr =
        slot_->data_base + static_cast<Addr>(idx) * mab_bytes_;
    fbm_.storeBlock(*slot_, addr, mab);

    MabRecord &rec = layout_->record(idx);
    rec.storage = MabStorage::kUnique;
    rec.data_addr = static_cast<std::uint32_t>(addr);
    rec.base = gabBase(mab);

    data_buf_.append(mab_bytes_, now);
    ++totals_.mabs;
    ++totals_.unique_blocks;
    totals_.data_bytes += mab_bytes_;
}

void
LinearWriteback::finishFrame(Tick now)
{
    vs_assert(layout_ != nullptr, "finishFrame outside a frame");
    data_buf_.flush(now);
    layout_->setDataBytes(static_cast<std::uint64_t>(
                              layout_->mabCount()) *
                          mab_bytes_);
    layout_->setMetaBytes(0);
    layout_ = nullptr;
    slot_ = nullptr;
    frame_ = nullptr;
}

// ---------------------------------------------------------------------
// MachRepr
// ---------------------------------------------------------------------

// vstream:allow(no-hotpath-alloc) sizes the storage on the first frame
// of a stream; every later call is a no-op at the fixed mab count
void
MachRepr::sizeFor(std::uint32_t mabs, std::uint32_t block_size,
                   const MachConfig &cfg)
{
    vs_assert(block_size <= UINT16_MAX, "a ", block_size,
              " B block overflows MachOutcome::stored_bytes");
    block_bytes = block_size;
    gabs.resize(cfg.use_gradient
                    ? static_cast<std::size_t>(mabs) * block_size
                    : 0);
    digests.resize(mabs);
    auxes.resize(cfg.co_mach ? mabs : 0);
    outcomes.resize(mabs);
    // A dump never exceeds the MACH's entry count.
    dump.reserve(cfg.entries);
}

namespace
{

/**
 * Compute @p frame's representation under @p cfg into @p out a chunk
 * of mabs at a time, and call @p then(first, n) after each chunk, while
 * its blocks are still in cache.
 */
template <typename Then>
void
reprChunks(const Frame &frame, const MachConfig &cfg, MachRepr &out,
           Then &&then)
{
    const std::uint32_t count = frame.mabCount();
    const std::uint32_t size = frame.mabSizeBytes();
    out.sizeFor(count, size, cfg);
    out.frame_index = frame.index();
    const std::uint8_t *plane = frame.plane().data();

    // Gab transform and digests a chunk at a time, so each chunk's
    // blocks are still in cache when the batched kernels read them.
    constexpr std::uint32_t kChunk = 256;
    const std::uint8_t *blocks[kChunk];
    for (std::uint32_t first = 0; first < count; first += kChunk) {
        const std::uint32_t n = std::min(kChunk, count - first);
        for (std::uint32_t j = 0; j < n; ++j) {
            const std::size_t off =
                static_cast<std::size_t>(first + j) * size;
            if (cfg.use_gradient) {
                std::uint8_t *gab = out.gabs.data() + off;
                gradientSub(gab, plane + off, size, frame.mabBase(first + j));
                blocks[j] = gab;
            } else {
                blocks[j] = plane + off;
            }
        }
        digest32Batch(cfg.hash, blocks, size, n, out.digests.data() + first);
        if (cfg.co_mach) {
            auxDigest16Batch(blocks, size, n, out.auxes.data() + first);
        }
        then(first, n);
    }
}

/** A pointer as the MACH array stores it: frame index and byte
 * offset in that frame's data region. */
constexpr Addr
framePtr(std::uint32_t frame, std::uint32_t offset)
{
    return static_cast<Addr>(frame) << 32 | offset;
}

/**
 * Decide one block of frame @p frame: probe @p machs and, on a miss,
 * size the block (DCC when @p dcc) and store it at @p offset, which
 * advances past it.  @p looked_up receives the digest the probe used.
 */
MachOutcome
decideMab(MachArray &machs, bool dcc, std::uint32_t frame,
          std::span<const std::uint8_t> truth, std::uint32_t digest,
          std::uint16_t aux, std::uint32_t &offset, Tick now,
          std::uint32_t &looked_up)
{
    const MachLookupResult hit = machs.probe(digest, aux, truth, now);
    looked_up = hit.digest;
    MachOutcome out;
    out.bits = hit.bits();
    if (hit.hit) {
        out.frame = static_cast<std::uint32_t>(hit.ptr >> 32);
        out.offset = static_cast<std::uint32_t>(hit.ptr);
        return out;
    }
    auto stored = static_cast<std::uint32_t>(truth.size());
    if (dcc) {
        stored = std::min(dccCompress(truth).compressed_bytes, stored);
    }
    out.frame = frame;
    out.offset = offset;
    out.stored_bytes = static_cast<std::uint16_t>(stored);
    if (hit.collision_detected && machs.config().co_mach) {
        out.bits |= kMachCoMachInsert;
    }
    machs.store(digest, aux, framePtr(frame, offset), truth,
                hit.collision_detected);
    offset += stored;
    return out;
}

/** Compute @p frame's MACH representation under @p cfg into @p out,
 * deciding nothing: a pure function of the frame's bytes and the
 * config. */
// vstream:hot
void
prepareMachRepr(const Frame &frame, const MachConfig &cfg, MachRepr &out)
{
    reprChunks(frame, cfg, out, [](std::uint32_t, std::uint32_t) {});
}

} // namespace

// vstream:hot
void
prepareMachFrame(const Frame &frame, const MachPlan &plan, MachRepr &out)
{
    MachArray &machs = *plan.machs;
    const MachConfig &cfg = machs.config();
    if (machs.injectsCollisions()) {
        prepareMachRepr(frame, cfg, out);
        return;
    }
    machs.beginFrame();
    const auto index = static_cast<std::uint32_t>(frame.index());
    std::uint32_t offset = 0;
    std::uint32_t looked_up = 0;
    // Each chunk is decided while its gab bytes are still in cache.
    reprChunks(frame, cfg, out, [&](std::uint32_t first, std::uint32_t n) {
        for (std::uint32_t i = first; i < first + n; ++i) {
            out.outcomes[i] = decideMab(
                machs, plan.dcc, index,
                cfg.use_gradient ? out.gab(i) : frame.mabBytes(i),
                out.digests[i], cfg.co_mach ? out.auxes[i] : 0, offset, 0,
                looked_up);
        }
    });
    out.dump.clear();
    if (plan.layout == LayoutKind::kPointerDigest) {
        machs.ring().forEachValid([&](std::uint32_t digest, Addr ptr) {
            // A dump fits the cfg.entries that sizeFor() reserved.
            // vstream:allow(no-hotpath-alloc)
            out.dump.emplace_back(digest, ptr);
        });
    }
}

// ---------------------------------------------------------------------
// MachWriteback
// ---------------------------------------------------------------------

MachWriteback::MachWriteback(MemorySystem &mem, FrameBufferManager &fbm,
                             MachArray &machs, LayoutKind layout_kind,
                             bool use_dcc)
    : mem_(mem), fbm_(fbm), machs_(machs), layout_kind_(layout_kind),
      use_dcc_(use_dcc), data_buf_(mem, totals_.dram_write_requests),
      meta_buf_(mem, totals_.dram_write_requests),
      base_buf_(mem, totals_.dram_write_requests),
      bases_(std::bit_ceil(machs.config().num_machs),
             {MachRepr::kNoFrame, 0})
{
    vs_assert(layout_kind_ != LayoutKind::kLinear,
              "MachWriteback requires a pointer-based layout");
    if (use_dcc_) {
        // Compressed unique blocks pack closer than a mab apart.
        fbm_.expectPackedStores();
    }
}

Addr
MachWriteback::blockAddr(std::uint32_t frame, std::uint32_t offset) const
{
    const auto &[index, base] = bases_[frame & (bases_.size() - 1)];
    vs_assert(index == frame, "MACH pointer into frame ", frame,
              ", outside the frames begun last");
    return base + offset;
}

void
MachWriteback::beginFrame(const Frame &frame, BufferSlot &slot,
                          Tick /*now*/, FrameLayout &layout)
{
    slot_ = &slot;
    frame_ = &frame;
    mab_bytes_ = frame.mabSizeBytes();
    layout.reinit(frame.index(), layout_kind_, frame.mabCount(),
                  mab_bytes_, machs_.config().use_gradient);
    layout_ = &layout;
    layout_->setDataBase(slot.data_base);
    layout_->setMetaBase(slot.meta_base);
    layout_->setMachDumpBase(slot.mach_dump_base);
    layout_->setSourceChecksum(frame.contentChecksum());
    bases_[frame.index() & (bases_.size() - 1)] = {frame.index(),
                                                   slot.data_base};

    data_buf_.rebase(slot.data_base);
    // Pointer/digest stream first, bases behind it (both live in the
    // metadata region; exact packing is immaterial to the model).
    meta_buf_.rebase(slot.meta_base);
    base_buf_.rebase(slot.meta_base +
                     static_cast<Addr>(frame.mabCount()) * 5);

    frame_data_bytes_ = 0;
    frame_meta_bytes_ = 0;

    // The whole frame's representation and outcomes: prepared ahead
    // when the caller offered them, else here.
    frame_ = &frame;
    if (offered_ != nullptr) {
        vs_assert(offered_->frame_index == frame.index(),
                  "offered frame ", offered_->frame_index,
                  " for frame ", frame.index());
        repr_ = offered_;
    } else {
        prepareMachFrame(frame, plan(), own_);
        repr_ = &own_;
    }
    if (machs_.injectsCollisions()) {
        machs_.beginFrame();
    }
}

// vstream:hot
void
MachWriteback::writeMab(const Macroblock &mab, std::uint32_t idx, Tick now)
{
    vs_assert(layout_ != nullptr, "writeMab outside a frame");
    vs_assert(viewsMab(frame_, mab, idx),
              "writeMab must view the frame given to beginFrame");
    const MachConfig &cfg = machs_.config();
    const bool gab_mode = cfg.use_gradient;

    // Representation stored in memory: the gab in gradient mode.
    const std::span<const std::uint8_t> repr =
        gab_mode ? repr_->gab(idx) : mab;
    const std::uint32_t digest = repr_->digests[idx];

    MabRecord &rec = layout_->record(idx);
    rec.digest = digest;
    rec.base = gabBase(mab);

    // The decision: made ahead, or here when it needs this block's
    // decode tick (collision injection).
    MachOutcome o;
    std::uint32_t looked_up = digest;
    if (machs_.injectsCollisions()) {
        auto offset = static_cast<std::uint32_t>(frame_data_bytes_);
        o = decideMab(machs_, use_dcc_,
                      static_cast<std::uint32_t>(frame_->index()), repr,
                      digest, cfg.co_mach ? repr_->auxes[idx] : 0, offset,
                      now, looked_up);
    } else {
        o = repr_->outcomes[idx];
    }
    machs_.count(o.bits, looked_up);

    ++totals_.mabs;

    if ((o.bits & kMachHit) != 0) {
        // Match: store only the pointer (layout ii) or, for
        // inter-matches in layout iii, the digest.
        const bool inter = (o.bits & kMachInter) != 0;
        const bool as_digest =
            layout_kind_ == LayoutKind::kPointerDigest && inter;
        rec.storage = as_digest
                          ? MabStorage::kInterDigest
                          : (inter ? MabStorage::kInterPointer
                                   : MabStorage::kIntraPointer);
        rec.data_addr =
            static_cast<std::uint32_t>(blockAddr(o.frame, o.offset));

        const std::uint32_t meta =
            (as_digest ? cfg.digest_bytes : cfg.pointer_bytes);
        meta_buf_.append(meta, now);
        frame_meta_bytes_ += meta;
        if (gab_mode) {
            base_buf_.append(cfg.base_bytes, now);
            frame_meta_bytes_ += cfg.base_bytes;
        }
        if (inter) {
            ++totals_.inter_matches;
        } else {
            ++totals_.intra_matches;
        }
        return;
    }

    // No match: append the block to the compacted data region.
    vs_assert(o.frame == frame_->index() && o.offset == frame_data_bytes_,
              "unique block of mab ", idx, " decided out of order");
    const Addr addr = slot_->data_base + o.offset;
    const std::uint32_t stored_bytes = o.stored_bytes;
    totals_.dcc_saved_bytes += repr.size() - stored_bytes;
    fbm_.storeBlock(*slot_, addr, repr);

    rec.storage = MabStorage::kUnique;
    rec.data_addr = static_cast<std::uint32_t>(addr);

    data_buf_.append(stored_bytes, now);
    frame_data_bytes_ += stored_bytes;
    totals_.data_bytes += stored_bytes;

    // The unique block also stores its pointer (Fig. 8a: 52 bytes).
    meta_buf_.append(cfg.pointer_bytes, now);
    frame_meta_bytes_ += cfg.pointer_bytes;
    if (gab_mode) {
        base_buf_.append(cfg.base_bytes, now);
        frame_meta_bytes_ += cfg.base_bytes;
    }

    machs_.countInsert(o.bits);
    ++totals_.unique_blocks;
}

void
MachWriteback::finishFrame(Tick now)
{
    vs_assert(layout_ != nullptr, "finishFrame outside a frame");
    const MachConfig &cfg = machs_.config();

    data_buf_.flush(now);
    meta_buf_.flush(now);
    base_buf_.flush(now);

    // The pointer-vs-digest bitmap (layout iii): 1 bit per mab.
    if (layout_kind_ == LayoutKind::kPointerDigest) {
        const std::uint32_t bitmap_bytes =
            (layout_->mabCount() + 7) / 8;
        mem_.write(slot_->meta_base + slot_->meta_capacity -
                       bitmap_bytes,
                   bitmap_bytes, Requester::kVideoDecoder, now);
        ++totals_.dram_write_requests;
        frame_meta_bytes_ += bitmap_bytes;

        // Dump the frozen MACH image for the display's MACH buffer,
        // built in place so a recycled layout reuses its capacity.
        // A dump never exceeds the MACH's entry count, so reserving
        // that bound up front makes the growth warmup-only instead of
        // chasing the largest dump seen so far.
        auto &dump = layout_->machDumpMutable();
        // vstream:allow(no-hotpath-alloc) bounded one-time reserve:
        // no-op once the recycled layout has reached cfg.entries
        dump.reserve(cfg.entries);
        dump.clear();
        const auto emit = [&](std::uint32_t digest, Addr ptr) {
            dump.emplace_back(digest,
                              blockAddr(static_cast<std::uint32_t>(
                                            ptr >> 32),
                                        static_cast<std::uint32_t>(ptr)));
        };
        if (machs_.injectsCollisions()) {
            machs_.ring().forEachValid(emit);
        } else {
            for (const auto &[digest, ptr] : repr_->dump) {
                emit(digest, ptr);
            }
        }
        const std::uint64_t dump_bytes =
            dump.size() * (cfg.digest_bytes + cfg.pointer_bytes);
        if (dump_bytes > 0) {
            mem_.write(slot_->mach_dump_base,
                       static_cast<std::uint32_t>(dump_bytes),
                       Requester::kVideoDecoder, now);
            ++totals_.dram_write_requests;
        }
        layout_->setMachDumpBytes(dump_bytes);
        totals_.dump_bytes += dump_bytes;
    }

    totals_.meta_bytes += frame_meta_bytes_;
    layout_->setDataBytes(frame_data_bytes_);
    layout_->setMetaBytes(frame_meta_bytes_);

    layout_ = nullptr;
    slot_ = nullptr;
    frame_ = nullptr;
    offered_ = nullptr;
    repr_ = nullptr;
}

} // namespace vstream
