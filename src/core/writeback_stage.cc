#include "core/writeback_stage.hh"

#include <algorithm>

#include "core/dcc.hh"
#include "hash/hasher.hh"
#include "sim/logging.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

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
    const Addr addr =
        slot_->data_base + static_cast<Addr>(idx) * mab_bytes_;
    fbm_.storeBlock(*slot_, addr, mab.bytes());

    MabRecord &rec = layout_->record(idx);
    rec.storage = MabStorage::kUnique;
    rec.data_addr = addr;
    rec.base = mab.base();

    data_buf_.append(mab.sizeBytes(), now);
    ++totals_.mabs;
    ++totals_.unique_blocks;
    totals_.data_bytes += mab.sizeBytes();
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
    block_bytes = block_size;
    gabs.resize(cfg.use_gradient
                    ? static_cast<std::size_t>(mabs) * block_size
                    : 0);
    digests.resize(mabs);
    auxes.resize(cfg.co_mach ? mabs : 0);
}

// vstream:hot
void
prepareMachRepr(const Frame &frame, const MachConfig &cfg, MachRepr &out)
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
      base_buf_(mem, totals_.dram_write_requests)
{
    vs_assert(layout_kind_ != LayoutKind::kLinear,
              "MachWriteback requires a pointer-based layout");
}

void
MachWriteback::beginFrame(const Frame &frame, BufferSlot &slot,
                          Tick /*now*/, FrameLayout &layout)
{
    slot_ = &slot;
    mab_bytes_ = frame.mabSizeBytes();
    machs_.beginFrame();
    layout.reinit(frame.index(), layout_kind_, frame.mabCount(),
                  mab_bytes_, machs_.config().use_gradient);
    layout_ = &layout;
    layout_->setDataBase(slot.data_base);
    layout_->setMetaBase(slot.meta_base);
    layout_->setMachDumpBase(slot.mach_dump_base);
    layout_->setSourceChecksum(frame.contentChecksum());

    data_buf_.rebase(slot.data_base);
    // Pointer/digest stream first, bases behind it (both live in the
    // metadata region; exact packing is immaterial to the model).
    meta_buf_.rebase(slot.meta_base);
    base_buf_.rebase(slot.meta_base +
                     static_cast<Addr>(frame.mabCount()) * 5);

    frame_data_bytes_ = 0;
    frame_meta_bytes_ = 0;

    // The whole frame's gab bytes and digests: prepared ahead when
    // the caller offered them for this frame, else here.
    frame_ = &frame;
    if (offered_ != nullptr && offered_->frame_index == frame.index()) {
        repr_ = offered_;
    } else {
        prepareMachRepr(frame, machs_.config(), own_);
        repr_ = &own_;
    }
}

// vstream:hot
void
MachWriteback::writeMab(const Macroblock &mab, std::uint32_t idx, Tick now)
{
    vs_assert(layout_ != nullptr, "writeMab outside a frame");
    vs_assert(frame_ != nullptr && idx < frame_->mabCount() &&
                  blockEqual(mab.bytes(), frame_->mabBytes(idx)),
              "writeMab must walk the frame given to beginFrame");
    const MachConfig &cfg = machs_.config();
    const bool gab_mode = cfg.use_gradient;

    // Representation stored in memory: the gab in gradient mode.
    const std::span<const std::uint8_t> repr =
        gab_mode ? repr_->gab(idx)
                 : std::span<const std::uint8_t>(mab.bytes());
    const std::uint32_t digest = repr_->digests[idx];
    const std::uint16_t aux = cfg.co_mach ? repr_->auxes[idx] : 0;

    MabRecord &rec = layout_->record(idx);
    rec.digest = digest;
    rec.base = mab.base();

    const MachLookupResult hit =
        machs_.lookup(digest, aux, repr, now);

    ++totals_.mabs;

    if (hit.hit) {
        // Match: store only the pointer (layout ii) or, for
        // inter-matches in layout iii, the digest.
        const bool as_digest =
            layout_kind_ == LayoutKind::kPointerDigest && hit.inter;
        rec.storage = as_digest
                          ? MabStorage::kInterDigest
                          : (hit.inter ? MabStorage::kInterPointer
                                       : MabStorage::kIntraPointer);
        rec.data_addr = hit.ptr;

        const std::uint32_t meta =
            (as_digest ? cfg.digest_bytes : cfg.pointer_bytes);
        meta_buf_.append(meta, now);
        frame_meta_bytes_ += meta;
        if (gab_mode) {
            base_buf_.append(cfg.base_bytes, now);
            frame_meta_bytes_ += cfg.base_bytes;
        }
        if (hit.inter) {
            ++totals_.inter_matches;
        } else {
            ++totals_.intra_matches;
        }
        return;
    }

    // No match: append the block to the compacted data region.
    const Addr addr = slot_->data_base + frame_data_bytes_;
    const auto repr_bytes = static_cast<std::uint32_t>(repr.size());
    std::uint32_t stored_bytes = repr_bytes;
    if (use_dcc_) {
        const DccResult dcc = dccCompress(repr);
        totals_.dcc_saved_bytes += repr_bytes > dcc.compressed_bytes
                                       ? repr_bytes - dcc.compressed_bytes
                                       : 0;
        stored_bytes = std::min(dcc.compressed_bytes, repr_bytes);
    }
    fbm_.storeBlock(*slot_, addr, repr);

    rec.storage = MabStorage::kUnique;
    rec.data_addr = addr;

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

    machs_.insertUnique(digest, aux, addr, repr, hit.collision_detected);
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
        machs_.ring().forEachValid([&](std::uint32_t digest, Addr ptr) {
            dump.emplace_back(digest, ptr);
        });
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
