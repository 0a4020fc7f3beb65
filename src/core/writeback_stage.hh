/**
 * @file
 * Decoded-macroblock writeback paths.
 *
 * The decoder hands every decoded mab to a WritebackStage, which owns
 * how the frame reaches memory:
 *  - LinearWriteback:  the baseline streaming store (48 B per mab,
 *    write-combined into 64 B transactions, layout Fig. 9c(i));
 *  - MachWriteback:    the paper's content cache; unique blocks are
 *    appended to a compacted data region while matches store only a
 *    pointer or digest plus (in gab mode) the 3 B base
 *    (layouts Fig. 9c(ii)/(iii)), with CO-MACH and DCC options.
 *
 * A block's MACH outcome depends on the content only: its digest, its
 * aux, the truth compare and the order of earlier inserts.  So the
 * MACH work is split in two.  prepareMachFrame() - run by the
 * pipeline's preparation stage (core/frame_prep.hh), or by
 * MachWriteback::beginFrame() when nothing was offered - computes a
 * frame's MachRepr (gab bytes, digests, auxes) and decides every mab
 * against the MachArray: ring advance, probe, verify-on-hit, insert,
 * CO-MACH, the DCC size of each unique block and the frame's MACH
 * dump.  It records one MachOutcome per mab with a frame-relative
 * pointer, since the frame's buffer slot is not acquired yet.
 * MachWriteback::writeMab() applies an outcome: it translates the
 * pointer through the data_base of the last num_machs frames, stores
 * the unique block, feeds the coalescing buffers and does the
 * accounting (MachStats, match counts, CO-MACH inserts), so every
 * statistic covers exactly the blocks written.  Only a MachArray that
 * injects digest collisions decides each mab inside writeMab(): the
 * injector's consult depends on the block's decode tick.
 */

#ifndef VSTREAM_CORE_WRITEBACK_STAGE_HH
#define VSTREAM_CORE_WRITEBACK_STAGE_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/coalescing_buffer.hh"
#include "core/frame_buffer_manager.hh"
#include "core/framebuffer_layout.hh"
#include "core/mach_array.hh"
#include "video/frame.hh"

namespace vstream
{

/**
 * One decoded mab as a writeback stage receives it: a view of its
 * bytes in the frame's plane (Frame::mabBytes()), never a copy.  A
 * mab is a square block of pixels (4x4 = 48 B by default, the size
 * the paper's Fig. 12c selects); its first pixel is the gab base.
 */
using Macroblock = std::span<const std::uint8_t>;

/** Cumulative writeback statistics across all frames. */
struct WritebackTotals
{
    std::uint64_t mabs = 0;
    std::uint64_t unique_blocks = 0;
    std::uint64_t intra_matches = 0;
    std::uint64_t inter_matches = 0;
    std::uint64_t data_bytes = 0;
    std::uint64_t meta_bytes = 0;
    std::uint64_t dump_bytes = 0;
    std::uint64_t dram_write_requests = 0;
    /** Bytes DCC removed from unique-block writes. */
    std::uint64_t dcc_saved_bytes = 0;

    /** Total bytes this stage put into memory. */
    std::uint64_t totalBytes() const
    {
        return data_bytes + meta_bytes + dump_bytes;
    }

    /** Bytes the baseline layout would have written. */
    std::uint64_t
    baselineBytes(std::uint32_t mab_bytes) const
    {
        return mabs * mab_bytes;
    }

    /** Fractional saving vs the baseline (positive = fewer bytes). */
    double savings(std::uint32_t mab_bytes) const;
};

/** Abstract writeback path. */
class WritebackStage
{
  public:
    virtual ~WritebackStage() = default;

    /**
     * Begin writing @p frame into @p slot.
     *
     * @param layout caller-owned (typically pooled) storage the stage
     *               reinitialises and fills in place; it must outlive
     *               the matching finishFrame().
     */
    virtual void beginFrame(const Frame &frame, BufferSlot &slot,
                            Tick now, FrameLayout &layout) = 0;

    /** Write mab @p idx of the current frame (posted; no stall);
     * @p mab views the bytes of that mab in the frame given to
     * beginFrame(). */
    virtual void writeMab(const Macroblock &mab, std::uint32_t idx,
                          Tick now) = 0;

    /** Finish the frame, finalising the layout given to beginFrame(). */
    virtual void finishFrame(Tick now) = 0;

    const WritebackTotals &totals() const { return totals_; }

  protected:
    WritebackTotals totals_;
};

/** Baseline layout (i): every mab streamed to its linear address. */
class LinearWriteback : public WritebackStage
{
  public:
    LinearWriteback(MemorySystem &mem, FrameBufferManager &fbm);

    void beginFrame(const Frame &frame, BufferSlot &slot, Tick now,
                    FrameLayout &layout) override;
    void writeMab(const Macroblock &mab, std::uint32_t idx,
                  Tick now) override;
    void finishFrame(Tick now) override;

  private:
    FrameBufferManager &fbm_;
    CoalescingBuffer data_buf_;
    FrameLayout *layout_ = nullptr;
    BufferSlot *slot_ = nullptr;
    /** The frame given to beginFrame(). */
    const Frame *frame_ = nullptr;
    std::uint32_t mab_bytes_ = 0;
};

/**
 * One mab's MACH decision, compact.  The block it leads to is named
 * frame-relatively - a frame index and a byte offset into that
 * frame's data region - because the decision is made before the
 * frame's buffer slot is acquired.
 */
struct MachOutcome
{
    /** Frame whose data region holds the block: the matched frame's,
     * or this frame's for a unique block. */
    std::uint32_t frame = 0;
    /** Byte offset of the block in that frame's data region. */
    std::uint32_t offset = 0;
    /** Unique block: bytes stored (after DCC). */
    std::uint16_t stored_bytes = 0;
    /** MachBit flags of the lookup (and of the insert after a miss). */
    std::uint8_t bits = 0;

    bool operator==(const MachOutcome &) const = default;
};

/**
 * The MACH representation of one frame: what MachWriteback stores and
 * counts for each mab.  All storage is flat and reused from frame to
 * frame.
 */
struct MachRepr
{
    static constexpr std::uint64_t kNoFrame = UINT64_MAX;

    /** Index of the frame this was prepared from (kNoFrame: none). */
    std::uint64_t frame_index = kNoFrame;
    /** Bytes per block (one mab). */
    std::uint32_t block_bytes = 0;
    /** Gradient mode: every mab's gab, back to back; else empty. */
    std::vector<std::uint8_t> gabs;
    /** Primary digest of every block under MachConfig::hash. */
    std::vector<std::uint32_t> digests;
    /** CO-MACH: CRC16 aux of every block; else empty. */
    std::vector<std::uint16_t> auxes;
    /** Every mab's decision, unless the array injects collisions. */
    std::vector<MachOutcome> outcomes;
    /** Layout (iii), decided ahead: the frame's MACH after its last
     * insert, as (digest, frame-relative pointer) pairs. */
    std::vector<std::pair<std::uint32_t, Addr>> dump;

    /** Size the storage for @p mabs blocks of @p block_size bytes
     * under @p cfg (a no-op once sized for the stream). */
    void sizeFor(std::uint32_t mabs, std::uint32_t block_size,
                 const MachConfig &cfg);

    /** Gab bytes of mab @p i (gradient mode only). */
    std::span<const std::uint8_t>
    gab(std::uint32_t i) const
    {
        return {gabs.data() + static_cast<std::size_t>(i) * block_bytes,
                block_bytes};
    }
};

/** What deciding a frame's MACH outcomes needs: the array they
 * advance, the layout (iii records a dump) and whether unique blocks
 * are DCC-compressed. */
struct MachPlan
{
    MachArray *machs = nullptr;
    LayoutKind layout = LayoutKind::kPointerDigest;
    bool dcc = false;
};

/**
 * Prepare @p frame's representation into @p out and, unless the array
 * injects digest collisions, decide every mab against plan.machs in
 * frame order, advancing the array's state half only (the accounting
 * half is MachWriteback::writeMab()'s).  Frames must be prepared in
 * order, each once.
 */
void prepareMachFrame(const Frame &frame, const MachPlan &plan,
                      MachRepr &out);

/** MACH-compacted layouts (ii)/(iii). */
class MachWriteback : public WritebackStage
{
  public:
    /**
     * @param layout_kind kPointer (layout ii) or kPointerDigest
     *                    (layout iii, required for the MACH buffer)
     * @param use_dcc     additionally DCC-compress unique blocks
     */
    MachWriteback(MemorySystem &mem, FrameBufferManager &fbm,
                  MachArray &machs, LayoutKind layout_kind,
                  bool use_dcc = false);

    void beginFrame(const Frame &frame, BufferSlot &slot, Tick now,
                    FrameLayout &layout) override;
    void writeMab(const Macroblock &mab, std::uint32_t idx,
                  Tick now) override;
    void finishFrame(Tick now) override;

    MachArray &machs() { return machs_; }

    /** How this stage's frames are decided (prepareMachFrame()). */
    MachPlan plan() const { return {&machs_, layout_kind_, use_dcc_}; }

    /**
     * Offer the next frame's representation, prepared and decided by
     * prepareMachFrame() under plan() ahead of the decode (the
     * pipeline's FramePrep).  beginFrame() prepares inline when
     * nothing was offered; the offer lasts until finishFrame().
     * @p repr must stay untouched until then.
     */
    void offerPrepared(const MachRepr *repr) { offered_ = repr; }

  private:
    /** Address of the block at @p offset in frame @p frame's data
     * region; the frame must be one of the last num_machs begun. */
    Addr blockAddr(std::uint32_t frame, std::uint32_t offset) const;

    MemorySystem &mem_;
    FrameBufferManager &fbm_;
    MachArray &machs_;
    LayoutKind layout_kind_;
    bool use_dcc_;

    CoalescingBuffer data_buf_;
    CoalescingBuffer meta_buf_;
    CoalescingBuffer base_buf_;

    FrameLayout *layout_ = nullptr;
    BufferSlot *slot_ = nullptr;
    std::uint32_t mab_bytes_ = 0;
    std::uint64_t frame_data_bytes_ = 0;
    std::uint64_t frame_meta_bytes_ = 0;

    /** The frame given to beginFrame(). */
    const Frame *frame_ = nullptr;
    /** Prepared ahead by the caller (offerPrepared()), or null. */
    const MachRepr *offered_ = nullptr;
    /** The current frame's representation and outcomes: offered_
     * when there was an offer, else own_. */
    const MachRepr *repr_ = nullptr;
    /** Inline preparation, reused across frames. */
    MachRepr own_;
    /** (frame index, data_base) of the last num_machs frames begun,
     * at the index's low bits (the ring is num_machs rounded up to a
     * power of two): where frame-relative pointers land. */
    std::vector<std::pair<std::uint64_t, Addr>> bases_;
};

} // namespace vstream

#endif // VSTREAM_CORE_WRITEBACK_STAGE_HH
