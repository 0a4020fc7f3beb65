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
 * MachWriteback reads each frame's MachRepr (gab bytes, digests,
 * auxes), which depends on the content only; the pipeline prepares
 * it ahead of the decode (core/frame_prep.hh).
 */

#ifndef VSTREAM_CORE_WRITEBACK_STAGE_HH
#define VSTREAM_CORE_WRITEBACK_STAGE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/coalescing_buffer.hh"
#include "core/frame_buffer_manager.hh"
#include "core/framebuffer_layout.hh"
#include "core/mach_array.hh"
#include "video/frame.hh"

namespace vstream
{

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

    /** Write mab @p idx of the current frame (posted; no stall). */
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
    std::uint32_t mab_bytes_ = 0;
};

/**
 * The MACH representation of one frame: what MachWriteback looks up,
 * stores and inserts for each mab.  All storage is flat and reused
 * from frame to frame.
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

/** Compute @p frame's MACH representation under @p cfg into @p out.
 * A pure function of the frame's bytes and the config. */
void prepareMachRepr(const Frame &frame, const MachConfig &cfg,
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

    /**
     * Offer a representation prepared ahead of the decode (the
     * pipeline's FramePrep).  beginFrame() uses it when it carries
     * that frame's index and prepares inline otherwise; the offer
     * lasts until finishFrame().  @p repr must stay untouched until
     * then.
     */
    void offerPrepared(const MachRepr *repr) { offered_ = repr; }

  private:
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
    /** The current frame's gab bytes, digests and auxes: offered_
     * when it matches the frame, else own_. */
    const MachRepr *repr_ = nullptr;
    /** Inline preparation, reused across frames. */
    MachRepr own_;
};

} // namespace vstream

#endif // VSTREAM_CORE_WRITEBACK_STAGE_HH
