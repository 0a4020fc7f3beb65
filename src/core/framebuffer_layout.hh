/**
 * @file
 * Frame-buffer layouts (paper Fig. 9c).
 *
 * Three layouts cover the design space:
 *  - kLinear        (i):  the baseline; mab i lives at data_base+i*48.
 *  - kPointer       (ii): MACH-compacted; a 4 B pointer per mab leads
 *                         to the (deduplicated) block data.
 *  - kPointerDigest (iii):inter-matches are stored as digests served
 *                         by the display's MACH buffer; a bitmap
 *                         distinguishes digests from pointers.
 * In gab mode, every non-unique mab additionally stores its 3 B base.
 */

#ifndef VSTREAM_CORE_FRAMEBUFFER_LAYOUT_HH
#define VSTREAM_CORE_FRAMEBUFFER_LAYOUT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mem/mem_request.hh"
#include "video/pixel.hh"

namespace vstream
{

/** Which frame-buffer organization a frame was written with. */
enum class LayoutKind : std::uint8_t
{
    kLinear,
    kPointer,
    kPointerDigest,
};

std::string layoutKindName(LayoutKind k);

/** How one mab is represented in the layout. */
enum class MabStorage : std::uint8_t
{
    /** Block data written at data_addr (no match). */
    kUnique,
    /** Pointer to an earlier block of the same frame. */
    kIntraPointer,
    /** Pointer to a block of a previous frame. */
    kInterPointer,
    /** Digest resolved through the display's MACH buffer. */
    kInterDigest,
};

/**
 * Per-mab record the display walks during scan-out.  Fields are in
 * falling alignment so the record packs into 12 bytes.
 */
struct MabRecord
{
    /** Simulated address of the block bytes (not meaningful for
     * kInterDigest unless the MACH buffer misses and the dump is
     * consulted).  32 bits: DramConfig::validate() caps the simulated
     * DRAM at 4 GiB. */
    std::uint32_t data_addr = 0;
    /** Content digest (always computed; the tag for kInterDigest). */
    std::uint32_t digest = 0;
    /** gab base to re-add during reconstruction. */
    Pixel base;
    MabStorage storage = MabStorage::kUnique;
};
static_assert(sizeof(MabRecord) == 12, "MabRecord should pack to 12 B");

/** The complete description of one decoded frame in memory. */
class FrameLayout
{
  public:
    /** Empty layout awaiting reinit() (pooled storage). */
    FrameLayout() = default;

    FrameLayout(std::uint64_t frame_index, LayoutKind kind,
                std::uint32_t mab_count, std::uint32_t mab_bytes,
                bool gradient_mode);

    /**
     * Reset to the state the equivalent constructor would produce,
     * keeping the record and dump storage: a recycled layout serves
     * a new frame with zero heap allocation once its capacity has
     * grown to the stream's mab count.
     */
    void reinit(std::uint64_t frame_index, LayoutKind kind,
                std::uint32_t mab_count, std::uint32_t mab_bytes,
                bool gradient_mode);

    std::uint64_t frameIndex() const { return frame_index_; }
    LayoutKind kind() const { return kind_; }
    bool gradientMode() const { return gradient_mode_; }
    std::uint32_t mabBytes() const { return mab_bytes_; }
    std::uint32_t mabCount() const
    {
        return static_cast<std::uint32_t>(records_.size());
    }

    MabRecord &record(std::uint32_t i) { return records_.at(i); }
    const MabRecord &record(std::uint32_t i) const
    {
        return records_.at(i);
    }

    /** Metadata region base (pointers/digests/bases/bitmap). */
    Addr metaBase() const { return meta_base_; }
    void setMetaBase(Addr a) { meta_base_ = a; }

    /** Block-data region base. */
    Addr dataBase() const { return data_base_; }
    void setDataBase(Addr a) { data_base_ = a; }

    /** Address of the frame's dumped MACH image (layout iii). */
    Addr machDumpBase() const { return mach_dump_base_; }
    void setMachDumpBase(Addr a) { mach_dump_base_ = a; }
    std::uint64_t machDumpBytes() const { return mach_dump_bytes_; }
    void setMachDumpBytes(std::uint64_t b) { mach_dump_bytes_ = b; }

    /** Unique block bytes written to the data region. */
    std::uint64_t dataBytes() const { return data_bytes_; }
    void setDataBytes(std::uint64_t b) { data_bytes_ = b; }

    /** Metadata bytes written (pointers + digests + bases + bitmap). */
    std::uint64_t metaBytes() const { return meta_bytes_; }
    void setMetaBytes(std::uint64_t b) { meta_bytes_ = b; }

    /** Total footprint of the stored frame. */
    std::uint64_t totalBytes() const { return data_bytes_ + meta_bytes_; }

    /** Checksum of the source frame (round-trip verification). */
    std::uint32_t sourceChecksum() const { return source_checksum_; }
    void setSourceChecksum(std::uint32_t c) { source_checksum_ = c; }

    /** Count of records with the given storage class. */
    std::uint64_t countStorage(MabStorage s) const;

    /** The dumped MACH image: digest -> pointer pairs the display
     * loads into its MACH buffer (layout iii only). */
    const std::vector<std::pair<std::uint32_t, Addr>> &machDump() const
    {
        return mach_dump_;
    }

    /** Mutable dump for in-place building (keeps pooled capacity). */
    std::vector<std::pair<std::uint32_t, Addr>> &
    machDumpMutable()
    {
        return mach_dump_;
    }

  private:
    std::uint64_t frame_index_ = 0;
    LayoutKind kind_ = LayoutKind::kLinear;
    std::uint32_t mab_bytes_ = 0;
    bool gradient_mode_ = false;
    std::vector<MabRecord> records_;
    Addr meta_base_ = 0;
    Addr data_base_ = 0;
    Addr mach_dump_base_ = 0;
    std::uint64_t mach_dump_bytes_ = 0;
    std::uint64_t data_bytes_ = 0;
    std::uint64_t meta_bytes_ = 0;
    std::uint32_t source_checksum_ = 0;
    std::vector<std::pair<std::uint32_t, Addr>> mach_dump_;
};

} // namespace vstream

#endif // VSTREAM_CORE_FRAMEBUFFER_LAYOUT_HH
