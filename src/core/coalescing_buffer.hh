/**
 * @file
 * Write-combining buffer for sub-line metadata (Sec. 4.4).
 *
 * Bases (3 B), pointers (4 B) and digests (4 B) are far smaller than
 * a 64 B memory transaction; MACH coalesces each kind into its own
 * 64 B buffer and only writes a buffer to memory when it fills (or at
 * frame end).  This keeps metadata from multiplying the request
 * count.
 */

#ifndef VSTREAM_CORE_COALESCING_BUFFER_HH
#define VSTREAM_CORE_COALESCING_BUFFER_HH

#include <cstdint>

#include "mem/memory_system.hh"
#include "sim/ticks.hh"

namespace vstream
{

/**
 * One write-combining buffer appending into a contiguous region.
 *
 * Each full buffer (or the final partial one) is written to memory
 * as one video-decoder request, counted in the owner's @p requests.
 */
class CoalescingBuffer
{
  public:
    /** Bytes combined into one memory transaction. */
    static constexpr std::uint32_t kBytes = 64;

    CoalescingBuffer(MemorySystem &mem, std::uint64_t &requests)
        : mem_(mem), requests_(requests)
    {
    }

    /** Start appending at @p region_base (e.g. a new frame). */
    void rebase(Addr region_base);

    /** Append @p bytes at time @p now; may write a full buffer. */
    void append(std::uint32_t bytes, Tick now);

    /** Write out any residue (frame end). */
    void flush(Tick now);

    /** Next address to be written (region usage). */
    Addr cursor() const { return cursor_; }

  private:
    /** Write @p size bytes at the cursor and advance it. */
    void issue(std::uint32_t size, Tick now);

    MemorySystem &mem_;
    std::uint64_t &requests_;
    Addr cursor_ = 0;
    std::uint32_t filled_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CORE_COALESCING_BUFFER_HH
