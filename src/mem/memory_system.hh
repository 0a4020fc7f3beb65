/**
 * @file
 * Memory-system front end.
 *
 * Owns the DRAM controller, hands out address regions (frame buffers,
 * encoded-stream buffers, MACH metadata dumps), and exposes a simple
 * access() interface to the IP models.  All statistics needed by the
 * paper's figures (row hits, Act/Pre counts, burst counts, energy per
 * requester) are collected here.
 */

#ifndef VSTREAM_MEM_MEMORY_SYSTEM_HH
#define VSTREAM_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <ostream>
#include <span>
#include <string>

#include "mem/dram_controller.hh"
#include "mem/mem_request.hh"
#include "sim/event_queue.hh"

namespace vstream
{

class StatsRegistry;

/** Top-level simulated memory. */
class MemorySystem
{
  public:
    /** The queue parameter is unused (see sim/event_queue.hh). */
    MemorySystem(std::string name, EventQueue *, const DramConfig &cfg);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Service a request issued at @p now.
     *
     * @return timing and row-hit outcome; also updates the ledger.
     */
    MemResult access(const MemRequest &req, Tick now);

    /** Shorthand: read @p size bytes at @p addr. */
    MemResult read(Addr addr, std::uint32_t size, Requester r, Tick now);

    /**
     * Read @p n lines of @p line_bytes from @p base as a dependent
     * chain (each line issued when the previous completes), one
     * request per line.  Same result as @p n read() calls; see
     * DramController::readRun.
     */
    MemResult readRun(Addr base, std::uint32_t n, std::uint32_t line_bytes,
                      Requester r, Tick now);

    /**
     * Read @p lines (ascending line addresses, such as a cache's
     * fills) as a dependent chain: each contiguous stretch goes
     * through readRun.
     *
     * @return the completion tick of the last line (@p now if none).
     */
    Tick readLines(std::span<const Addr> lines, std::uint32_t line_bytes,
                   Requester r, Tick now);

    /**
     * Posted write of @p size bytes at @p addr: one request, timed
     * and charged like access() on it, with no result to wait on.
     */
    void
    write(Addr addr, std::uint32_t size, Requester r, Tick now)
    {
        ++request_count_;
        ctrl_.write(addr, size, r, now);
    }

    /**
     * Allocate a contiguous region of @p bytes (64 B aligned).
     *
     * This is a simulation-level bump allocator; regions are never
     * freed individually (frame buffers are recycled by their
     * owners).
     */
    Addr allocate(std::uint64_t bytes, const std::string &label);

    /** Bytes handed out so far. */
    std::uint64_t allocatedBytes() const { return next_free_; }

    /** High-water mark of simultaneously allocated bytes. */
    std::uint64_t peakAllocatedBytes() const { return peak_allocated_; }

    const DramConfig &config() const { return ctrl_.config(); }
    DramController &controller() { return ctrl_; }
    const DramEnergy &energy() const { return ctrl_.energy(); }

    /** Drain any posted writes (see DramConfig::write_queue_depth). */
    void flushWrites(Tick now) { ctrl_.flushWrites(now); }

    /** Arm DRAM transient-fault injection (nullptr disables it). */
    void setFaultInjector(FaultInjector *faults)
    {
        ctrl_.setFaultInjector(faults);
    }

    /** Background energy over a window of @p span ticks, joules. */
    double backgroundEnergy(Tick span) const;

    /** Total requests serviced. */
    std::uint64_t requestCount() const { return request_count_; }

    /** Register this memory's stats under its name. */
    void regStats(StatsRegistry &r);

  private:
    std::string name_;
    DramController ctrl_;
    std::uint64_t next_free_ = 0;
    std::uint64_t peak_allocated_ = 0;
    std::uint64_t request_count_ = 0;
};

} // namespace vstream

#endif // VSTREAM_MEM_MEMORY_SYSTEM_HH
