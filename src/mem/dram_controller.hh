/**
 * @file
 * Open-page DRAM controller (transaction-level timing).
 *
 * A request is split into bursts and each burst is timed against
 * per-bank row-buffer state.  The model is transaction-level rather
 * than cycle-level: a request arrives with its issue tick, the
 * controller walks the affected banks/columns, charges
 * tRP/tRCD/tCL/tBurst as applicable, arbitrates the per-channel data
 * bus, applies the row-open timeout (starvation bound), and returns
 * the completion tick plus row-hit statistics.  This is the
 * granularity at which the paper's Act/Pre-vs-burst energy argument
 * (Sec. 3.2, Fig. 5) operates.
 *
 * A dependent chain of line reads (readRun) is charged in closed form
 * once it settles into row hits inside one column span: every further
 * line repeats the previous one shifted by a constant, so its bank,
 * bus and ledger effects are applied in one step instead of burst by
 * burst.  The result is exactly what the per-line access() loop
 * produces; wherever that cannot be shown (closed page, an armed
 * timeout fault ahead, a span boundary), readRun falls back to
 * access().
 *
 * Every request is one pass through one burst routine (accessBurst,
 * inlined into each path): its first burst is decoded once, and a
 * line of two bursts under a channel-lowest map takes its second
 * burst as the first's on the next channel.  Writes are posted:
 * write() times and charges them like access() but returns nothing.
 */

#ifndef VSTREAM_MEM_DRAM_CONTROLLER_HH
#define VSTREAM_MEM_DRAM_CONTROLLER_HH

#include <vector>

#include "mem/address_map.hh"
#include "mem/dram_channel.hh"
#include "mem/dram_config.hh"
#include "mem/dram_energy.hh"
#include "mem/mem_request.hh"

namespace vstream
{

class FaultInjector;

/** The banked timing model behind MemorySystem. */
class DramController
{
  public:
    explicit DramController(const DramConfig &cfg);

    /**
     * Service @p req whose first command may issue at @p now.
     *
     * Splits the request into bursts, walks bank state, and records
     * energy events in the ledger.  With a non-zero
     * write_queue_depth, write bursts are posted into per-bank
     * queues and drained in row-sorted batches.
     *
     * @return completion tick and per-request burst statistics.
     */
    MemResult access(const MemRequest &req, Tick now);

    /**
     * Posted write of @p size bytes at @p addr issued at @p now: the
     * same bank, bus and ledger effects as access() on the write,
     * with no result (no writer waits on one).
     */
    void write(Addr addr, std::uint32_t size, Requester r, Tick now);

    /**
     * Read @p n lines of @p line_bytes starting at @p base as a
     * dependent chain: line i is issued when line i - 1 completes,
     * the first at @p now.  Exactly equivalent to calling access() on
     * each line in turn; steady row-hit stretches are charged in
     * closed form (see the file comment).
     *
     * @return the last line's completion tick (@p now when n is 0)
     *         and burst statistics summed over all lines.
     */
    MemResult readRun(Addr base, std::uint32_t n,
                      std::uint32_t line_bytes, Requester r, Tick now);

    /** Drain every pending posted write (end of simulation). */
    void flushWrites(Tick now);

    /** Posted writes currently queued. */
    std::uint64_t pendingWrites() const;

    /**
     * Arm transient-fault injection (class kDramTimeout); nullptr
     * disables it.  A timed-out burst is re-issued up to the
     * injector's dram_retry_limit; each retry re-runs the full burst
     * (latency and energy are charged again).  Past the limit the
     * burst is abandoned: the access completes with stale data and
     * the caller's verification layers absorb the damage.
     */
    void setFaultInjector(FaultInjector *faults);

    /** Bursts re-issued after an injected timeout. */
    std::uint64_t retryCount() const { return retries_; }
    /** Bursts abandoned after exhausting the retry budget. */
    std::uint64_t abandonedCount() const { return abandoned_; }
    /** Total ticks spent backing off before burst re-issues. */
    Tick backoffTicks() const { return backoff_ticks_; }
    /**
     * Lines readRun charged in closed form rather than through
     * access() (a diagnostic of the fast path, not a model stat).
     */
    std::uint64_t closedFormLines() const { return closed_form_lines_; }

    const DramConfig &config() const { return cfg_; }
    const AddressMap &addressMap() const { return map_; }
    DramEnergy &energy() { return energy_; }
    const DramEnergy &energy() const { return energy_; }

  private:
    struct PendingWrite
    {
        DramCoord coord;
        Requester requester;
    };

    /**
     * Call @p f on the coordinates of each burst of [addr,
     * addr + size), in address order.  The first burst is decoded
     * once; a line of two bursts aligned to two under a
     * channel-lowest map gets its second as the first's on the next
     * channel (docs/PERFORMANCE.md "One pass per DRAM request").
     */
    template <typename F>
    void forEachBurst(Addr addr, std::uint32_t size, F &&f) const;

    /**
     * Service the bursts of [addr, addr + size) issued at @p now:
     * post them when writes queue, else time each one through
     * burstWithRetry and pass its (finish, row hit, activated) to
     * @p done.
     */
    template <typename Done>
    void serve(Addr addr, std::uint32_t size, MemOp op, Requester r,
               Tick now, Done &&done);

    /** access() on the request's fields, inlined into readRun. */
    MemResult request(Addr addr, std::uint32_t size, MemOp op,
                      Requester r, Tick now);

    /** Service one burst at @p coord; returns its completion tick.
     * The one burst model every path times bursts with. */
    Tick accessBurst(const DramCoord &coord, MemOp op, Requester r,
                     Tick now, bool &row_hit, bool &activated);

    /** accessBurst plus, with an injector armed, the bounded-retry
     * loop for injected timeouts (retryTimeouts). */
    Tick burstWithRetry(const DramCoord &coord, MemOp op, Requester r,
                        Tick now, bool &row_hit, bool &activated);

    /** Re-issue the burst at @p coord that completed at @p finish
     * while the injector times it out, within the retry budget;
     * returns the final completion tick. */
    Tick retryTimeouts(const DramCoord &coord, MemOp op, Requester r,
                       Tick finish);

    /** Queue a posted write burst; drain its bank when full. */
    void post(const DramCoord &coord, Requester r, Tick now);

    /**
     * Closed-form tail of a read run.  Line 1 of the run, at
     * @p line1, was @p bursts row hits with no retry or abandon and
     * completed at @p f1, @p d after line 0.  Charges up
     * to @p max_lines further lines of the same column span, each
     * line 1 shifted by a multiple of @p d, as far as that can be
     * shown to hold.
     *
     * @return lines charged (0 when none can be).
     */
    std::uint32_t chargeSteadyLines(Addr line1, std::uint32_t max_lines,
                                    std::uint32_t bursts, Tick d, Tick f1,
                                    Requester r);

    /** Lines of @p line_bytes from @p addr (at most @p n) that stay
     * inside the column span of @p addr and below capacity. */
    std::uint32_t linesInSpan(Addr addr, std::uint32_t n,
                              std::uint32_t line_bytes) const;

    /** Global bank index of @p coord. */
    std::size_t bankIndex(const DramCoord &coord) const;

    /** Drain one bank's posted writes in row-sorted order. */
    void drainBank(std::size_t bank_idx, Tick now);

    DramConfig cfg_;
    AddressMap map_;
    DramEnergy energy_;
    /** cfg_.bytesPerBurst() and cfg_.burstTime(), paid per burst. */
    std::uint32_t burst_bytes_;
    Tick burst_time_;
    std::vector<DramChannel> channels_;
    std::vector<std::vector<PendingWrite>> write_queues_;
    /** chargeSteadyLines scratch: the bank of each of a line's first
     * subColumnBytes() / burst_bytes_ bursts. */
    std::vector<DramBank *> steady_banks_;
    std::uint64_t closed_form_lines_ = 0;
    /** Backoff delay before the @p attempt-th re-issue (capped
     * exponential plus deterministic jitter). */
    Tick backoffDelay(std::uint32_t attempt);

    FaultInjector *faults_ = nullptr;
    std::uint64_t retries_ = 0;
    std::uint64_t abandoned_ = 0;
    Tick backoff_ticks_ = 0;
    /** SplitMix64 state behind the backoff jitter (seeded from the
     * fault schedule so delays are reproducible). */
    std::uint64_t jitter_state_ = 0;
};

} // namespace vstream

#endif // VSTREAM_MEM_DRAM_CONTROLLER_HH
