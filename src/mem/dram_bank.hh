/**
 * @file
 * Per-bank row-buffer state machine.
 *
 * Tracks the open row, the tick the bank becomes usable, and the tick
 * of the last column access.  The controller consults the
 * starvation/timeout bound here: a row left idle past the configured
 * row_open_timeout is considered precharged (the real controller
 * would have closed it to serve other traffic), which is the exact
 * mechanism that makes low-frequency decoding pay extra Act/Pre
 * energy (paper Fig. 5a).
 */

#ifndef VSTREAM_MEM_DRAM_BANK_HH
#define VSTREAM_MEM_DRAM_BANK_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace vstream
{

/** State of one DRAM bank. */
class DramBank
{
  public:
    DramBank() = default;

    /** Is a row currently latched in the row buffer? */
    bool rowOpen() const { return row_open_; }

    /** The open row (valid only when rowOpen()). */
    std::uint64_t openRow() const { return open_row_; }

    /** Earliest tick the bank can accept a new command. */
    Tick readyAt() const { return ready_at_; }

    /** Tick of the most recent column access to the open row. */
    Tick lastAccess() const { return last_access_; }

    /** Tick the current row was activated. */
    Tick openedAt() const { return opened_at_; }

    /**
     * Apply the timeout policy at time @p now: if the open row has
     * been idle longer than @p timeout, close it.
     *
     * @return true if a timeout precharge occurred (caller accounts
     *         the precharge energy; the precharge happened in the
     *         past, so it does not delay @p now).
     */
    bool
    expireRow(Tick now, Tick timeout)
    {
        if (!row_open_) {
            return false;
        }
        if (now <= last_access_ || now - last_access_ <= timeout) {
            return false;
        }
        // The controller closed the row at last_access_ + timeout; by
        // `now` the precharge has long completed.
        row_open_ = false;
        return true;
    }

    /** Latch @p row at @p when (after tRCD has been charged). */
    void
    activate(std::uint64_t row, Tick when)
    {
        row_open_ = true;
        open_row_ = row;
        opened_at_ = when;
        last_access_ = when;
        ready_at_ = when;
    }

    /** Close the row buffer; bank busy until @p ready. */
    void
    precharge(Tick ready)
    {
        row_open_ = false;
        ready_at_ = ready;
    }

    /** Record a column access completing at @p when. */
    void
    touch(Tick when)
    {
        if (when > last_access_) {
            last_access_ = when;
        }
        if (when > ready_at_) {
            ready_at_ = when;
        }
    }

    /**
     * Move the last column access and the ready tick @p d ticks
     * later: the net effect of a steady run of row hits that repeats
     * the bank's last access pattern every @p d ticks.
     */
    void
    advance(Tick d)
    {
        last_access_ += d;
        ready_at_ += d;
    }

  private:
    bool row_open_ = false;
    std::uint64_t open_row_ = 0;
    Tick ready_at_ = 0;
    Tick last_access_ = 0;
    Tick opened_at_ = 0;
};

} // namespace vstream

#endif // VSTREAM_MEM_DRAM_BANK_HH
