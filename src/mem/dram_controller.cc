#include "mem/dram_controller.hh"

#include <algorithm>

#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace vstream
{

DramController::DramController(const DramConfig &cfg)
    : cfg_(cfg), map_(cfg_), energy_(cfg_),
      burst_bytes_(cfg_.bytesPerBurst()), burst_time_(cfg_.burstTime())
{
    cfg_.validate();
    channels_.reserve(cfg_.channels);
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        channels_.emplace_back(cfg_.ranks_per_channel, cfg_.banks_per_rank);
    }
    write_queues_.resize(static_cast<std::size_t>(cfg_.channels) *
                         cfg_.ranks_per_channel * cfg_.banks_per_rank);
    next_refresh_.assign(cfg_.channels, cfg_.t_refi);
}

std::size_t
DramController::bankIndex(const DramCoord &coord) const
{
    return (static_cast<std::size_t>(coord.channel) *
                cfg_.ranks_per_channel +
            coord.rank) *
               cfg_.banks_per_rank +
           coord.bank;
}

Tick
DramController::applyRefresh(std::uint32_t channel, Tick t)
{
    if (!cfg_.refresh_enabled) {
        return t;
    }
    Tick &next = next_refresh_[channel];
    if (t < next) {
        return t;
    }
    // Jump to the refresh epoch containing t; refreshes the device
    // performed while idle did not block anyone.
    const std::uint64_t missed = (t - next) / cfg_.t_refi;
    next += missed * cfg_.t_refi;
    ++refreshes_;
    if (t < next + cfg_.t_rfc) {
        t = next + cfg_.t_rfc;
    }
    next += cfg_.t_refi;
    return t;
}

Tick
DramController::accessBurst(const DramCoord &coord, MemOp op, Requester r,
                            Tick now, bool &row_hit, bool &activated)
{
    DramChannel &channel = channels_[coord.channel];
    DramBank &bank = channel.bank(coord.rank, coord.bank);

    now = applyRefresh(coord.channel, now);

    // Starvation bound: rows idle past the timeout were closed by the
    // controller in the meantime.  The precharge is attributed to the
    // requester whose access left the row open.
    if (bank.expireRow(now, cfg_.row_open_timeout)) {
        energy_.recordPrecharge(r);
    }

    Tick t = std::max(now, bank.readyAt());
    row_hit = false;
    activated = false;

    if (bank.rowOpen() && bank.openRow() == coord.row) {
        row_hit = true;
    } else {
        if (bank.rowOpen()) {
            // Conflict: close the old row first (tRAS honored).
            const Tick pre_start =
                std::max(t, bank.openedAt() + cfg_.t_ras);
            t = pre_start + cfg_.t_rp;
            bank.precharge(t);
            energy_.recordPrecharge(r);
        }
        t += cfg_.t_rcd;
        bank.activate(coord.row, t);
        energy_.recordActivation(r);
        activated = true;
    }

    // Column access: CAS latency then the data burst on the shared
    // bus.  Writes use the same envelope (write latency differences
    // are second-order for this study).
    const Tick data_start = t + cfg_.t_cl;
    const Tick finish = channel.occupyBus(data_start, burst_time_);
    bank.touch(finish);

    // Closed-page: auto-precharge after the access; the next access
    // to this bank activates unconditionally (tRP off the critical
    // path, the precharge energy booked with the activation pair).
    if (cfg_.page_policy == PagePolicy::kClosedPage) {
        bank.precharge(finish);
    }

    energy_.recordBurst(r, op, burst_bytes_);
    if (row_hit) {
        energy_.recordRowHit(r);
    }
    return finish;
}

Tick
DramController::burstWithRetry(const DramCoord &coord, MemOp op,
                               Requester r, Tick now, bool &row_hit,
                               bool &activated)
{
    Tick finish = accessBurst(coord, op, r, now, row_hit, activated);
    if (faults_ == nullptr) {
        return finish;
    }
    // A timed-out burst backs off (capped exponential, jittered so
    // colliding retries from different banks spread out) and is then
    // re-issued, so every retry pays the backoff wait plus the full
    // burst latency and is charged to the energy ledger like any
    // other access.
    const std::uint32_t limit = faults_->config().dram_retry_limit;
    std::uint32_t attempts = 0;
    while (faults_->shouldInject(FaultClass::kDramTimeout, finish)) {
        if (attempts >= limit) {
            // Out of budget: give up on this burst and let the
            // access complete; content-verification layers above
            // (verify_on_hit, display verify) absorb the damage.
            ++abandoned_;
            faults_->noteAbandoned(FaultClass::kDramTimeout);
            break;
        }
        ++attempts;
        ++retries_;
        const Tick delay = backoffDelay(attempts);
        backoff_ticks_ += delay;
        bool retry_hit = false;
        bool retry_act = false;
        finish = accessBurst(coord, op, r, finish + delay, retry_hit,
                             retry_act);
        faults_->noteRecovered(FaultClass::kDramTimeout);
    }
    return finish;
}

void
DramController::setFaultInjector(FaultInjector *faults)
{
    faults_ = faults;
    jitter_state_ = faults != nullptr
                        ? faults->config().seed ^ 0xd2a0b0ffULL
                        : 0;
}

Tick
DramController::backoffDelay(std::uint32_t attempt)
{
    const FaultConfig &fc = faults_->config();
    if (fc.dram_backoff_base == 0) {
        return 0;
    }
    // min(cap, base << (attempt - 1)), shift guarded against
    // overflowing past the cap.
    Tick delay = fc.dram_backoff_base;
    for (std::uint32_t k = 1; k < attempt; ++k) {
        if (delay >= fc.dram_backoff_cap / 2) {
            delay = fc.dram_backoff_cap;
            break;
        }
        delay *= 2;
    }
    delay = std::min(delay, fc.dram_backoff_cap);
    if (fc.dram_backoff_jitter > 0.0) {
        // 53-bit uniform in [0, 1) from the dedicated SplitMix64
        // stream; jitter only ever lengthens the wait.
        const double u =
            static_cast<double>(splitMix64(jitter_state_) >> 11) *
            0x1.0p-53;
        delay += static_cast<Tick>(static_cast<double>(delay) *
                                   fc.dram_backoff_jitter * u);
    }
    return delay;
}

void
DramController::drainBank(std::size_t bank_idx, Tick now)
{
    auto &queue = write_queues_[bank_idx];
    if (queue.empty()) {
        return;
    }

    // Row-sorted service order: one activation per distinct row in
    // the batch instead of one per scattered write.
    std::stable_sort(queue.begin(), queue.end(),
                     [](const PendingWrite &a, const PendingWrite &b) {
                         return a.coord.row < b.coord.row;
                     });
    // All burst/Act/Pre energy and bank timing for posted writes is
    // charged here, at drain time.
    bool row_hit = false;
    bool activated = false;
    Tick t = now;
    for (const PendingWrite &w : queue) {
        t = burstWithRetry(w.coord, MemOp::kWrite, w.requester, t,
                           row_hit, activated);
    }
    queue.clear();
}

MemResult
DramController::access(const MemRequest &req, Tick now)
{
    vs_assert(req.size > 0, "zero-size memory request");

    // bytesPerBurst() is a power of two (AddressMap checks it).
    const Addr align = ~static_cast<Addr>(burst_bytes_ - 1);
    const Addr first = req.addr & align;
    const Addr last = (req.addr + req.size - 1) & align;

    const bool queue_writes =
        cfg_.write_queue_depth > 0 && req.op == MemOp::kWrite;

    MemResult result;
    Tick finish = now;
    for (Addr a = first;; a += burst_bytes_) {
        const DramCoord coord = map_.decompose(a);
        ++result.bursts;

        if (queue_writes) {
            // Posted write: enqueue and drain in batches.
            auto &queue = write_queues_[bankIndex(coord)];
            queue.push_back(PendingWrite{coord, req.requester});
            if (queue.size() >= cfg_.write_queue_depth) {
                drainBank(bankIndex(coord), now);
            }
        } else {
            bool row_hit = false;
            bool activated = false;
            const Tick burst_finish = burstWithRetry(
                coord, req.op, req.requester, now, row_hit, activated);
            finish = std::max(finish, burst_finish);
            if (row_hit) {
                ++result.row_hits;
            }
            if (activated) {
                ++result.activations;
            }
        }
        if (a == last) {
            break;
        }
    }
    result.finish_tick = finish;
    return result;
}

void
DramController::flushWrites(Tick now)
{
    for (std::size_t i = 0; i < write_queues_.size(); ++i) {
        drainBank(i, now);
    }
}

std::uint64_t
DramController::pendingWrites() const
{
    std::uint64_t n = 0;
    for (const auto &q : write_queues_) {
        n += q.size();
    }
    return n;
}

void
DramController::reset()
{
    for (auto &c : channels_) {
        c.reset();
    }
    for (auto &q : write_queues_) {
        q.clear();
    }
    next_refresh_.assign(cfg_.channels, cfg_.t_refi);
    refreshes_ = 0;
    retries_ = 0;
    abandoned_ = 0;
    energy_.reset();
}

} // namespace vstream
