#include "mem/dram_controller.hh"

#include <algorithm>

#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace vstream
{

namespace
{

/** Delay before the first burst re-issue; doubles on every further
 * retry, up to kBackoffCap. */
constexpr Tick kBackoffBase = static_cast<Tick>(200) * sim_clock::ns;
/** Upper bound on a single backoff delay. */
constexpr Tick kBackoffCap = static_cast<Tick>(10) * sim_clock::us;
/** Uniform jitter fraction added on top of each backoff delay. */
constexpr double kBackoffJitter = 0.25;

} // namespace

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
    for (auto &q : write_queues_) {
        q.reserve(cfg_.write_queue_depth);
    }
    steady_banks_.resize(map_.subColumnBytes() / burst_bytes_);
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

// vstream:hot
inline Tick
DramController::accessBurst(const DramCoord &coord, MemOp op, Requester r,
                            Tick now, bool &row_hit, bool &activated)
{
    DramChannel &channel = channels_[coord.channel];
    DramBank &bank = channel.bank(coord.rank, coord.bank);

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

// vstream:hot
inline Tick
DramController::burstWithRetry(const DramCoord &coord, MemOp op,
                               Requester r, Tick now, bool &row_hit,
                               bool &activated)
{
    const Tick finish = accessBurst(coord, op, r, now, row_hit, activated);
    return faults_ == nullptr ? finish
                              : retryTimeouts(coord, op, r, finish);
}

Tick
DramController::retryTimeouts(const DramCoord &coord, MemOp op,
                              Requester r, Tick finish)
{
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
    jitter_state_ = faults_ != nullptr
                        ? faults_->config().seed ^ 0xd2a0b0ffULL
                        : 0;
}

Tick
DramController::backoffDelay(std::uint32_t attempt)
{
    // min(cap, base << (attempt - 1)), shift guarded against
    // overflowing past the cap.
    Tick delay = kBackoffBase;
    for (std::uint32_t k = 1; k < attempt; ++k) {
        if (delay >= kBackoffCap / 2) {
            delay = kBackoffCap;
            break;
        }
        delay *= 2;
    }
    delay = std::min(delay, kBackoffCap);
    // 53-bit uniform in [0, 1) from the dedicated SplitMix64 stream;
    // jitter only ever lengthens the wait.
    const double u =
        static_cast<double>(splitMix64(jitter_state_) >> 11) * 0x1.0p-53;
    delay += static_cast<Tick>(static_cast<double>(delay) *
                               kBackoffJitter * u);
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

// vstream:hot
template <typename F>
inline void
DramController::forEachBurst(Addr addr, std::uint32_t size, F &&f) const
{
    vs_assert(size > 0, "zero-size memory request");

    // bytesPerBurst() is a power of two (AddressMap checks it).
    const Addr align = ~static_cast<Addr>(burst_bytes_ - 1);
    const Addr first = addr & align;
    const Addr last = (addr + size - 1) & align;
    DramCoord coord = map_.decompose(first);
    // An even burst index and its successor differ only in the
    // lowest index bit, the channel's lowest bit under a
    // channel-lowest map; neither wraps below capacity.
    if (map_.channelLowest() && last == first + burst_bytes_ &&
        (first & burst_bytes_) == 0 && last < map_.capacity()) {
        f(coord);
        ++coord.channel;
        f(coord);
        return;
    }
    for (Addr a = first;;) {
        f(coord);
        if (a == last) {
            return;
        }
        a += burst_bytes_;
        coord = map_.decompose(a);
    }
}

void
DramController::post(const DramCoord &coord, Requester r, Tick now)
{
    const std::size_t idx = bankIndex(coord);
    auto &queue = write_queues_[idx];
    // The queue is reserved to the depth at construction and drained
    // on reaching it, so this never grows it.
    // vstream:allow(no-hotpath-alloc) capacity reserved above
    queue.push_back(PendingWrite{coord, r});
    if (queue.size() >= cfg_.write_queue_depth) {
        drainBank(idx, now);
    }
}

// vstream:hot
template <typename Done>
inline void
DramController::serve(Addr addr, std::uint32_t size, MemOp op,
                      Requester r, Tick now, Done &&done)
{
    if (op == MemOp::kWrite && cfg_.write_queue_depth > 0) {
        // Posted write: enqueue and drain in batches.
        forEachBurst(addr, size,
                     [&](const DramCoord &c) { post(c, r, now); });
        return;
    }
    forEachBurst(addr, size, [&](const DramCoord &c) {
        bool row_hit = false;
        bool activated = false;
        const Tick finish =
            burstWithRetry(c, op, r, now, row_hit, activated);
        done(finish, row_hit, activated);
    });
}

// vstream:hot
inline MemResult
DramController::request(Addr addr, std::uint32_t size, MemOp op,
                        Requester r, Tick now)
{
    MemResult result;
    result.finish_tick = now;
    serve(addr, size, op, r, now,
          [&](Tick finish, bool row_hit, bool activated) {
              result.finish_tick = std::max(result.finish_tick, finish);
              result.row_hits += row_hit ? 1 : 0;
              result.activations += activated ? 1 : 0;
          });
    const Addr align = ~static_cast<Addr>(burst_bytes_ - 1);
    result.bursts = static_cast<std::uint32_t>(
        (((addr + size - 1) & align) - (addr & align)) / burst_bytes_ +
        1);
    return result;
}

MemResult
DramController::access(const MemRequest &req, Tick now)
{
    return request(req.addr, req.size, req.op, req.requester, now);
}

// vstream:hot
void
DramController::write(Addr addr, std::uint32_t size, Requester r, Tick now)
{
    serve(addr, size, MemOp::kWrite, r, now, [](Tick, bool, bool) {});
}

std::uint32_t
DramController::linesInSpan(Addr addr, std::uint32_t n,
                            std::uint32_t line_bytes) const
{
    const Addr span = map_.spanBytes();
    const Addr end = std::min<Addr>((addr & ~(span - 1)) + span,
                                    map_.capacity());
    if (addr >= end) {
        return 0;
    }
    return static_cast<std::uint32_t>(
        std::min<Addr>(n, (end - addr) / line_bytes));
}

// vstream:hot
MemResult
DramController::readRun(Addr base, std::uint32_t n,
                        std::uint32_t line_bytes, Requester r, Tick now)
{
    vs_assert(line_bytes > 0, "zero-size read run line");

    MemResult total;
    total.finish_tick = now;
    const auto readLine = [&](Addr a) {
        const MemResult res =
            request(a, line_bytes, MemOp::kRead, r, total.finish_tick);
        total.finish_tick = res.finish_tick;
        total.bursts += res.bursts;
        total.row_hits += res.row_hits;
        total.activations += res.activations;
        return res;
    };

    // Only open-page lines that cover whole sub-column strides repeat
    // one bank pattern line after line inside a column span.
    const bool repeatable = cfg_.page_policy == PagePolicy::kOpenPage &&
                            line_bytes % map_.subColumnBytes() == 0 &&
                            cfg_.channels <= 64;
    std::uint32_t i = 0;
    while (i < n) {
        const Addr a = base + static_cast<Addr>(i) * line_bytes;
        const std::uint32_t span_lines =
            repeatable ? linesInSpan(a, n - i, line_bytes) : 0;
        readLine(a);
        ++i;
        if (span_lines < 3) {
            continue;
        }
        const Tick f0 = total.finish_tick;
        const std::uint64_t retries = retries_;
        const std::uint64_t abandoned = abandoned_;
        const MemResult line1 = readLine(a + line_bytes);
        ++i;
        if (line1.row_hits != line1.bursts || retries_ != retries ||
            abandoned_ != abandoned) {
            continue;
        }
        const Tick f1 = total.finish_tick;
        const std::uint32_t m = chargeSteadyLines(
            a + line_bytes, span_lines - 2, line1.bursts, f1 - f0, f1, r);
        total.finish_tick += static_cast<Tick>(m) * (f1 - f0);
        total.bursts += m * line1.bursts;
        total.row_hits += m * line1.bursts;
        i += m;
    }
    return total;
}

std::uint32_t
DramController::chargeSteadyLines(Addr line1, std::uint32_t max_lines,
                                  std::uint32_t bursts, Tick d, Tick f1,
                                  Requester r)
{
    // Line 1 left every bank it used ready and every bus it used free
    // by f1, its issue tick plus d.  So line k >= 2, issued at
    // f1 + (k - 2) d, meets the same state shifted by (k - 1) d, as
    // long as its rows are still open (the row timeout measures the
    // same idle gap line 2 sees).  Line 1 covers every sub-column
    // value once within its first steady_banks_.size() bursts, so
    // those name each bank it used exactly once.
    const Addr first = line1 & ~static_cast<Addr>(burst_bytes_ - 1);
    const std::uint64_t m = max_lines;
    std::uint64_t used_channels = 0;
    for (std::size_t j = 0; j < steady_banks_.size(); ++j) {
        const DramCoord c =
            map_.decompose(first + static_cast<Addr>(j) * burst_bytes_);
        DramBank &bank = channels_[c.channel].bank(c.rank, c.bank);
        if (f1 - bank.lastAccess() > cfg_.row_open_timeout) {
            return 0;
        }
        steady_banks_[j] = &bank;
        used_channels |= std::uint64_t{1} << c.channel;
    }
    // Every skipped burst would have consulted the injector at its
    // completion, somewhere in (f1, f1 + m d].
    if (faults_ != nullptr &&
        faults_->mayInject(FaultClass::kDramTimeout, f1 + 1,
                           f1 + static_cast<Tick>(m) * d + 1)) {
        return 0;
    }

    const Tick shift = static_cast<Tick>(m) * d;
    for (DramBank *bank : steady_banks_) {
        bank->advance(shift);
    }
    for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        if ((used_channels >> c) & 1) {
            channels_[c].advanceBus(shift);
        }
    }
    energy_.recordReadHits(r, m * bursts, burst_bytes_);
    closed_form_lines_ += m;
    return static_cast<std::uint32_t>(m);
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

} // namespace vstream
