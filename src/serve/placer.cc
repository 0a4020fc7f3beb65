#include "serve/placer.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace vstream
{

void
ServeConfig::validate() const
{
    if (bandwidth_budget_mbps <= 0.0) {
        vs_fatal("serve bandwidth budget must be positive, got ",
                 bandwidth_budget_mbps, " MB/s");
    }
    if (framebuffer_budget_bytes == 0) {
        vs_fatal("serve frame-buffer budget must be positive");
    }
    if (max_active == 0) {
        vs_fatal("serve max_active must be >= 1");
    }
}

void
FleetConfig::validate() const
{
    serve.validate();
    if (shards == 0) {
        vs_fatal("fleet needs at least one shard");
    }
    if (rehearse_block == 0) {
        vs_fatal("rehearse_block must be >= 1");
    }
    chaos.validate(shards);
}

Placer::Placer(FleetConfig cfg, SessionFactory factory,
               OutcomeObserver observer)
    : cfg_(cfg), factory_(std::move(factory)),
      observer_(std::move(observer))
{
    cfg_.validate();
    vs_assert(factory_ != nullptr, "fleet needs a session factory");
    shards_.reserve(cfg_.shards);
    for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
        shards_.emplace_back(i);
    }
    // Equal slices to start; rebalance() re-weights them later.
    const double n = static_cast<double>(cfg_.shards);
    for (Shard &s : shards_) {
        s.setSlices(cfg_.serve.bandwidth_budget_mbps / n,
                    static_cast<double>(
                        cfg_.serve.framebuffer_budget_bytes) /
                        n);
    }
    next_rebalance_ = cfg_.rebalance_period;

    // Shared dedup tier: one fault domain per shard.  Off means the
    // tier is never constructed and nothing downstream can observe
    // it (zero-cost-when-off).
    if (cfg_.dedup.enabled) {
        dedup_ = std::make_unique<SharedMachTier>(cfg_.dedup,
                                                  cfg_.shards);
    }

    // Chaos wiring.  With no crash rules and no checkpoint period
    // the journals stay empty, no shard is checkpointed and none of
    // the new event sources ever fires: the layer is inert.
    journaling_ =
        cfg_.chaos.anyRuleFor(FleetFaultClass::kShardCrash);
    checkpointing_ =
        journaling_ || cfg_.chaos.checkpoint_period > 0;
    journals_.resize(cfg_.shards);
    brownout_depth_.assign(cfg_.shards, 0);
    if (cfg_.chaos.checkpoint_period > 0) {
        next_checkpoint_ = cfg_.chaos.checkpoint_period;
    }
    for (const FleetFaultRule &rule : cfg_.chaos.rules) {
        switch (rule.cls) {
          case FleetFaultClass::kShardCrash:
            chaos_events_.push_back(
                ChaosEvent{rule.at, ChaosEvent::Kind::kCrash,
                           rule.shard, 1.0});
            break;
          case FleetFaultClass::kShardBrownout:
            chaos_events_.push_back(
                ChaosEvent{rule.at,
                           ChaosEvent::Kind::kBrownoutStart,
                           rule.shard, rule.factor});
            chaos_events_.push_back(
                ChaosEvent{rule.at + rule.duration,
                           ChaosEvent::Kind::kBrownoutEnd,
                           rule.shard, 1.0});
            break;
          case FleetFaultClass::kFlashCrowd:
            // Floods enter through withFlashCrowds on the arrival
            // schedule, not through the event loop.
            break;
        }
    }
    // Stable: same-tick events apply in rule order.
    std::stable_sort(chaos_events_.begin(), chaos_events_.end(),
                     [](const ChaosEvent &a, const ChaosEvent &b) {
                         return a.tick < b.tick;
                     });
}

bool
Placer::fits(double bw_mbps, std::uint64_t fb_bytes) const
{
    // Global admission: no term here may depend on the shard
    // layout.
    return active_.size() < cfg_.serve.max_active &&
           bw_reserved_ + bw_mbps <=
               cfg_.serve.bandwidth_budget_mbps &&
           fb_reserved_ + fb_bytes <=
               cfg_.serve.framebuffer_budget_bytes;
}

bool
Placer::couldEverFit(double bw_mbps, std::uint64_t fb_bytes) const
{
    return bw_mbps <= cfg_.serve.bandwidth_budget_mbps &&
           fb_bytes <= cfg_.serve.framebuffer_budget_bytes;
}

std::uint32_t
Placer::pickShard() const
{
    // Least loaded; strict-less compare, so the lowest shard id
    // wins ties (the deterministic tie-break the invariance tests
    // rely on).
    std::uint32_t best = 0;
    double best_load = shards_[0].load();
    for (std::uint32_t i = 1; i < shards_.size(); ++i) {
        const double l = shards_[i].load();
        if (l < best_load) {
            best = i;
            best_load = l;
        }
    }
    return best;
}

std::uint32_t
Placer::pickSurvivor(std::uint32_t crashed) const
{
    std::uint32_t best = crashed == 0 ? 1 : 0;
    double best_load = shards_[best].load();
    for (std::uint32_t i = best + 1; i < shards_.size(); ++i) {
        if (i == crashed) {
            continue;
        }
        const double l = shards_[i].load();
        if (l < best_load) {
            best = i;
            best_load = l;
        }
    }
    return best;
}

void
Placer::rebalance()
{
    ++rebalances_;
    // Re-weight slices toward observed reservations, with a floor
    // so an idle shard keeps attracting arrivals.  Purely advisory:
    // slices weight pickShard() and nothing else, so this cannot
    // change admission, timing, or any emitted stat.
    double total_bw = 0.0;
    double total_fb = 0.0;
    for (const Shard &s : shards_) {
        total_bw += s.bwReservedMBps();
        total_fb += static_cast<double>(s.fbReservedBytes());
    }
    const double n = static_cast<double>(shards_.size());
    const double floor_frac = 0.5 / n;
    for (Shard &s : shards_) {
        const double bw_share =
            total_bw > 0.0 ? s.bwReservedMBps() / total_bw : 1.0 / n;
        const double fb_share =
            total_fb > 0.0
                ? static_cast<double>(s.fbReservedBytes()) / total_fb
                : 1.0 / n;
        s.setSlices(cfg_.serve.bandwidth_budget_mbps *
                        (floor_frac + 0.5 * bw_share),
                    static_cast<double>(
                        cfg_.serve.framebuffer_budget_bytes) *
                        (floor_frac + 0.5 * fb_share));
    }
}

Tick
Placer::frontDeadline() const
{
    const Tick dl = cfg_.serve.queue_deadline;
    const Tick enq = waiting_.front().enqueue;
    // Saturate: a deadline past the tick range never fires.
    return enq > maxTick - dl ? maxTick : enq + dl;
}

void
Placer::advanceTo(Tick t)
{
    vs_assert(t >= cur_tick_, "fleet timeline moved backwards");
    for (;;) {
        // Five event sources, ordered by (tick, source rank):
        // finish < queue-timeout < checkpoint < chaos < rebalance.
        // Finishes first so budget freed at T is visible to
        // everything else at T (an admission wins a tie with the
        // queue deadline); checkpoint-before-crash at the same tick
        // means the crash loses nothing.
        Tick best = maxTick;
        int kind = -1;
        if (!active_.empty()) {
            best = active_.top().tick;
            kind = 0;
        }
        if (cfg_.serve.queue_deadline > 0 && !waiting_.empty()) {
            const Tick dl = frontDeadline();
            if (dl < best) {
                best = dl;
                kind = 1;
            }
        }
        if (checkpointing_ && next_checkpoint_ < best) {
            best = next_checkpoint_;
            kind = 2;
        }
        if (next_chaos_ < chaos_events_.size() &&
            chaos_events_[next_chaos_].tick < best) {
            best = chaos_events_[next_chaos_].tick;
            kind = 3;
        }
        if (cfg_.rebalance_period > 0 && next_rebalance_ < best) {
            best = next_rebalance_;
            kind = 4;
        }
        if (kind < 0 || best > t) {
            break;
        }
        cur_tick_ = std::max(cur_tick_, best);
        switch (kind) {
          case 0:
            finishOne();
            break;
          case 1:
            expireFront();
            break;
          case 2:
            takeAllCheckpoints();
            next_checkpoint_ += cfg_.chaos.checkpoint_period;
            break;
          case 3:
            applyChaos(chaos_events_[next_chaos_++]);
            break;
          default:
            rebalance();
            next_rebalance_ += cfg_.rebalance_period;
            break;
        }
    }
    cur_tick_ = std::max(cur_tick_, t);
}

void
Placer::finishOne()
{
    const Finish f = active_.top();
    active_.pop();
    const auto it = live_.find(f.seq);
    vs_assert(it != live_.end(), "finish for unknown session");
    Live &l = it->second;
    shards_[l.shard].release(l.bw_mbps, l.fb_bytes);
    bw_reserved_ -= l.bw_mbps;
    vs_assert(fb_reserved_ >= l.fb_bytes,
              "fleet frame-buffer reservation underflow");
    fb_reserved_ -= l.fb_bytes;
    // Fold-at-finish: the outcome becomes durable shard state only
    // now, so a crash before this point cleanly unwinds the session
    // (it is failed over, not half-counted).  The fold is exact and
    // commutative, so the bytes cannot tell this apart from the
    // fold-at-admit order.
    shards_[l.shard].absorb(l.outcome);
    if (observer_) {
        observer_(l.outcome);
    }
    if (dedup_) {
        // Dedup accounting was settled at admit; it becomes durable
        // together with the outcome, and the session's tier refs
        // drop now that nothing cites them.
        shards_[l.shard].absorbDedup(l.dedup_settle);
        dedup_->release(l.dedup_lease);
    }
    if (journaling_) {
        JournalEntry e;
        e.arrival = l.arrival;
        e.start = l.start;
        if (dedup_) {
            e.dedup_settle = l.dedup_settle;
            e.dedup_blocks = std::move(l.outcome.dedup);
        }
        journals_[l.shard].push_back(std::move(e));
    }
    live_.erase(it);
    drainWaiting();
}

void
Placer::expireFront()
{
    // The front has the earliest enqueue tick (strict FIFO), hence
    // the earliest deadline; it timed out before budget freed.
    if (observer_) {
        // The session never ran: a marker outcome carries only who
        // timed out (id/group) and the queue span.
        const Pending &p = waiting_.front();
        SessionOutcome o;
        o.id = p.arrival.id;
        o.group = p.reh.outcome.group;
        o.queue_timeout = true;
        o.start_offset = p.enqueue;
        o.end_tick = cur_tick_;
        observer_(o);
    }
    waiting_.pop_front();
    ++recovery_.queue_timeouts;
}

void
Placer::takeCheckpoint(std::uint32_t shard)
{
    shards_[shard].checkpoint();
    // Everything up to here is inside the checkpoint; the journal
    // restarts empty.
    journals_[shard].clear();
}

void
Placer::takeAllCheckpoints()
{
    ++checkpoints_taken_;
    for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
        takeCheckpoint(i);
    }
}

void
Placer::applyChaos(const ChaosEvent &ev)
{
    switch (ev.kind) {
      case ChaosEvent::Kind::kCrash:
        crashShard(ev.shard);
        break;
      case ChaosEvent::Kind::kBrownoutStart:
        ++recovery_.brownouts;
        ++brownout_depth_[ev.shard];
        shards_[ev.shard].setBrownoutFactor(ev.factor);
        break;
      case ChaosEvent::Kind::kBrownoutEnd:
        vs_assert(brownout_depth_[ev.shard] > 0,
                  "brownout end without a matching start");
        if (--brownout_depth_[ev.shard] == 0) {
            shards_[ev.shard].setBrownoutFactor(1.0);
        }
        break;
    }
}

void
Placer::crashShard(std::uint32_t shard)
{
    ++recovery_.crashes;
    // Zero the shard and roll it back to its last checkpoint.
    Shard &sh = shards_[shard];
    sh.crash();
    recovery_.restored += sh.absorbed();
    if (dedup_) {
        // The crashed shard's fault domain dies with it: every entry
        // drops, outstanding leases become void, and the epoch bump
        // makes the wipe observable.  Neighbour domains are
        // untouched - blast radius by construction.
        dedup_->wipeDomain(shard);
    }

    // Replay the finishes journaled since that checkpoint.  The
    // factory is pure and rehearsal hermetic, so each replayed
    // outcome is bit-identical to the one the crash destroyed.
    for (const JournalEntry &e : journals_[shard]) {
        SessionConfig c = factory_(e.arrival);
        c.id = e.arrival.id;
        c.leave_after = e.arrival.leave_after;
        c.dedup_record = dedup_ != nullptr;
        RehearsedSession reh = rehearseSession(c);
        SessionOutcome o = std::move(reh.outcome);
        o.start_offset = e.start;
        o.end_tick = e.start + reh.local_end;
        o.dwell[static_cast<std::size_t>(HealthState::kHealthy)] +=
            e.start;
        sh.absorb(o);
        if (dedup_) {
            // Settlement depends on tier state at the *original*
            // admit, so replay re-absorbs the journaled settle
            // verbatim and rebuilds tier content stats-suppressed.
            sh.absorbDedup(e.dedup_settle);
            dedup_->republish(shard, e.dedup_blocks);
        }
        ++recovery_.replayed;
    }
    journals_[shard].clear();

    // Fail the orphaned in-flight sessions over to survivors.  The
    // crashed shard's reservations died with it; the survivors pick
    // them up, and the *global* reservation never moved - failover
    // cannot admit, reject or delay anyone.
    for (auto &[seq, l] : live_) {
        if (l.shard != shard) {
            continue;
        }
        const std::uint32_t to = pickSurvivor(shard);
        shards_[to].reserve(l.bw_mbps, l.fb_bytes);
        l.shard = to;
        ++recovery_.failed_over;
    }

    // Re-checkpoint immediately: a second crash of this shard must
    // restore to *this* state, not double-replay the old journal.
    takeCheckpoint(shard);
}

void
Placer::admit(Pending &&p, Tick start)
{
    ++admitted_;
    const std::uint32_t sh = pickShard();
    shards_[sh].reserve(p.bw_mbps, p.fb_bytes);
    bw_reserved_ += p.bw_mbps;
    fb_reserved_ += p.fb_bytes;

    Live l;
    l.outcome = std::move(p.reh.outcome);
    const Tick finish_tick = start + p.reh.local_end;
    l.outcome.start_offset = start;
    l.outcome.end_tick = finish_tick;
    // The ladder dwell is reported on the serving timeline: a
    // session admitted at T counts the T ticks before its admission
    // as Healthy, so dwells sum to end_tick.
    l.outcome
        .dwell[static_cast<std::size_t>(HealthState::kHealthy)] +=
        start;
    l.arrival = p.arrival;
    l.start = start;
    l.shard = sh;
    l.bw_mbps = p.bw_mbps;
    l.fb_bytes = p.fb_bytes;

    // Settle the session's block log against its shard's fault
    // domain on the serial timeline; the acquired lease holds the
    // cited entries resident until the session finishes.
    if (dedup_ && l.outcome.dedup.any()) {
        l.dedup_settle =
            dedup_->publish(sh, l.outcome.dedup, l.dedup_lease);
    }

    const std::uint64_t seq = next_seq_++;
    live_.emplace(seq, std::move(l));
    active_.push(Finish{finish_tick, seq});
    peak_active_ = std::max<std::uint64_t>(peak_active_,
                                           active_.size());
}

void
Placer::drainWaiting()
{
    // Strict FIFO: no head-of-line skipping, so admission order is
    // independent of session sizes (and of everything shard-shaped).
    while (!waiting_.empty()) {
        const Pending &front = waiting_.front();
        if (!fits(front.bw_mbps, front.fb_bytes)) {
            break;
        }
        Pending p = std::move(waiting_.front());
        waiting_.pop_front();
        admit(std::move(p), cur_tick_);
    }
}

void
Placer::submitRehearsed(Pending &&p)
{
    if (fits(p.bw_mbps, p.fb_bytes)) {
        admit(std::move(p), cur_tick_);
        return;
    }
    if (couldEverFit(p.bw_mbps, p.fb_bytes)) {
        // Load shedding: past the configured queue depth the
        // fleet drops arrivals outright instead of letting the
        // queue (and its deadline backlog) grow without bound.
        if (cfg_.chaos.shed_depth > 0 &&
            waiting_.size() >= cfg_.chaos.shed_depth) {
            ++recovery_.shed;
            return;
        }
        ++queued_;
        p.enqueue = cur_tick_;
        waiting_.push_back(std::move(p));
        peak_waiting_ = std::max<std::uint64_t>(peak_waiting_,
                                                waiting_.size());
        return;
    }
    ++rejected_;
}

void
Placer::run(const std::vector<ArrivalEvent> &arrivals)
{
    vs_assert(!ran_, "a Placer runs one schedule");
    ran_ = true;
    if (checkpointing_) {
        // The implicit tick-0 checkpoint: every crash has a
        // restore point even before the first periodic one.
        takeAllCheckpoints();
    }
    std::size_t base = 0;
    while (base < arrivals.size()) {
        const std::size_t n =
            std::min<std::size_t>(cfg_.rehearse_block,
                                  arrivals.size() - base);
        // Build the block's configs serially (the factory may be
        // stateful when journaling is off), then rehearse the
        // admissible ones in parallel.
        std::vector<SessionConfig> cfgs;
        std::vector<double> bws(n, 0.0);
        std::vector<std::uint64_t> fbs(n, 0);
        std::vector<bool> whale(n, false);
        cfgs.reserve(n);
        std::vector<std::size_t> live;
        live.reserve(n);
        for (std::size_t j = 0; j < n; ++j) {
            const ArrivalEvent &a = arrivals[base + j];
            vs_assert(j + base == 0 ||
                          a.tick >= arrivals[base + j - 1].tick,
                      "arrival schedule must be non-decreasing");
            SessionConfig c = factory_(a);
            c.id = a.id;
            c.leave_after = a.leave_after;
            c.dedup_record = dedup_ != nullptr;
            bws[j] = Session::demandMBps(c.pipeline);
            fbs[j] = Session::framebufferBytes(c.pipeline);
            // Whales can never fit: reject without rehearsing (the
            // decision is budget-only, so skipping the rehearsal
            // cannot perturb the timeline).
            whale[j] = !couldEverFit(bws[j], fbs[j]);
            if (!whale[j]) {
                live.push_back(j);
            }
            cfgs.push_back(std::move(c));
        }
        std::vector<RehearsedSession> rehs = parallelMap(
            cfg_.jobs, live.size(), [&](std::size_t k) {
                return rehearseSession(cfgs[live[k]]);
            });
        // Feed the block through the timeline in arrival order.
        std::size_t next_live = 0;
        for (std::size_t j = 0; j < n; ++j) {
            advanceTo(arrivals[base + j].tick);
            if (whale[j]) {
                ++rejected_;
                continue;
            }
            Pending p;
            p.reh = std::move(rehs[next_live++]);
            p.arrival = arrivals[base + j];
            p.bw_mbps = bws[j];
            p.fb_bytes = fbs[j];
            submitRehearsed(std::move(p));
        }
        base += n;
    }
    // Drain: every finish frees budget, which admits more of the
    // queue; couldEverFit guarantees the queue empties (deadline
    // expiries along the way fire inside advanceTo).
    while (!active_.empty()) {
        advanceTo(active_.top().tick);
    }
    vs_assert(waiting_.empty(),
              "fleet drained with sessions still queued");
    vs_assert(live_.empty(),
              "fleet drained with sessions still in flight");
    if (dedup_) {
        // Surface the per-domain aggregates through the shard
        // snapshots so fleet reports can attribute poisoning (false
        // hits, breaker trips) to its blast radius.
        for (std::uint32_t d = 0; d < cfg_.shards; ++d) {
            shards_[d].foldDedupDomain(dedup_->domainStats(d),
                                       dedup_->entries(d),
                                       dedup_->liveRefs(d), d);
        }
    }
}

StatsSnapshot
Placer::fleetSnapshot() const
{
    StatsSnapshot fleet;
    for (const Shard &s : shards_) {
        fleet.merge(s.snapshot());
    }
    return fleet;
}

} // namespace vstream
