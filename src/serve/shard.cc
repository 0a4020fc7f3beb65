#include "serve/shard.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vstream
{

namespace
{

/** Whole microseconds of @p t (histogram unit for dwell/span). */
std::uint64_t
ticksToUs(Tick t)
{
    return t / sim_clock::us;
}

} // namespace

void
Shard::setSlices(double bw_mbps, double fb_bytes)
{
    vs_assert(bw_mbps > 0.0 && fb_bytes > 0.0,
              "shard slices must be positive");
    bw_slice_ = bw_mbps;
    fb_slice_ = fb_bytes;
}

void
Shard::reserve(double bw_mbps, std::uint64_t fb_bytes)
{
    bw_reserved_ += bw_mbps;
    fb_reserved_ += fb_bytes;
    ++active_;
}

void
Shard::release(double bw_mbps, std::uint64_t fb_bytes)
{
    vs_assert(active_ > 0, "releasing on an idle shard");
    vs_assert(fb_reserved_ >= fb_bytes,
              "shard frame-buffer reservation underflow");
    bw_reserved_ -= bw_mbps;
    fb_reserved_ -= fb_bytes;
    --active_;
}

void
Shard::setBrownoutFactor(double f)
{
    vs_assert(f > 0.0 && f <= 1.0,
              "brownout factor outside (0, 1]");
    brownout_factor_ = f;
}

double
Shard::load() const
{
    vs_assert(bw_slice_ > 0.0 && fb_slice_ > 0.0,
              "shard load() before setSlices()");
    // A brownout shrinks the *effective* slice, inflating apparent
    // load; since slices only weight placement, this steers
    // arrivals away without touching admission.
    const double bw = bw_reserved_ / (bw_slice_ * brownout_factor_);
    const double fb = static_cast<double>(fb_reserved_) /
                      (fb_slice_ * brownout_factor_);
    return std::max(bw, fb);
}

void
Shard::checkpoint()
{
    checkpointed_ = true;
    checkpoint_absorbed_ = absorbed_;
    checkpoint_ = snapshot_;
}

void
Shard::crash()
{
    vs_assert(checkpointed_,
              "shard crashed before the tick-0 checkpoint");
    bw_reserved_ = 0.0;
    fb_reserved_ = 0;
    active_ = 0;
    absorbed_ = checkpoint_absorbed_;
    snapshot_ = checkpoint_;
}

void
Shard::absorb(const SessionOutcome &o)
{
    ++absorbed_;
    StatsSnapshot &s = snapshot_;
    s.addCount("sessions");
    s.addCount(std::string("state.") +
               healthStateName(o.final_state));
    s.addCount("breaker.trips", o.breaker_trips);
    s.addCount("breaker.reprobes", o.breaker_reprobes);
    if (o.breaker_trips > 0 &&
        o.breaker_state == CircuitBreaker::State::kClosed) {
        s.addCount("breaker.recoveredSessions");
    }
    if (o.left_early) {
        s.addCount("leftEarly");
    }
    if (o.trace_error != TraceError::kNone) {
        s.addCount("traceDamaged");
    }
    s.addCount("drops", o.result.drops);
    s.addCount("underruns", o.result.underruns);
    s.addCount("faults.injected", o.result.faults.injected);
    s.addCount("faults.recovered", o.result.faults.recovered);
    s.addCount("faults.abandoned", o.result.faults.abandoned);
    s.addScalar("energyJ", o.result.totalEnergy());

    static const char *const kDwellNames[kNumHealthStates] = {
        "dwellUs.healthy", "dwellUs.degraded",
        "dwellUs.quarantined", "dwellUs.evicted"};
    for (std::size_t st = 0; st < kNumHealthStates; ++st) {
        s.hist(kDwellNames[st]).record(ticksToUs(o.dwell[st]));
    }
    vs_assert(o.end_tick >= o.start_offset,
              "session finished before it started");
    s.hist("spanUs").record(ticksToUs(o.end_tick - o.start_offset));

    if (!o.group.empty()) {
        const std::string p = "mix." + o.group + ".";
        s.addCount(p + "sessions");
        if (o.final_state == HealthState::kEvicted) {
            s.addCount(p + "evicted");
        }
        s.addCount(p + "breakerTrips", o.breaker_trips);
        s.addScalar(p + "energyJ", o.result.totalEnergy());
    }
}

void
Shard::absorbDedup(const DedupSettle &d)
{
    // Unconditional adds: a clean session contributes zeros, and the
    // zero counters are what makes "no dedup activity" visible in a
    // dedup-on report.  (Dedup-off runs never reach this function at
    // all, so their snapshots carry no dedup.* keys.)
    StatsSnapshot &s = snapshot_;
    s.addCount("dedup.sharedHits", d.shared_hits);
    s.addCount("dedup.selfHits", d.self_hits);
    s.addCount("dedup.bytesElided", d.bytes_elided);
    s.addCount("dedup.uniquePublished", d.unique_published);
    s.addCount("dedup.falseHits", d.false_hits);
    s.addCount("dedup.blockedWrites", d.blocked_writes);
}

void
Shard::foldDedupDomain(const DedupDomainStats &st,
                       std::uint64_t entries,
                       std::uint64_t live_refs, std::uint32_t domain)
{
    StatsSnapshot &s = snapshot_;
    const std::string p =
        "dedup.domain." + std::to_string(domain) + ".";
    s.addCount(p + "epoch", st.epoch);
    s.addCount(p + "trips", st.trips);
    s.addCount(p + "consults", st.consults);
    s.addCount(p + "falseHits", st.false_hits);
    s.addCount(p + "sharedHits", st.shared_hits);
    s.addCount(p + "selfHits", st.self_hits);
    s.addCount(p + "bytesElided", st.bytes_elided);
    s.addCount(p + "uniquePublished", st.unique_published);
    s.addCount(p + "blockedWrites", st.blocked_writes);
    s.addCount(p + "entries", entries);
    s.addCount(p + "liveRefs", live_refs);
}

} // namespace vstream
