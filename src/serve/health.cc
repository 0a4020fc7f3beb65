#include "serve/health.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vstream
{

const char *
healthStateName(HealthState s)
{
    switch (s) {
    case HealthState::kHealthy:
        return "healthy";
    case HealthState::kDegraded:
        return "degraded";
    case HealthState::kQuarantined:
        return "quarantined";
    case HealthState::kEvicted:
        return "evicted";
    }
    return "?";
}

void
HealthConfig::validate() const
{
    if (window_vsyncs == 0) {
        vs_fatal("health window must be >= 1 vsync");
    }
    if (quarantine_windows == 0 || recover_windows == 0 ||
        evict_windows == 0) {
        vs_fatal("health ladder window counts must be >= 1");
    }
    if (degrade_drops == 0 && degrade_underruns == 0) {
        vs_fatal("health ladder needs at least one degrade signal");
    }
}

void
HealthLadder::transitionTo(HealthState next, Tick now)
{
    vs_assert(!evicted(), "no ladder transitions out of Evicted");
    vs_assert(next != state_, "ladder transition to the same state");
    vs_assert(now >= entered_, "ladder transition into the past");
    dwell_[static_cast<std::size_t>(state_)] += now - entered_;
    state_ = next;
    entered_ = now;
    ++transitions_;
}

Tick
HealthLadder::dwell(HealthState s, Tick now) const
{
    Tick total = dwell_[static_cast<std::size_t>(s)];
    if (s == state_ && now > entered_) {
        total += now - entered_;
    }
    return total;
}

void
BreakerConfig::validate() const
{
    if (false_hit_threshold <= 0.0 || false_hit_threshold > 1.0) {
        vs_fatal("breaker threshold ", false_hit_threshold,
                 " outside (0, 1]");
    }
    if (jitter_frac < 0.0 || jitter_frac > 1.0) {
        vs_fatal("breaker jitter ", jitter_frac, " outside [0, 1]");
    }
    if (cooldown_base == 0 || cooldown_cap < cooldown_base) {
        vs_fatal("breaker cooldown cap must be >= base > 0");
    }
}

CircuitBreaker::CircuitBreaker(const BreakerConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
}

bool
CircuitBreaker::onWindow(std::uint64_t lookups,
                         std::uint64_t false_hits, Tick now,
                         Random &rng)
{
    if (state_ == State::kOpen) {
        // Bypassed: samples carry no verification signal; wait the
        // cooldown out, then re-probe with MACH re-enabled.
        if (now >= reopen_at_) {
            state_ = State::kHalfOpen;
            ++reprobes_;
            return true;
        }
        return false;
    }

    const bool storm =
        lookups >= cfg_.min_lookups &&
        static_cast<double>(false_hits) >=
            cfg_.false_hit_threshold * static_cast<double>(lookups);
    if (storm) {
        trip(now, rng);
        return true;
    }
    if (state_ == State::kHalfOpen) {
        // The probe window came back clean: verification works
        // again, close the breaker.
        state_ = State::kClosed;
        return true;
    }
    return false;
}

void
CircuitBreaker::trip(Tick now, Random &rng)
{
    state_ = State::kOpen;
    ++trips_;

    // min(cap, base << (trips - 1)), shift guarded against blowing
    // past the cap, plus jitter from the session's own stream so
    // concurrent sessions never re-probe in lockstep.
    Tick cooldown = cfg_.cooldown_base;
    for (std::uint64_t k = 1; k < trips_; ++k) {
        if (cooldown >= cfg_.cooldown_cap / 2) {
            cooldown = cfg_.cooldown_cap;
            break;
        }
        cooldown *= 2;
    }
    cooldown = std::min(cooldown, cfg_.cooldown_cap);
    if (cfg_.jitter_frac > 0.0) {
        cooldown += static_cast<Tick>(static_cast<double>(cooldown) *
                                      cfg_.jitter_frac *
                                      rng.uniform());
    }
    reopen_at_ = now + cooldown;
}

const char *
breakerStateName(CircuitBreaker::State s)
{
    switch (s) {
    case CircuitBreaker::State::kClosed:
        return "closed";
    case CircuitBreaker::State::kOpen:
        return "open";
    case CircuitBreaker::State::kHalfOpen:
        return "halfOpen";
    }
    return "?";
}

} // namespace vstream
