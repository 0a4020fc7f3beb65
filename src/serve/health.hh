/**
 * @file
 * Per-session health: the degradation ladder and the MACH circuit
 * breaker.
 *
 * A serving session is never allowed to take the process down: every
 * per-session fatal condition (trace damage, arrival-stall storms,
 * DRAM abandon-budget exhaustion, MACH false-hit storms) is mapped
 * onto a small state machine that only ever degrades that one
 * session.  The ladder is
 *
 *   Healthy -> Degraded -> Quarantined -> Evicted
 *
 * with recovery allowed from Degraded back to Healthy after enough
 * clean windows.  Orthogonally, a circuit breaker watches the MACH
 * verify-on-hit false-hit rate: past a threshold the session's MACH
 * is bypassed (full 48 B unique writes), then re-probed after an
 * exponential-backoff cooldown whose jitter comes from the session's
 * own xoshiro256** stream, so every trip and re-probe is
 * reproducible.
 */

#ifndef VSTREAM_SERVE_HEALTH_HH
#define VSTREAM_SERVE_HEALTH_HH

#include <array>
#include <cstdint>

#include "sim/random.hh"
#include "sim/ticks.hh"

namespace vstream
{

/** The session degradation ladder, worst state last. */
enum class HealthState : std::uint8_t
{
    kHealthy = 0,
    kDegraded,
    kQuarantined,
    kEvicted,
};

constexpr std::size_t kNumHealthStates = 4;

/** Stable lower-case name ("healthy", ..., "evicted"). */
const char *healthStateName(HealthState s);

/** Ladder policy knobs, evaluated once per health window. */
struct HealthConfig
{
    /** Window length in vsyncs between two health evaluations. */
    std::uint32_t window_vsyncs = 32;
    /** Drops within one window that mark it degraded. */
    std::uint32_t degrade_drops = 8;
    /** Underruns within one window that mark it degraded (the
     * arrival-stall-storm signal). */
    std::uint32_t degrade_underruns = 4;
    /** Total DRAM bursts abandoned before the session is
     * quarantined outright (a per-session error budget). */
    std::uint64_t abandon_budget = 16;
    /** Consecutive degraded windows before quarantine. */
    std::uint32_t quarantine_windows = 3;
    /** Consecutive clean windows before Degraded recovers. */
    std::uint32_t recover_windows = 2;
    /** Windows a quarantined session lingers (so its dwell is
     * observable) before it is evicted. */
    std::uint32_t evict_windows = 2;

    void validate() const;
};

/**
 * Tracks the ladder state and how long the session dwelt in each
 * state.  Pure bookkeeping: the transition *policy* lives in Session.
 */
class HealthLadder
{
  public:
    HealthState state() const { return state_; }

    bool evicted() const { return state_ == HealthState::kEvicted; }

    /** Move to @p next at time @p now, closing the current dwell. */
    void transitionTo(HealthState next, Tick now);

    /** Ladder transitions taken so far. */
    std::uint64_t transitions() const { return transitions_; }

    /**
     * Total ticks spent in @p s; @p now closes the still-open dwell
     * of the current state.
     */
    Tick dwell(HealthState s, Tick now) const;

  private:
    HealthState state_ = HealthState::kHealthy;
    Tick entered_ = 0;
    std::uint64_t transitions_ = 0;
    std::array<Tick, kNumHealthStates> dwell_{};
};

/** Circuit-breaker knobs for the MACH verification path. */
struct BreakerConfig
{
    /** Per-window falseHits/lookups rate that trips the breaker. */
    double false_hit_threshold = 0.02;
    /** Windows with fewer lookups than this are not judged. */
    std::uint64_t min_lookups = 64;
    /** Cooldown after the first trip; doubles per further trip. */
    Tick cooldown_base = static_cast<Tick>(250) * sim_clock::ms;
    /** Upper bound on a single cooldown. */
    Tick cooldown_cap = static_cast<Tick>(4) * sim_clock::s;
    /** Uniform jitter fraction added to each cooldown (in [0, 1]). */
    double jitter_frac = 0.2;

    void validate() const;
};

/**
 * Closed -> (false-hit storm) -> Open -> (cooldown) -> HalfOpen
 * -> clean probe window -> Closed, or another storm -> Open again
 * with a doubled cooldown.
 *
 * While Open the session's MACH is bypassed; HalfOpen re-enables it
 * for one probe window.
 */
class CircuitBreaker
{
  public:
    enum class State : std::uint8_t
    {
        kClosed = 0,
        kOpen,
        kHalfOpen,
    };

    explicit CircuitBreaker(const BreakerConfig &cfg);

    State state() const { return state_; }

    /** Should the session's MACH be bypassed right now? */
    bool bypass() const { return state_ == State::kOpen; }

    std::uint64_t trips() const { return trips_; }
    std::uint64_t reprobes() const { return reprobes_; }

    /** End of the running cooldown (valid while Open). */
    Tick cooldownEnd() const { return reopen_at_; }

    /**
     * Feed one health window's MACH counters.
     *
     * @param lookups    lookups issued during the window
     * @param false_hits verify-on-hit demotions during the window
     * @param now        absolute tick of the window boundary
     * @param rng        the session's jitter stream
     * @return true when the state changed (caller re-applies the
     *         bypass to the pipeline).
     */
    bool onWindow(std::uint64_t lookups, std::uint64_t false_hits,
                  Tick now, Random &rng);

  private:
    void trip(Tick now, Random &rng);

    BreakerConfig cfg_;
    State state_ = State::kClosed;
    std::uint64_t trips_ = 0;
    std::uint64_t reprobes_ = 0;
    Tick reopen_at_ = 0;
};

/** Stable lower-case name ("closed", "open", "halfOpen"). */
const char *breakerStateName(CircuitBreaker::State s);

} // namespace vstream

#endif // VSTREAM_SERVE_HEALTH_HH
