/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * The paper's Race-to-Sleep results assume a pristine world: the
 * streaming buffer always holds a full batch, every MACH digest is
 * honest, and every DRAM burst completes.  The FaultInjector drops
 * those assumptions on demand: a declarative schedule of rules
 * (probability- and tick-window-based) decides, per injection
 * opportunity, whether one of three fault classes fires:
 *
 *   kNetworkStall    the network path stops delivering frames for a
 *                    configured duration (ArrivalModel);
 *   kDigestCollision a MACH lookup is presented with a corrupted
 *                    digest that collides with a resident entry
 *                    (MachArray);
 *   kDramTimeout     a DRAM burst times out and must be retried
 *                    (DramController).
 *
 * Every draw comes from a per-class xoshiro256** stream derived from
 * the schedule seed, so the same seed and the same sequence of
 * injection opportunities yield the exact same fault schedule -- a
 * robustness experiment is as reproducible as a clean run.  With no
 * rules configured every query returns immediately without touching
 * an RNG, so the injector is zero-cost when off.
 */

#ifndef VSTREAM_SIM_FAULT_INJECTOR_HH
#define VSTREAM_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/ticks.hh"

namespace vstream
{

class StatsRegistry;

/** The three injectable fault classes. */
enum class FaultClass : std::uint8_t
{
    kNetworkStall = 0,
    kDigestCollision,
    kDramTimeout,
};

constexpr std::size_t kNumFaultClasses = 3;

/** Stable lower-case name ("stall", "digest", "dram"). */
const char *faultClassName(FaultClass c);

/** One declarative injection rule. */
struct FaultRule
{
    FaultClass cls = FaultClass::kNetworkStall;
    /** Per-opportunity Bernoulli probability in [0, 1]. */
    double probability = 0.0;
    /** Active window [from, until) on the opportunity clock. */
    Tick from = 0;
    Tick until = maxTick;
    /** Cap on injections from this rule (~0 = unlimited). */
    std::uint64_t max_count = ~std::uint64_t(0);
    /** Stall duration (network-stall rules only). */
    Tick duration = 0;
};

/**
 * Parse a rule spec of the form
 * "p=0.01,from=200ms,until=1.5s,max=3,len=250ms".
 *
 * Times accept the suffixes ps/ns/us/ms/s (bare numbers are
 * milliseconds).  "at=200ms" is shorthand for a one-shot rule:
 * from=200ms with max=1 and p=1 unless given explicitly.  Fatal on a
 * malformed spec (user configuration error).
 */
FaultRule parseFaultRule(FaultClass cls, const std::string &spec);

/**
 * Recoverable variant of parseFaultRule for untrusted specs: no
 * input, however hostile (NaN times, out-of-range probabilities,
 * non-numeric counts, values past the Tick range), terminates the
 * process or invokes undefined behaviour.
 *
 * @return true and fill @p out on success; false with a diagnostic
 *         in @p error otherwise (@p out is then unspecified).
 */
bool tryParseFaultRule(FaultClass cls, const std::string &spec,
                       FaultRule &out, std::string &error);

/** Schedule plus knobs shared by the degradation paths. */
struct FaultConfig
{
    /** Seed of the per-class RNG streams. */
    std::uint64_t seed = 0x5eedf417u;
    /** Bounded-retry budget for timed-out DRAM bursts. */
    std::uint32_t dram_retry_limit = 3;
    std::vector<FaultRule> rules;

    bool enabled() const { return !rules.empty(); }
    bool anyRuleFor(FaultClass c) const;
    void validate() const;

    /**
     * Derive the schedule for one serving session: same rules, seed
     * remixed with @p session_id so concurrent sessions draw from
     * independent (but reproducible) streams.
     */
    FaultConfig forSession(std::uint64_t session_id) const;
};

/** Cross-class injection totals (bench report provenance block). */
struct FaultTotals
{
    std::uint64_t injected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t abandoned = 0;
};

/** The injection oracle every degradation path consults. */
class FaultInjector
{
  public:
    FaultInjector(std::string name, const FaultConfig &cfg);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enabled(); }

    /**
     * One injection opportunity for class @p c at time @p now.
     *
     * Walks the rules of that class; the first in-window, under-cap
     * rule whose Bernoulli draw fires injects.  Counts the injection.
     */
    bool shouldInject(FaultClass c, Tick now);

    /**
     * Could an opportunity for class @p c at any tick in
     * [@p from, @p until) inject or draw from the class's stream?
     * True when a rule of that class with a non-zero probability is
     * under its cap and its window overlaps the interval (even a
     * losing draw advances the stream; a zero probability draws
     * nothing).  A caller that skips every
     * opportunity in an interval this answers false for leaves the
     * schedule exactly as calling shouldInject would have.
     */
    bool mayInject(FaultClass c, Tick from, Tick until) const;

    /**
     * Network-stall opportunity at @p now.
     *
     * @return the stall duration, or 0 when no rule fires.
     */
    Tick injectStall(Tick now);

    /** A layer recovered from an injected fault (retry succeeded,
     * false hit caught). */
    void noteRecovered(FaultClass c) { ++recovered_[index(c)]; }

    /** A layer gave up on an injected fault but degraded cleanly. */
    void noteAbandoned(FaultClass c) { ++abandoned_[index(c)]; }

    std::uint64_t injected(FaultClass c) const
    {
        return injected_[index(c)];
    }
    std::uint64_t recovered(FaultClass c) const
    {
        return recovered_[index(c)];
    }
    std::uint64_t abandoned(FaultClass c) const
    {
        return abandoned_[index(c)];
    }

    /** Sums across all classes. */
    FaultTotals totals() const;

    /** Register each class's counters under its name. */
    void regStats(StatsRegistry &r);

  private:
    static std::size_t index(FaultClass c)
    {
        return static_cast<std::size_t>(c);
    }

    std::string name_;
    FaultConfig cfg_;
    std::array<Random, kNumFaultClasses> rngs_;
    /** Injections already charged to each rule (max_count caps). */
    std::vector<std::uint64_t> rule_fired_;
    std::array<std::uint64_t, kNumFaultClasses> injected_{};
    std::array<std::uint64_t, kNumFaultClasses> recovered_{};
    std::array<std::uint64_t, kNumFaultClasses> abandoned_{};
};

} // namespace vstream

#endif // VSTREAM_SIM_FAULT_INJECTOR_HH
