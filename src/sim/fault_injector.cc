#include "sim/fault_injector.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/spec_fields.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

const char *
faultClassName(FaultClass c)
{
    switch (c) {
      case FaultClass::kNetworkStall:
        return "stall";
      case FaultClass::kDigestCollision:
        return "digest";
      case FaultClass::kDramTimeout:
        return "dram";
    }
    return "?";
}

namespace
{

constexpr spec_fields::RealField kProbability{"probability", 0.0, 1.0,
                                              false, ""};

} // namespace

bool
tryParseFaultRule(FaultClass cls, const std::string &spec,
                  FaultRule &out, std::string &error)
{
    FaultRule rule;
    rule.cls = cls;

    bool have_p = false;
    bool have_max = false;
    bool have_at = false;

    const bool fields_ok = spec_fields::forEachField(
        spec, error,
        [&](const std::string &key, const std::string &value) {
            if (key == "p") {
                have_p = true;
                return spec_fields::tryParseReal(
                    value, kProbability, rule.probability, error);
            }
            if (key == "from") {
                return spec_fields::tryParseTicks(value, rule.from,
                                                  error);
            }
            if (key == "until") {
                return spec_fields::tryParseTicks(value, rule.until,
                                                  error);
            }
            if (key == "at") {
                have_at = true;
                return spec_fields::tryParseTicks(value, rule.from,
                                                  error);
            }
            if (key == "max") {
                have_max = true;
                return spec_fields::tryParseCount(
                    value, rule.max_count, error);
            }
            if (key == "len") {
                return spec_fields::tryParseTicks(
                    value, rule.duration, error);
            }
            return spec_fields::unknownKey(key, error);
        });
    if (!fields_ok) {
        return false;
    }

    // "at=T" is a one-shot: fire exactly once, deterministically,
    // from T onward, unless the spec overrides p/max itself.
    if (have_at) {
        if (!have_p) {
            rule.probability = 1.0;
        }
        if (!have_max) {
            rule.max_count = 1;
        }
    }
    if (rule.until <= rule.from) {
        error = "empty fault window";
        return false;
    }
    out = rule;
    return true;
}

FaultRule
parseFaultRule(FaultClass cls, const std::string &spec)
{
    FaultRule rule;
    std::string error;
    if (!tryParseFaultRule(cls, spec, rule, error)) {
        vs_fatal("fault spec '", spec, "': ", error);
    }
    return rule;
}

bool
FaultConfig::anyRuleFor(FaultClass c) const
{
    for (const FaultRule &rule : rules) {
        if (rule.cls == c) {
            return true;
        }
    }
    return false;
}

void
FaultConfig::validate() const
{
    for (const FaultRule &rule : rules) {
        if (rule.probability < 0.0 || rule.probability > 1.0) {
            vs_fatal("fault rule probability ", rule.probability,
                     " outside [0, 1]");
        }
        if (rule.until <= rule.from) {
            vs_fatal("fault rule window is empty");
        }
        if (rule.cls == FaultClass::kNetworkStall &&
            rule.duration == 0) {
            vs_fatal("network-stall rules need a duration (len=...)");
        }
    }
}

FaultConfig
FaultConfig::forSession(std::uint64_t session_id) const
{
    FaultConfig scoped = *this;
    // SplitMix the id into the seed rather than xor-ing it raw:
    // neighbouring ids (0, 1, 2, ...) must land on unrelated streams.
    std::uint64_t state = session_id + 0x517cc1b727220a95ULL;
    scoped.seed = seed ^ splitMix64(state);
    return scoped;
}

FaultInjector::FaultInjector(std::string name, const FaultConfig &cfg)
    : name_(std::move(name)), cfg_(cfg),
      rule_fired_(cfg_.rules.size(), 0)
{
    cfg_.validate();
    // Independent per-class streams: injections of one class never
    // perturb another class's schedule.
    std::uint64_t state = cfg_.seed;
    for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
        rngs_[c].seed(splitMix64(state));
    }
}

bool
FaultInjector::shouldInject(FaultClass c, Tick now)
{
    if (!enabled()) {
        return false;
    }
    for (std::size_t i = 0; i < cfg_.rules.size(); ++i) {
        const FaultRule &rule = cfg_.rules[i];
        if (rule.cls != c || now < rule.from || now >= rule.until ||
            rule_fired_[i] >= rule.max_count) {
            continue;
        }
        if (rngs_[index(c)].chance(rule.probability)) {
            ++rule_fired_[i];
            ++injected_[index(c)];
            return true;
        }
    }
    return false;
}

bool
FaultInjector::mayInject(FaultClass c, Tick from, Tick until) const
{
    for (std::size_t i = 0; i < cfg_.rules.size(); ++i) {
        const FaultRule &rule = cfg_.rules[i];
        if (rule.cls == c && rule.probability > 0.0 && from < until &&
            from < rule.until && rule.from < until &&
            rule_fired_[i] < rule.max_count) {
            return true;
        }
    }
    return false;
}

Tick
FaultInjector::injectStall(Tick now)
{
    if (!enabled()) {
        return 0;
    }
    const std::size_t ci = index(FaultClass::kNetworkStall);
    for (std::size_t i = 0; i < cfg_.rules.size(); ++i) {
        const FaultRule &rule = cfg_.rules[i];
        if (rule.cls != FaultClass::kNetworkStall || now < rule.from ||
            now >= rule.until || rule_fired_[i] >= rule.max_count) {
            continue;
        }
        if (rngs_[ci].chance(rule.probability)) {
            ++rule_fired_[i];
            ++injected_[ci];
            return rule.duration;
        }
    }
    return 0;
}

FaultTotals
FaultInjector::totals() const
{
    FaultTotals t;
    for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
        t.injected += injected_[c];
        t.recovered += recovered_[c];
        t.abandoned += abandoned_[c];
    }
    return t;
}

void
FaultInjector::regStats(StatsRegistry &r)
{
    for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
        const auto cls = static_cast<FaultClass>(c);
        const std::string base =
            name_ + "." + faultClassName(cls) + ".";
        r.addCallback(base + "injected", "faults injected",
                      [this, c] {
                          return static_cast<double>(injected_[c]);
                      });
        r.addCallback(base + "recovered",
                      "injected faults recovered from", [this, c] {
                          return static_cast<double>(recovered_[c]);
                      });
        r.addCallback(base + "abandoned",
                      "injected faults abandoned after retries",
                      [this, c] {
                          return static_cast<double>(abandoned_[c]);
                      });
    }
}

} // namespace vstream
