#include "serve/chaos.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/spec_fields.hh"

namespace vstream
{

const char *
fleetFaultClassName(FleetFaultClass c)
{
    switch (c) {
      case FleetFaultClass::kShardCrash:
        return "crash";
      case FleetFaultClass::kShardBrownout:
        return "brownout";
      case FleetFaultClass::kFlashCrowd:
        return "flood";
    }
    return "?";
}

namespace
{

constexpr spec_fields::RealField kFactor{"factor", 0.0, 1.0, true,
                                         " (need (0, 1])"};

} // namespace

bool
tryParseFleetFaultRule(FleetFaultClass cls, const std::string &spec,
                       FleetFaultRule &out, std::string &error)
{
    FleetFaultRule rule;
    rule.cls = cls;

    bool have_at = false;
    bool have_shard = false;
    bool have_count = false;

    const bool fields_ok = spec_fields::forEachField(
        spec, error,
        [&](const std::string &key, const std::string &value) {
            if (key == "at") {
                have_at = true;
                return spec_fields::tryParseTicks(value, rule.at, error);
            }
            if (key == "shard") {
                have_shard = true;
                return spec_fields::tryParseU32(value, "value",
                                                rule.shard, error);
            }
            if (key == "len") {
                return spec_fields::tryParseTicks(
                    value, rule.duration, error);
            }
            if (key == "factor") {
                return spec_fields::tryParseReal(value, kFactor,
                                                 rule.factor, error);
            }
            if (key == "count") {
                have_count = true;
                return spec_fields::tryParseCount(value, rule.count,
                                                  error);
            }
            if (key == "mix") {
                return spec_fields::tryParseU32(value, "value",
                                                rule.mix, error);
            }
            return spec_fields::unknownKey(key, error);
        });
    if (!fields_ok) {
        return false;
    }

    if (!have_at) {
        error = "rule needs at=TIME";
        return false;
    }
    switch (cls) {
      case FleetFaultClass::kShardCrash:
        if (!have_shard) {
            error = "crash needs shard=N";
            return false;
        }
        break;
      case FleetFaultClass::kShardBrownout:
        if (!have_shard) {
            error = "brownout needs shard=N";
            return false;
        }
        if (rule.duration == 0) {
            error = "brownout needs len=TIME";
            return false;
        }
        break;
      case FleetFaultClass::kFlashCrowd:
        if (!have_count || rule.count == 0) {
            error = "flood needs count=N (>= 1)";
            return false;
        }
        break;
    }
    if (rule.at + rule.duration < rule.at) {
        error = "rule window overflows the tick range";
        return false;
    }
    out = rule;
    return true;
}

FleetFaultRule
parseFleetFaultRule(FleetFaultClass cls, const std::string &spec)
{
    FleetFaultRule rule;
    std::string error;
    if (!tryParseFleetFaultRule(cls, spec, rule, error)) {
        vs_fatal("chaos spec '", spec, "': ", error);
    }
    return rule;
}

bool
ChaosConfig::anyRuleFor(FleetFaultClass c) const
{
    for (const FleetFaultRule &rule : rules) {
        if (rule.cls == c) {
            return true;
        }
    }
    return false;
}

void
ChaosConfig::validate(std::uint32_t shards) const
{
    for (const FleetFaultRule &rule : rules) {
        switch (rule.cls) {
          case FleetFaultClass::kShardCrash:
            // Crashing the only shard leaves nowhere to fail over
            // to; recovery needs at least one survivor.
            if (shards < 2) {
                vs_fatal("crash rules need a fleet of >= 2 shards");
            }
            [[fallthrough]];
          case FleetFaultClass::kShardBrownout:
            if (rule.shard >= shards) {
                vs_fatal("chaos rule targets shard ", rule.shard,
                         " of a ", shards, "-shard fleet");
            }
            if (rule.cls == FleetFaultClass::kShardBrownout &&
                rule.duration == 0) {
                vs_fatal("brownout rules need a duration (len=...)");
            }
            break;
          case FleetFaultClass::kFlashCrowd:
            if (rule.count == 0) {
                vs_fatal("flood rules need count >= 1");
            }
            break;
        }
        if (rule.factor <= 0.0 || rule.factor > 1.0) {
            vs_fatal("chaos factor ", rule.factor,
                     " outside (0, 1]");
        }
    }
}

std::vector<ArrivalEvent>
withFlashCrowds(std::vector<ArrivalEvent> base,
                const ChaosConfig &chaos)
{
    if (!chaos.anyRuleFor(FleetFaultClass::kFlashCrowd)) {
        return base;
    }
    std::uint64_t next_id = 0;
    for (const ArrivalEvent &a : base) {
        next_id = std::max(next_id, a.id + 1);
    }
    for (const FleetFaultRule &rule : chaos.rules) {
        if (rule.cls != FleetFaultClass::kFlashCrowd) {
            continue;
        }
        for (std::uint64_t i = 0; i < rule.count; ++i) {
            ArrivalEvent a;
            // Spread the burst evenly over [at, at + len]; 128-bit
            // intermediate so duration * i cannot overflow.
            a.tick = rule.at +
                     static_cast<Tick>(
                         static_cast<unsigned __int128>(
                             rule.duration) *
                         i / rule.count);
            a.id = next_id++;
            a.mix = rule.mix;
            base.push_back(a);
        }
    }
    // Stable: base arrivals keep their relative order at equal
    // ticks, and flood arrivals land after them.
    std::stable_sort(base.begin(), base.end(),
                     [](const ArrivalEvent &a, const ArrivalEvent &b) {
                         return a.tick < b.tick;
                     });
    return base;
}

} // namespace vstream
