/**
 * @file
 * Fuzz harness for the rule-spec grammars that share the
 * sim/spec_fields.hh toolkit: session fault rules (`--fault-*`,
 * tryParseFaultRule), fleet chaos rules (`--chaos-*`,
 * tryParseFleetFaultRule) and dedup poison rules (`--dedup-poison`,
 * tryParseDedupPoisonRule).  The library-spec grammar, the fourth
 * user of the toolkit, has its own harness (fuzz_library_spec.cc).
 *
 * Input layout: the first byte selects the grammar (byte % 3: 0 =
 * fault, 1 = chaos, 2 = poison; the corpus uses the ASCII digits
 * '0', '1', '2'), the rest is the spec text.  Rule specs come from
 * the command line, so every parser must reject any hostile spec
 * gracefully: no process termination, no undefined behaviour (NaN or
 * overlarge times must never reach a float-to-Tick cast), and on
 * success a rule whose fields all satisfy the documented invariants.
 *
 * Built with -fsanitize=fuzzer under Clang; under GCC the fallback
 * driver in fuzz_driver_main.cc replays and mutates the checked-in
 * corpus (fuzz/corpus/fault_rules) instead.
 */

#include <cstddef>
#include <cstdint>
#include <string>

#include "fuzz_common.hh"
#include "serve/chaos.hh"
#include "serve/shared_mach.hh"
#include "sim/fault_injector.hh"

namespace
{

void
fuzzFaultRule(const std::string &spec)
{
    static constexpr vstream::FaultClass kClasses[] = {
        vstream::FaultClass::kNetworkStall,
        vstream::FaultClass::kDigestCollision,
        vstream::FaultClass::kDramTimeout,
    };

    for (const vstream::FaultClass cls : kClasses) {
        vstream::FaultRule rule;
        std::string error;
        if (!vstream::tryParseFaultRule(cls, spec, rule, error)) {
            // Rejection must come with a diagnostic.
            FUZZ_ASSERT(!error.empty());
            continue;
        }
        // An accepted rule obeys every documented field invariant;
        // note both range forms are deliberately NaN-rejecting.
        FUZZ_ASSERT(rule.cls == cls);
        FUZZ_ASSERT(rule.probability >= 0.0 &&
                    rule.probability <= 1.0);
        FUZZ_ASSERT(rule.from < rule.until);
        // Accepted specs round-trip through the fatal entry point
        // without tripping it (the two parsers must agree).
        const vstream::FaultRule again =
            vstream::parseFaultRule(cls, spec);
        FUZZ_ASSERT(again.probability == rule.probability);
        FUZZ_ASSERT(again.from == rule.from);
        FUZZ_ASSERT(again.until == rule.until);
        FUZZ_ASSERT(again.max_count == rule.max_count);
        FUZZ_ASSERT(again.duration == rule.duration);
    }
}

void
fuzzChaosRule(const std::string &spec)
{
    static constexpr vstream::FleetFaultClass kClasses[] = {
        vstream::FleetFaultClass::kShardCrash,
        vstream::FleetFaultClass::kShardBrownout,
        vstream::FleetFaultClass::kFlashCrowd,
    };

    for (const vstream::FleetFaultClass cls : kClasses) {
        vstream::FleetFaultRule rule;
        std::string error;
        if (!vstream::tryParseFleetFaultRule(cls, spec, rule, error)) {
            FUZZ_ASSERT(!error.empty());
            continue;
        }
        FUZZ_ASSERT(rule.cls == cls);
        // The (0, 1] factor range is NaN-rejecting, and the rule
        // window may never wrap the tick range.
        FUZZ_ASSERT(rule.factor > 0.0 && rule.factor <= 1.0);
        FUZZ_ASSERT(rule.at + rule.duration >= rule.at);
        if (cls == vstream::FleetFaultClass::kShardBrownout) {
            FUZZ_ASSERT(rule.duration > 0);
        }
        if (cls == vstream::FleetFaultClass::kFlashCrowd) {
            FUZZ_ASSERT(rule.count >= 1);
        }
        const vstream::FleetFaultRule again =
            vstream::parseFleetFaultRule(cls, spec);
        FUZZ_ASSERT(again.at == rule.at);
        FUZZ_ASSERT(again.shard == rule.shard);
        FUZZ_ASSERT(again.duration == rule.duration);
        FUZZ_ASSERT(again.factor == rule.factor);
        FUZZ_ASSERT(again.count == rule.count);
        FUZZ_ASSERT(again.mix == rule.mix);
    }
}

void
fuzzPoisonRule(const std::string &spec)
{
    vstream::DedupPoisonRule rule;
    std::string error;
    if (!vstream::tryParseDedupPoisonRule(spec, rule, error)) {
        FUZZ_ASSERT(!error.empty());
        return;
    }
    FUZZ_ASSERT(rule.rate >= 0.0 && rule.rate <= 1.0);
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size == 0) {
        return 0; // no grammar selected
    }
    // Specs are short key=value lists; cap the length so the fuzzer
    // explores structure instead of megabyte-long field values.
    constexpr std::size_t kMaxSpec = 4096;
    const std::size_t len = size - 1;
    const std::string spec(reinterpret_cast<const char *>(data + 1),
                           len < kMaxSpec ? len : kMaxSpec);
    switch (data[0] % 3) {
      case 0:
        fuzzFaultRule(spec);
        break;
      case 1:
        fuzzChaosRule(spec);
        break;
      default:
        fuzzPoisonRule(spec);
        break;
    }
    return 0;
}
