#include "serve/cli_args.hh"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>

#include "video/library.hh"

namespace vstream::cli
{

namespace
{

constexpr Tick kMs = sim_clock::ms;
const spec_fields::RealField kBandwidthField{
    "bandwidth", 0.0, std::numeric_limits<double>::max(), false,
    " (need Mbit/s >= 0)"};
// ArrivalConfig::validate's range.
const spec_fields::RealField kJitterField{"jitter", 0.0, 2.0, false,
                                          " (need [0, 2])"};

void
addFaultRule(Flag &f, FaultClass cls, FaultConfig &faults)
{
    FaultRule rule;
    std::string error;
    if (tryParseFaultRule(cls, f.next(), rule, error)) {
        faults.rules.push_back(rule);
    } else {
        f.fail(error);
    }
}

void
addChaosRule(Flag &f, FleetFaultClass cls, ChaosConfig &chaos)
{
    FleetFaultRule rule;
    std::string error;
    if (tryParseFleetFaultRule(cls, f.next(), rule, error)) {
        chaos.rules.push_back(rule);
    } else {
        f.fail(error);
    }
}

} // namespace

Flag::Flag(int argc, char **argv, int &i)
    : argc_(argc), argv_(argv), i_(i), name_(argv[i])
{
    const std::size_t eq = name_.find('=');
    if (name_.rfind("--", 0) == 0 && eq != std::string::npos) {
        inline_value_ = name_.substr(eq + 1);
        name_.resize(eq);
        has_inline_ = true;
    }
}

std::string
Flag::next()
{
    taken_ = true;
    if (has_inline_) {
        return inline_value_;
    }
    if (i_ + 1 >= argc_) {
        fail("needs a value");
        return "";
    }
    return argv_[++i_];
}

std::uint32_t
Flag::nextU32()
{
    std::uint32_t v = 0;
    std::string error;
    if (!spec_fields::tryParseU32(next(), "value", v, error)) {
        fail(error);
    }
    return v;
}

std::uint64_t
Flag::nextU64()
{
    std::uint64_t v = 0;
    std::string error;
    if (!spec_fields::tryParseCount(next(), v, error)) {
        fail(error);
    }
    return v;
}

double
Flag::nextReal(const spec_fields::RealField &field)
{
    double v = 0.0;
    std::string error;
    if (!spec_fields::tryParseReal(next(), field, v, error)) {
        fail(error);
    }
    return v;
}

Scheme
Flag::nextScheme()
{
    const std::string key = next();
    Scheme s = Scheme::kBaseline;
    if (!tryParseScheme(key, s)) {
        fail("unknown scheme '" + key + "' (need L|B|R|S|M|G)");
    }
    return s;
}

void
Flag::fail(const std::string &error)
{
    if (error_.empty()) {
        error_ = error;
    }
}

bool
Flag::finish(bool known, std::string &error) const
{
    if (name_.rfind("--", 0) != 0) {
        error = "unexpected argument '" + name_ + "'";
    } else if (!known) {
        error = "unknown flag '" + name_ + "'";
    } else if (!error_.empty()) {
        error = name_ + ": " + error_;
    } else if (has_inline_ && !taken_) {
        error = name_ + " takes no value";
    } else {
        return true;
    }
    return false;
}

std::uint32_t
positionalU32(int argc, char **argv, int i, const char *what,
              std::uint32_t fallback)
{
    if (i >= argc) {
        return fallback;
    }
    std::uint32_t v = 0;
    std::string error;
    if (!spec_fields::tryParseU32(argv[i], "value", v, error)) {
        exitUsage(argv[0], std::string(what) + ": " + error);
    }
    return v;
}

void
exitUsage(const char *argv0, const std::string &error)
{
    const char *slash = std::strrchr(argv0, '/');
    std::cerr << (slash != nullptr ? slash + 1 : argv0) << ": " << error
              << "\n";
    // A usage error is the caller's mistake, not a simulator fault:
    // it exits with the CLI convention's status 2, not vs_fatal's 1.
    // vstream:allow(logging-discipline)
    std::exit(2);
}

bool
sessionFlag(Flag &f, PipelineConfig &cfg)
{
    if (f.is("--arrival-bandwidth")) {
        const double mbps = f.nextReal(kBandwidthField);
        cfg.arrival.enabled = mbps > 0.0;
        if (cfg.arrival.enabled) {
            cfg.arrival.bandwidth_mbps = mbps;
        }
    } else if (f.is("--arrival-jitter")) {
        cfg.arrival.jitter_frac = f.nextReal(kJitterField);
    } else if (f.is("--arrival-preroll")) {
        // The pipeline copies this into ArrivalConfig itself.
        if (const std::uint32_t n = f.nextU32(); n > 0) {
            cfg.preroll_frames = n;
        }
    } else if (f.is("--fault-seed")) {
        cfg.faults.seed = f.nextU64();
    } else if (f.is("--fault-retry")) {
        cfg.faults.dram_retry_limit = f.nextU32();
    } else if (f.is("--fault-stall")) {
        addFaultRule(f, FaultClass::kNetworkStall, cfg.faults);
    } else if (f.is("--fault-digest")) {
        addFaultRule(f, FaultClass::kDigestCollision, cfg.faults);
    } else if (f.is("--fault-dram")) {
        addFaultRule(f, FaultClass::kDramTimeout, cfg.faults);
    } else if (f.is("--verify-on-hit")) {
        cfg.mach.verify_on_hit = true;
    } else {
        return false;
    }
    return true;
}

bool
fleetFlag(Flag &f, FleetFlags &out)
{
    bool chaos = true;
    if (f.is("--chaos-crash")) {
        addChaosRule(f, FleetFaultClass::kShardCrash, out.chaos);
    } else if (f.is("--chaos-brownout")) {
        addChaosRule(f, FleetFaultClass::kShardBrownout, out.chaos);
    } else if (f.is("--chaos-flood")) {
        addChaosRule(f, FleetFaultClass::kFlashCrowd, out.chaos);
    } else if (f.is("--checkpoint-period")) {
        out.chaos.checkpoint_period = f.nextU32() * kMs;
    } else if (f.is("--shed-depth")) {
        out.chaos.shed_depth = f.nextU32();
    } else {
        chaos = false;
        if (f.is("--queue-deadline")) {
            out.queue_deadline = f.nextU32() * kMs;
        } else if (f.is("--dedup")) {
            const std::string v = f.next();
            if (v != "on" && v != "off") {
                f.fail("bad value '" + v + "' (need on|off)");
            }
            out.dedup.enabled = v == "on";
        } else if (f.is("--dedup-poison")) {
            DedupPoisonRule rule;
            std::string error;
            if (tryParseDedupPoisonRule(f.next(), rule, error)) {
                out.dedup.poison.push_back(rule);
            } else {
                f.fail(error);
            }
        } else if (f.is("--library")) {
            LibrarySpec spec;
            std::string error;
            out.library = f.next();
            if (!tryParseLibrarySpec(out.library, spec, error)) {
                f.fail(error);
            }
        } else {
            return false;
        }
    }
    if (out.first.empty()) {
        out.first = f.name();
    }
    if (chaos && out.first_chaos.empty()) {
        out.first_chaos = f.name();
    }
    return true;
}

} // namespace vstream::cli
