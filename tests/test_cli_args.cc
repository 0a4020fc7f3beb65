/**
 * @file
 * The shared command line: the argv walker (both spellings, lazy
 * values, fail-closed errors) and the session and fleet flag tables
 * the front ends share.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "serve/cli_args.hh"

namespace vstream
{
namespace
{

/** Both tables applied to argv = {"prog", words...}. */
struct Parsed
{
    bool ok = false;
    std::string error;
    PipelineConfig session;
    cli::FleetFlags fleet;
};

Parsed
parse(std::vector<std::string> words)
{
    words.insert(words.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &w : words) {
        argv.push_back(w.data());
    }
    Parsed p;
    p.ok = cli::forEachFlag(
        static_cast<int>(argv.size()), argv.data(), p.error,
        [&](cli::Flag &f) {
            return cli::sessionFlag(f, p.session) ||
                   cli::fleetFlag(f, p.fleet);
        });
    return p;
}

/** Every field the two tables write, as text. */
std::string
describe(const Parsed &p)
{
    std::ostringstream os;
    const PipelineConfig &c = p.session;
    os << c.arrival.enabled << ' ' << c.arrival.bandwidth_mbps << ' '
       << c.arrival.jitter_frac << ' ' << c.preroll_frames << ' '
       << c.faults.seed << ' ' << c.faults.dram_retry_limit << ' '
       << c.mach.verify_on_hit << '\n';
    for (const FaultRule &r : c.faults.rules) {
        os << faultClassName(r.cls) << ' ' << r.probability << ' '
           << r.from << ' ' << r.until << ' ' << r.max_count << ' '
           << r.duration << '\n';
    }
    const cli::FleetFlags &f = p.fleet;
    os << f.chaos.checkpoint_period << ' ' << f.chaos.shed_depth << ' '
       << f.queue_deadline << ' ' << f.dedup.enabled << ' '
       << f.library << '\n';
    for (const FleetFaultRule &r : f.chaos.rules) {
        os << fleetFaultClassName(r.cls) << ' ' << r.at << ' '
           << r.shard << ' ' << r.duration << ' ' << r.factor << ' '
           << r.count << ' ' << r.mix << '\n';
    }
    for (const DedupPoisonRule &r : f.dedup.poison) {
        os << r.domain << ' ' << r.rate << ' ' << r.seed << '\n';
    }
    return os.str();
}

/** Every table flag with a value, and the switch. */
const std::vector<std::pair<std::string, std::string>> kAllFlags = {
    {"--arrival-bandwidth", "2.5"},
    {"--arrival-jitter", "0.25"},
    {"--arrival-preroll", "6"},
    {"--fault-seed", "77"},
    {"--fault-retry", "2"},
    {"--fault-stall", "at=400ms,len=300ms"},
    {"--fault-digest", "p=0.01"},
    {"--fault-dram", "p=0.001,from=5ms"},
    {"--verify-on-hit", ""},
    {"--chaos-crash", "at=613ms,shard=2"},
    {"--chaos-brownout", "at=300ms,shard=0,len=500ms,factor=0.5"},
    {"--chaos-flood", "at=200ms,count=300,len=50ms"},
    {"--checkpoint-period", "250"},
    {"--queue-deadline", "40"},
    {"--shed-depth", "60"},
    {"--dedup", "on"},
    {"--dedup-poison", "domain=1,rate=0.25,seed=9"},
    {"--library", "titles=64,skew=0.9,seed=7"},
};

TEST(CliArgs, BothSpellingsGiveEqualConfigs)
{
    std::vector<std::string> spaced, joined;
    for (const auto &[flag, value] : kAllFlags) {
        spaced.push_back(flag);
        if (value.empty()) {
            joined.push_back(flag);
            continue;
        }
        spaced.push_back(value);
        joined.push_back(flag + "=" + value);
    }
    const Parsed a = parse(spaced);
    const Parsed b = parse(joined);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(describe(a), describe(b));
    EXPECT_EQ(a.session.faults.rules.size(), 3u);
    EXPECT_EQ(a.fleet.chaos.rules.size(), 3u);
    EXPECT_EQ(a.fleet.dedup.poison.size(), 1u);
}

TEST(CliArgs, EachFlagFillsItsField)
{
    const auto one = [](const std::string &flag,
                        const std::string &value) {
        const Parsed p = value.empty() ? parse({flag})
                                       : parse({flag, value});
        EXPECT_TRUE(p.ok) << flag << ": " << p.error;
        return p;
    };
    const Tick ms = sim_clock::ms;

    Parsed p = one("--arrival-bandwidth", "2.5");
    EXPECT_TRUE(p.session.arrival.enabled);
    EXPECT_EQ(p.session.arrival.bandwidth_mbps, 2.5);
    p = one("--arrival-bandwidth", "0");
    EXPECT_FALSE(p.session.arrival.enabled);
    EXPECT_EQ(one("--arrival-jitter", "0.25").session.arrival.jitter_frac,
              0.25);
    // Only the pipeline's preroll: it overwrites the arrival model's.
    p = one("--arrival-preroll", "6");
    EXPECT_EQ(p.session.preroll_frames, 6u);
    EXPECT_EQ(p.session.arrival.preroll_frames,
              ArrivalConfig{}.preroll_frames);
    EXPECT_EQ(one("--arrival-preroll", "0").session.preroll_frames,
              PipelineConfig{}.preroll_frames);
    EXPECT_EQ(one("--fault-seed", "77").session.faults.seed, 77u);
    EXPECT_EQ(one("--fault-retry", "2").session.faults.dram_retry_limit,
              2u);
    const std::pair<const char *, FaultClass> fault_flags[] = {
        {"--fault-stall", FaultClass::kNetworkStall},
        {"--fault-digest", FaultClass::kDigestCollision},
        {"--fault-dram", FaultClass::kDramTimeout},
    };
    for (const auto &[flag, cls] : fault_flags) {
        p = one(flag, "p=0.5,from=1ms,len=2ms");
        ASSERT_EQ(p.session.faults.rules.size(), 1u) << flag;
        const FaultRule want =
            parseFaultRule(cls, "p=0.5,from=1ms,len=2ms");
        EXPECT_EQ(p.session.faults.rules[0].cls, want.cls) << flag;
        EXPECT_EQ(p.session.faults.rules[0].probability, 0.5) << flag;
        EXPECT_EQ(p.session.faults.rules[0].from, want.from) << flag;
    }
    EXPECT_TRUE(one("--verify-on-hit", "").session.mach.verify_on_hit);

    const std::pair<const char *, FleetFaultClass> chaos_flags[] = {
        {"--chaos-crash", FleetFaultClass::kShardCrash},
        {"--chaos-brownout", FleetFaultClass::kShardBrownout},
        {"--chaos-flood", FleetFaultClass::kFlashCrowd},
    };
    for (const auto &[flag, cls] : chaos_flags) {
        p = one(flag, "at=5ms,shard=1,len=2ms,count=3");
        ASSERT_EQ(p.fleet.chaos.rules.size(), 1u) << flag;
        EXPECT_EQ(p.fleet.chaos.rules[0].cls, cls) << flag;
        EXPECT_EQ(p.fleet.chaos.rules[0].at, 5 * ms) << flag;
    }
    EXPECT_EQ(one("--checkpoint-period", "250")
                  .fleet.chaos.checkpoint_period,
              250 * ms);
    EXPECT_EQ(one("--shed-depth", "60").fleet.chaos.shed_depth, 60u);
    EXPECT_EQ(one("--queue-deadline", "40").fleet.queue_deadline,
              40 * ms);
    EXPECT_TRUE(one("--dedup", "on").fleet.dedup.enabled);
    EXPECT_FALSE(one("--dedup", "off").fleet.dedup.enabled);
    p = one("--dedup-poison", "domain=1,rate=0.25,seed=9");
    ASSERT_EQ(p.fleet.dedup.poison.size(), 1u);
    EXPECT_EQ(p.fleet.dedup.poison[0].domain, 1u);
    EXPECT_EQ(p.fleet.dedup.poison[0].rate, 0.25);
    EXPECT_EQ(p.fleet.dedup.poison[0].seed, 9u);
    EXPECT_EQ(one("--library", "titles=64").fleet.library, "titles=64");
}

TEST(CliArgs, RepeatableFlagsKeepTheirOrder)
{
    const Parsed p = parse(
        {"--chaos-flood", "at=9ms,count=1", "--chaos-crash",
         "at=1ms,shard=0", "--chaos-crash=at=2ms,shard=1",
         "--fault-dram", "p=0.1", "--fault-stall", "at=1ms,len=1ms",
         "--dedup-poison", "rate=0.5,domain=2", "--dedup-poison",
         "rate=0.1,domain=0"});
    ASSERT_TRUE(p.ok) << p.error;
    ASSERT_EQ(p.fleet.chaos.rules.size(), 3u);
    EXPECT_EQ(p.fleet.chaos.rules[0].cls, FleetFaultClass::kFlashCrowd);
    EXPECT_EQ(p.fleet.chaos.rules[1].shard, 0u);
    EXPECT_EQ(p.fleet.chaos.rules[2].shard, 1u);
    ASSERT_EQ(p.session.faults.rules.size(), 2u);
    EXPECT_EQ(p.session.faults.rules[0].cls, FaultClass::kDramTimeout);
    EXPECT_EQ(p.session.faults.rules[1].cls, FaultClass::kNetworkStall);
    ASSERT_EQ(p.fleet.dedup.poison.size(), 2u);
    EXPECT_EQ(p.fleet.dedup.poison[0].domain, 2u);
    EXPECT_EQ(p.fleet.dedup.poison[1].domain, 0u);
}

TEST(CliArgs, LastScalarWins)
{
    const Parsed p =
        parse({"--fault-seed", "1", "--fault-seed=2", "--library",
               "titles=4", "--library=titles=8", "--dedup", "on",
               "--dedup", "off", "--shed-depth", "5", "--shed-depth",
               "6"});
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.session.faults.seed, 2u);
    EXPECT_EQ(p.fleet.library, "titles=8");
    EXPECT_FALSE(p.fleet.dedup.enabled);
    EXPECT_EQ(p.fleet.chaos.shed_depth, 6u);
}

TEST(CliArgs, FailsClosed)
{
    const std::pair<std::vector<std::string>, std::string> cases[] = {
        {{"--shard", "4"}, "unknown flag '--shard'"},
        {{"--fault-seed"}, "--fault-seed: needs a value"},
        {{"--shed-depth", "abc"}, "--shed-depth: bad count 'abc'"},
        {{"--shed-depth", "-1"}, "--shed-depth: bad count '-1'"},
        {{"--shed-depth=4294967296"},
         "--shed-depth: value '4294967296' out of range"},
        {{"--fault-seed", "18446744073709551616"},
         "--fault-seed: count '18446744073709551616' out of range"},
        {{"--arrival-jitter", "nan"}, "--arrival-jitter: bad jitter"},
        {{"--arrival-jitter", "3"}, "--arrival-jitter: bad jitter"},
        {{"--arrival-bandwidth", "-2"},
         "--arrival-bandwidth: bad bandwidth"},
        {{"--verify-on-hit=1"}, "--verify-on-hit takes no value"},
        {{"stray"}, "unexpected argument 'stray'"},
        {{"--dedup", "maybe"}, "--dedup: bad value 'maybe'"},
        {{"--chaos-crash", "at=1ms,bogus=2"},
         "--chaos-crash: unknown key 'bogus'"},
        {{"--fault-stall", "p=2"}, "--fault-stall:"},
        {{"--dedup-poison", "domain=1"}, "--dedup-poison:"},
        {{"--library", "skew=0.9"}, "--library:"},
    };
    for (const auto &[words, want] : cases) {
        const Parsed p = parse(words);
        EXPECT_FALSE(p.ok) << words[0];
        EXPECT_EQ(p.error.rfind(want, 0), 0u)
            << words[0] << ": got '" << p.error << "'";
    }
}

TEST(CliArgs, ErrorStopsTheWalk)
{
    // The bad flag is reported; nothing after it runs.
    const Parsed p =
        parse({"--fault-retry", "x", "--fault-seed", "5", "--nope"});
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.error, "--fault-retry: bad count 'x'");
    EXPECT_EQ(p.session.faults.seed, FaultConfig{}.seed);
}

TEST(CliArgs, FleetFlagsRecordTheFirstOfEachKind)
{
    Parsed p = parse({"--dedup", "on", "--shed-depth", "3",
                      "--chaos-crash", "at=1ms,shard=0"});
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.fleet.first, "--dedup");
    EXPECT_EQ(p.fleet.first_chaos, "--shed-depth");
    p = parse({"--library", "titles=2", "--queue-deadline", "5",
               "--dedup-poison", "rate=0.1", "--fault-seed", "1"});
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.fleet.first, "--library");
    EXPECT_EQ(p.fleet.first_chaos, "");
    EXPECT_EQ(parse({"--fault-seed", "1"}).fleet.first, "");
}

TEST(CliArgs, SchemeLettersRoundTrip)
{
    const Scheme all[] = {Scheme::kBaseline,    Scheme::kBatching,
                          Scheme::kRacing,      Scheme::kRaceToSleep,
                          Scheme::kMab,         Scheme::kGab};
    std::vector<std::string> names;
    for (Scheme s : all) {
        Scheme got = Scheme::kBaseline;
        ASSERT_TRUE(tryParseScheme(schemeKey(s), got)) << schemeKey(s);
        EXPECT_EQ(got, s);
        EXPECT_EQ(schemeName(got), schemeName(s));
        names.push_back(schemeName(got));
    }
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              6u);
    for (const char *bad : {"", "g", "X", "GG", "Race-to-Sleep"}) {
        Scheme got = Scheme::kMab;
        EXPECT_FALSE(tryParseScheme(bad, got)) << bad;
        EXPECT_EQ(got, Scheme::kMab) << bad;
    }
}

TEST(CliArgsDeath, ParseFlagsExitsWithOneLine)
{
    std::string prog = "/path/to/tool", flag = "--shard", value = "4";
    char *argv[] = {prog.data(), flag.data(), value.data()};
    EXPECT_EXIT(cli::parseFlags(3, argv,
                                [](cli::Flag &) { return false; }),
                ::testing::ExitedWithCode(2),
                "^tool: unknown flag '--shard'\n$");
}

TEST(CliArgs, PositionalCountKeepsEveryValidValue)
{
    std::string prog = "tool", key = "V8", zero = "0", max = "4294967295";
    char *argv[] = {prog.data(), key.data(), zero.data(), max.data()};
    EXPECT_EQ(cli::positionalU32(2, argv, 2, "frames", 96), 96u);
    EXPECT_EQ(cli::positionalU32(3, argv, 2, "frames", 96), 0u);
    EXPECT_EQ(cli::positionalU32(4, argv, 3, "frames", 96),
              4294967295u);
}

TEST(CliArgsDeath, PositionalCountFailsClosed)
{
    for (const char *bad : {"abc", "-1", "12x", "4294967296"}) {
        std::string prog = "/path/to/tool", value = bad;
        char *argv[] = {prog.data(), value.data()};
        EXPECT_EXIT(cli::positionalU32(2, argv, 1, "frames", 96),
                    ::testing::ExitedWithCode(2), "^tool: frames: ")
            << bad;
    }
}

} // namespace
} // namespace vstream
