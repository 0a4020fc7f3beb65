/**
 * @file
 * The command line the front ends share: one argv walker, shaped
 * like spec_fields::forEachField, and the per-session and per-fleet
 * flag tables of vstream_sim, vstream_serve and bench_soak.
 *
 * A handler sees each flag once and pulls its value lazily, so
 * "--opt V" and "--opt=V" are the same to it.  Flags come from
 * outside the program, so parsing fails closed: an unknown flag, a
 * missing value, a value given to a switch, a malformed or
 * out-of-range number and a malformed rule spec are all errors.
 * Numbers go through spec_fields' grammars, never atoi.
 */

#ifndef VSTREAM_SERVE_CLI_ARGS_HH
#define VSTREAM_SERVE_CLI_ARGS_HH

#include <cstdint>
#include <string>

#include "core/pipeline_config.hh"
#include "serve/chaos.hh"
#include "serve/shared_mach.hh"
#include "sim/spec_fields.hh"

namespace vstream::cli
{

/** One "--name" or "--name=value" word of argv. */
class Flag
{
  public:
    /** Flag argv[@p i]; next() may consume argv[@p i + 1]. */
    Flag(int argc, char **argv, int &i);

    /** The flag without its "=value". */
    const std::string &name() const { return name_; }
    bool is(const char *name) const { return name_ == name; }

    /** The value: the text after '=', else the next argv word.  The
     * typed forms parse it; an error is recorded, not thrown. */
    std::string next();
    std::uint32_t nextU32();
    std::uint64_t nextU64();
    double nextReal(const spec_fields::RealField &field);
    /** A scheme letter, L|B|R|S|M|G. */
    Scheme nextScheme();

    /** Record @p error against this flag (the first one wins). */
    void fail(const std::string &error);

    /** After the handler: false with @p error set when the word is
     * not a flag, the handler did not know it (@p known), its value
     * was missing or malformed, or a switch was given "=value". */
    bool finish(bool known, std::string &error) const;

  private:
    int argc_;
    char **argv_;
    int &i_;
    std::string name_;
    std::string inline_value_;
    bool has_inline_ = false;
    bool taken_ = false;
    std::string error_;
};

/**
 * Call @p on_flag(flag) for each word of argv[1..] in order; it
 * returns false for a flag it does not know.  Stops with false at
 * the first error, setting @p error.
 */
template <typename OnFlag>
bool
forEachFlag(int argc, char **argv, std::string &error, OnFlag &&on_flag)
{
    for (int i = 1; i < argc; ++i) {
        Flag flag(argc, argv, i);
        const bool known = on_flag(flag);
        if (!flag.finish(known, error)) {
            return false;
        }
    }
    return true;
}

/** Print the one line "<program>: <error>" to stderr and exit with
 * status 2. */
[[noreturn]] void exitUsage(const char *argv0, const std::string &error);

/**
 * Positional count argv[@p i] ("<program> [key] [frames]"), or
 * @p fallback when absent.  A value that is not a 32-bit count
 * exits through exitUsage with "<what>: <error>".
 */
std::uint32_t positionalU32(int argc, char **argv, int i,
                            const char *what, std::uint32_t fallback);

/** forEachFlag, or exitUsage at the first error. */
template <typename OnFlag>
void
parseFlags(int argc, char **argv, OnFlag &&on_flag)
{
    std::string error;
    if (!forEachFlag(argc, argv, error, on_flag)) {
        exitUsage(argv[0], error);
    }
}

/**
 * The per-session flags, applied to @p cfg: --arrival-bandwidth
 * MBPS (> 0 turns the arrival model on), --arrival-jitter SIGMA,
 * --arrival-preroll N (0 keeps the default), --fault-seed N,
 * --fault-retry N, --fault-stall/--fault-digest/--fault-dram SPEC
 * and --verify-on-hit.  False when @p f is none of them.
 */
bool sessionFlag(Flag &f, PipelineConfig &cfg);

/** What the fleet flags set. */
struct FleetFlags
{
    /** --chaos-crash/-brownout/-flood SPEC (repeatable, in order),
     * --checkpoint-period MS and --shed-depth N. */
    ChaosConfig chaos;
    /** --queue-deadline MS. */
    Tick queue_deadline = 0;
    /** --dedup on|off and --dedup-poison SPEC (repeatable). */
    DedupConfig dedup;
    /** --library SPEC, validated. */
    std::string library;
    /** The first fleet flag given, and the first that fills
     * @c chaos (only a sharded fleet reads those); "" when none. */
    std::string first;
    std::string first_chaos;
};

/** Apply fleet flag @p f to @p out; false when it is not one. */
bool fleetFlag(Flag &f, FleetFlags &out);

} // namespace vstream::cli

#endif // VSTREAM_SERVE_CLI_ARGS_HH
