/**
 * @file
 * The shared toolkit behind the comma-separated key=value spec
 * grammars: fault rules (`--fault-*`), fleet chaos rules
 * (`--chaos-*`), dedup poison rules (`--dedup-poison`) and content
 * library specs (`--library`).
 *
 * Specs arrive from the command line, so every field parser fails
 * closed: on bad input it returns false with a one-line diagnostic
 * in @p error and leaves its output untouched.  None of them can
 * terminate the process or reach undefined behaviour (NaN, negative
 * or overlarge values never reach an integer cast).
 */

#ifndef VSTREAM_SIM_SPEC_FIELDS_HH
#define VSTREAM_SIM_SPEC_FIELDS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/ticks.hh"

namespace vstream::spec_fields
{

/**
 * Call @p on_field(key, value) for each field of @p spec in order;
 * empty fields ("a=1,,b=2") are skipped.  Stops with false at the
 * first field without '=' (setting @p error) or the first field
 * @p on_field rejects (which sets @p error itself).
 */
template <typename OnField>
bool
forEachField(const std::string &spec, std::string &error,
             OnField &&on_field)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) {
            comma = spec.size();
        }
        const std::string field = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (field.empty()) {
            continue;
        }
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos) {
            error = "field '" + field + "' is not key=value";
            return false;
        }
        if (!on_field(field.substr(0, eq), field.substr(eq + 1))) {
            return false;
        }
    }
    return true;
}

/** Reject @p key as unknown to the grammar; always returns false. */
bool unknownKey(const std::string &key, std::string &error);

/** Plain decimal digits into a uint64 ("", "-5", "3x" and overflow
 * are all rejected). */
bool tryParseCount(const std::string &value, std::uint64_t &out,
                   std::string &error);

/** A count that must fit 32 bits; "<what> '<value>' out of range"
 * names the field when it does not. */
bool tryParseU32(const std::string &value, const char *what,
                 std::uint32_t &out, std::string &error);

/** "250ms" / "1.5s" / "400us" / "7ns" / "3ps" / bare "250" (ms) into
 * ticks; negative, NaN, infinite or out-of-range times are rejected. */
bool tryParseTicks(const std::string &value, Tick &out,
                   std::string &error);

/** A bounded real-valued field: its name and range. */
struct RealField
{
    const char *name; ///< "probability", "rate", ... (for errors)
    double lo;
    double hi;
    bool lo_open;     ///< (lo, hi] instead of [lo, hi]
    const char *need; ///< appended to the error, e.g. " (need [0, 1])"
};

/** A whole-string real in @p field's range; NaN never passes.  The
 * error reads "bad <name> '<value>'<need>". */
bool tryParseReal(const std::string &value, const RealField &field,
                  double &out, std::string &error);

} // namespace vstream::spec_fields

#endif // VSTREAM_SIM_SPEC_FIELDS_HH
