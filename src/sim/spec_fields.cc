#include "sim/spec_fields.hh"

#include <cerrno>
#include <cstdlib>

namespace vstream::spec_fields
{

namespace
{

/**
 * Largest double guaranteed to static_cast into a Tick: the cast is
 * undefined behaviour the moment the (truncated) value cannot be
 * represented, so every float-to-tick conversion must stay strictly
 * below this.  2^63 is exactly representable as a double and leaves
 * the whole check in one comparison that is also false for NaN/inf.
 */
constexpr double kMaxTickDouble = 9223372036854775808.0; // 2^63

} // namespace

bool
unknownKey(const std::string &key, std::string &error)
{
    error = "unknown key '" + key + "'";
    return false;
}

bool
tryParseCount(const std::string &value, std::uint64_t &out,
              std::string &error)
{
    // strtoull's failure modes are all traps for untrusted input:
    // "" and "abc" parse as 0, "-5" wraps to 2^64-5, and overflow
    // clamps with errno nobody checks.  Accept plain digits only.
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
        error = "bad count '" + value + "'";
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno == ERANGE || end != value.c_str() + value.size()) {
        error = "count '" + value + "' out of range";
        return false;
    }
    out = v;
    return true;
}

bool
tryParseU32(const std::string &value, const char *what,
            std::uint32_t &out, std::string &error)
{
    std::uint64_t v = 0;
    if (!tryParseCount(value, v, error)) {
        return false;
    }
    if (v > 0xffffffffULL) {
        error = std::string(what) + " '" + value + "' out of range";
        return false;
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

bool
tryParseTicks(const std::string &value, Tick &out, std::string &error)
{
    char *end = nullptr;
    const double x = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) {
        error = "bad time '" + value + "'";
        return false;
    }
    const std::string unit(end);
    double scale = static_cast<double>(sim_clock::ms);
    if (unit == "ps") {
        scale = static_cast<double>(sim_clock::ps);
    } else if (unit == "ns") {
        scale = static_cast<double>(sim_clock::ns);
    } else if (unit == "us") {
        scale = static_cast<double>(sim_clock::us);
    } else if (unit == "ms" || unit.empty()) {
        scale = static_cast<double>(sim_clock::ms);
    } else if (unit == "s") {
        scale = static_cast<double>(sim_clock::s);
    } else {
        error = "unknown time unit '" + unit + "'";
        return false;
    }
    // !(x >= 0) rejects NaN along with negatives, and the product
    // bound rejects +inf and anything whose tick count would leave
    // the Tick range (a hostile "1e300s" must not reach the cast).
    const double ticks = x * scale;
    if (!(x >= 0.0) || !(ticks < kMaxTickDouble)) {
        error = "time '" + value + "' is not a finite tick count";
        return false;
    }
    out = static_cast<Tick>(ticks);
    return true;
}

bool
tryParseReal(const std::string &value, const RealField &field,
             double &out, std::string &error)
{
    char *end = nullptr;
    const double x = std::strtod(value.c_str(), &end);
    // Both range forms are false for NaN.
    const bool above_lo = field.lo_open ? x > field.lo : x >= field.lo;
    if (end == value.c_str() || *end != '\0' ||
        !(above_lo && x <= field.hi)) {
        error = std::string("bad ") + field.name + " '" + value + "'" +
                field.need;
        return false;
    }
    out = x;
    return true;
}

} // namespace vstream::spec_fields
