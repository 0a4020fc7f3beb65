#include "video/library.hh"

#include <algorithm>
#include <cmath>

#include "core/flat_table.hh"
#include "sim/logging.hh"
#include "sim/spec_fields.hh"

namespace vstream
{

namespace
{

/** Catalogue cap: beyond this the per-title CDF stops being a
 * sensible in-memory structure and the spec is almost certainly a
 * typo (or hostile fuzz input). */
constexpr std::uint32_t kMaxTitles = 1u << 20;

/** Zipf exponents above this produce weights that underflow to zero
 * long before the catalogue ends; reject rather than silently
 * degenerate to a one-title library. */
constexpr double kMaxSkew = 16.0;

constexpr spec_fields::RealField kSkew{"skew", 0.0, kMaxSkew, false,
                                       " (need [0, 16])"};

} // namespace

bool
tryParseLibrarySpec(const std::string &spec, LibrarySpec &out,
                    std::string &error)
{
    LibrarySpec lib;
    bool have_titles = false;

    const bool fields_ok = spec_fields::forEachField(
        spec, error,
        [&](const std::string &key, const std::string &value) {
            if (key == "titles") {
                std::uint64_t n = 0;
                if (!spec_fields::tryParseCount(value, n, error)) {
                    return false;
                }
                if (n == 0 || n > kMaxTitles) {
                    error = "titles '" + value + "' outside [1, " +
                            std::to_string(kMaxTitles) + "]";
                    return false;
                }
                lib.titles = static_cast<std::uint32_t>(n);
                have_titles = true;
                return true;
            }
            if (key == "skew") {
                return spec_fields::tryParseReal(value, kSkew,
                                                 lib.skew, error);
            }
            if (key == "seed") {
                return spec_fields::tryParseCount(value, lib.seed,
                                                  error);
            }
            return spec_fields::unknownKey(key, error);
        });
    if (!fields_ok) {
        return false;
    }

    if (!have_titles) {
        error = "library needs titles=N";
        return false;
    }
    out = lib;
    return true;
}

LibrarySpec
parseLibrarySpec(const std::string &spec)
{
    LibrarySpec lib;
    std::string error;
    if (!tryParseLibrarySpec(spec, lib, error)) {
        vs_fatal("library spec '", spec, "': ", error);
    }
    return lib;
}

ZipfLibrary::ZipfLibrary(LibrarySpec spec) : spec_(spec)
{
    vs_assert(spec_.titles >= 1 && spec_.titles <= kMaxTitles,
              "library titles outside [1, 2^20]");
    vs_assert(spec_.skew >= 0.0 && spec_.skew <= kMaxSkew,
              "library skew outside [0, 16]");
    cdf_.resize(spec_.titles);
    double total = 0.0;
    for (std::uint32_t t = 0; t < spec_.titles; ++t) {
        total += std::pow(static_cast<double>(t) + 1.0, -spec_.skew);
        cdf_[t] = total;
    }
    for (double &c : cdf_) {
        c /= total;
    }
    cdf_.back() = 1.0;
}

std::uint32_t
ZipfLibrary::sampleTitle(std::uint64_t key) const
{
    const std::uint64_t u = mixHash(spec_.seed ^ mixHash(key));
    // 53 mantissa bits of uniform [0, 1).
    const double x =
        static_cast<double>(u >> 11) * 0x1.0p-53;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
    const auto idx = it == cdf_.end() ? cdf_.size() - 1
                                      : static_cast<std::size_t>(
                                            it - cdf_.begin());
    return static_cast<std::uint32_t>(idx);
}

double
ZipfLibrary::weight(std::uint32_t title) const
{
    vs_assert(title < spec_.titles, "library title out of range");
    return title == 0 ? cdf_[0] : cdf_[title] - cdf_[title - 1];
}

void
ZipfLibrary::applyTo(VideoProfile &profile, std::uint32_t title) const
{
    vs_assert(title < spec_.titles, "library title out of range");
    // "T" then the title, built by assign + append: GCC 12 at -O3
    // warns -Wrestrict on the inlined string code of both
    // "T" + to_string and operator=("T").
    profile.key.assign(1, 'T');
    profile.key.append(std::to_string(title));
    profile.library_title = title;
    // Content identity: same title => same generator seed => byte-
    // identical macroblocks, independent of which session plays it.
    profile.seed = mixHash(spec_.seed ^
                           (0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(title) + 1)));
}

} // namespace vstream
