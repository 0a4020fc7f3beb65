#include "sim/random.hh"

#include <cmath>

#include "sim/logging.hh"

namespace vstream
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Random::Random(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Random::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : s_) {
        word = splitMix64(sm);
    }
    have_spare_ = false;
    spare_ = 0.0;
}

double
Random::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Random::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    vs_assert(lo <= hi, "uniformInt range inverted");
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) { // [0, 2^64-1]: full range
        return next();
    }
    // Reject draws at or above limit = kMax - kMax % span to keep the
    // result unbiased.  limit > kMax - span, so only a draw in the top
    // span values can be rejected; the division that finds limit runs
    // only for those.
    constexpr std::uint64_t kMax = ~std::uint64_t(0);
    std::uint64_t v = next();
    while (v > kMax - span && v >= kMax - kMax % span) {
        v = next();
    }
    return lo + v % span;
}

double
Random::gaussian()
{
    if (have_spare_) {
        have_spare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    have_spare_ = true;
    return u * mul;
}

double
Random::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Random::logNormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

std::uint64_t
Random::burstLength(double continue_prob, std::uint64_t cap)
{
    std::uint64_t len = 1;
    while (len < cap && chance(continue_prob)) {
        ++len;
    }
    return len;
}

} // namespace vstream
