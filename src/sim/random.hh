/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator (synthetic video content,
 * per-frame decode complexity, bank conflicts injected by the traffic
 * shuffler) draws from an explicitly seeded Random instance so that a
 * simulation is exactly reproducible from its seed.  The generator is
 * xoshiro256**, seeded through SplitMix64 per the reference
 * recommendation.
 */

#ifndef VSTREAM_SIM_RANDOM_HH
#define VSTREAM_SIM_RANDOM_HH

#include <array>
#include <cstdint>

namespace vstream
{

/** SplitMix64 step; used for seeding and cheap hashing of seeds. */
std::uint64_t splitMix64(std::uint64_t &state);

/**
 * xoshiro256** PRNG with convenience distributions.
 *
 * Not thread-safe; each simulated component owns its own instance.
 */
class Random
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Re-seed in place, restarting the sequence. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 bits of mantissa, standard conversion.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * Uniform integer in the inclusive range [lo, hi].
     *
     * Uses rejection sampling, so the distribution is exactly uniform.
     */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli trial: true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0) {
            return false;
        }
        if (p >= 1.0) {
            return true;
        }
        return uniform() < p;
    }

    /** Standard normal deviate (Marsaglia polar method). */
    double gaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Log-normal deviate parameterized by the underlying normal's
     * mu/sigma.  Used for heavy-tailed per-frame decode complexity.
     */
    double logNormal(double mu, double sigma);

    /**
     * Geometric-ish burst length in [1, cap].  Out of line on
     * purpose: inlining its loop into the content generator made
     * generation slower on gcc -O2.
     */
    std::uint64_t burstLength(double continue_prob, std::uint64_t cap);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> s_;
    bool have_spare_ = false;
    double spare_ = 0.0;
};

} // namespace vstream

#endif // VSTREAM_SIM_RANDOM_HH
