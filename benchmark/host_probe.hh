/**
 * @file
 * Host-speed probe and the clock that scales timed work by it.
 *
 * The benchmark shares its host with other tenants, which take a
 * varying share of each vCPU's caches and memory bandwidth: the same
 * pass can take 6 s or 11 s minutes apart, and the slow stretches
 * last longer than a run.  The probe is a fixed random
 * read-modify-write walk over a table larger than a core's L2, so
 * every walk depends on the same contended resources whatever ran
 * before it.  Run on a thread just before an interval of work, its
 * time rises and falls with that interval's (README.md, "Noise").
 * The probe is the benchmark's own code: no change to the library
 * moves it.
 */

#ifndef VSTREAM_BENCHMARK_HOST_PROBE_HH
#define VSTREAM_BENCHMARK_HOST_PROBE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "span_trace.hh"

namespace vbench
{

/** Bytes in the probe's table: twice a core's L2 on the reference host. */
constexpr std::size_t kProbeBytes = std::size_t{4} << 20;
constexpr unsigned kProbeSteps = 50000;
/** A reference walk time: scaled times are what a host whose walk takes
 * this long would measure.  It is the walk's typical time on the
 * 4-vCPU host the benchmark was defined on (README.md, "Noise"). */
constexpr double kProbeRefNs = 600000.0;

/** Keeps the walk's loads from being optimised away. */
inline volatile std::uint64_t g_probe_sink = 0;

/** One walk on the calling thread.  @return kProbeRefNs over its
 * time: the factor that scales work timed now to the reference. */
inline double
probeSpeed()
{
    constexpr std::size_t kWords = kProbeBytes / sizeof(std::uint64_t);
    thread_local std::vector<std::uint64_t> table(kWords, 1);
    thread_local std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    const std::int64_t t0 = nowNs();
    for (unsigned i = 0; i < kProbeSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &slot = table[x % kWords];
        slot += x;
        acc += slot;
    }
    const std::int64_t t1 = nowNs();
    g_probe_sink = g_probe_sink + acc;
    return kProbeRefNs / static_cast<double>(t1 - t0);
}

/** Median of @p v (taken by value; empty gives 0). */
inline double
medianOf(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * One thread's timed work, scaled interval by interval.  Each mark()
 * closes the open interval, walks the probe, and opens the next
 * interval, which the walk's factor scales.  The walks' own time is
 * left out.  Single-threaded: marks must come from one thread.
 */
class ScaledClock
{
  public:
    void
    mark()
    {
        close();
        speeds_.push_back(probeSpeed());
        from_ = nowNs();
    }

    /** Close the open interval; @return the scaled time so far, in s. */
    double
    stop()
    {
        close();
        return scaled_ns_ / 1e9;
    }

    /** Median factor of the walks so far (above 1: faster than the
     * reference). */
    double speed() const { return medianOf(speeds_); }

  private:
    void
    close()
    {
        if (!speeds_.empty() && from_ >= 0) {
            scaled_ns_ += static_cast<double>(nowNs() - from_) *
                          speeds_.back();
        }
        from_ = -1;
    }

    std::vector<double> speeds_;
    std::int64_t from_ = -1;
    double scaled_ns_ = 0.0;
};

} // namespace vbench

#endif // VSTREAM_BENCHMARK_HOST_PROBE_HH
