/**
 * @file
 * Lightweight statistics package.
 *
 * Components count in raw members and register them with
 * StatsRegistry::addCallback; the one stat object is SampleSeries,
 * which retains every sample so the figure benches can print exact
 * CDFs (Fig. 2b-e, Fig. 4c-d).
 */

#ifndef VSTREAM_SIM_STATS_HH
#define VSTREAM_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace vstream
{
namespace stats
{

/** A series that retains all samples, for percentiles and CDFs. */
class SampleSeries
{
  public:
    explicit SampleSeries(std::string name = "", std::string desc = "");

    void sample(double v) { samples_.push_back(v); }

    /** Pre-size for @p n samples (hot loops pre-reserve so sampling
     * never reallocates mid-run). */
    void reserve(std::size_t n) { samples_.reserve(n); }

    std::uint64_t count() const { return samples_.size(); }
    double total() const;
    double mean() const;

    /**
     * Value at quantile @p q in [0, 1] (nearest-rank on the sorted
     * copy).  Returns 0 when empty.
     */
    double percentile(double q) const;

    /** Fraction of samples strictly greater than @p threshold. */
    double fractionAbove(double threshold) const;

    /** Sorted copy of the samples (ascending) for CDF printing. */
    std::vector<double> sorted() const;

    const std::vector<double> &samples() const { return samples_; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::vector<double> samples_;
};

/** Print "name value  # desc" in fixed columns. */
void printStat(std::ostream &os, const std::string &name, double value,
               const std::string &desc = "");

} // namespace stats
} // namespace vstream

#endif // VSTREAM_SIM_STATS_HH
