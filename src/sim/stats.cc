#include "sim/stats.hh"

#include <algorithm>
#include <iomanip>
#include <utility>

namespace vstream
{
namespace stats
{

SampleSeries::SampleSeries(std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
}

double
SampleSeries::total() const
{
    double t = 0.0;
    for (double v : samples_) {
        t += v;
    }
    return t;
}

double
SampleSeries::mean() const
{
    return samples_.empty() ? 0.0
                            : total() / static_cast<double>(samples_.size());
}

double
SampleSeries::percentile(double q) const
{
    if (samples_.empty()) {
        return 0.0;
    }
    auto sorted_copy = sorted();
    q = std::clamp(q, 0.0, 1.0);
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted_copy.size() - 1) + 0.5);
    return sorted_copy[std::min(idx, sorted_copy.size() - 1)];
}

double
SampleSeries::fractionAbove(double threshold) const
{
    if (samples_.empty()) {
        return 0.0;
    }
    std::uint64_t above = 0;
    for (double v : samples_) {
        if (v > threshold) {
            ++above;
        }
    }
    return static_cast<double>(above) /
           static_cast<double>(samples_.size());
}

std::vector<double>
SampleSeries::sorted() const
{
    std::vector<double> copy = samples_;
    std::sort(copy.begin(), copy.end());
    return copy;
}

void
printStat(std::ostream &os, const std::string &name, double value,
          const std::string &desc)
{
    os << std::left << std::setw(44) << name << std::right << std::setw(16)
       << value;
    if (!desc.empty()) {
        os << "  # " << desc;
    }
    os << "\n";
}

} // namespace stats
} // namespace vstream
