#include "sim/hdr_histogram.hh"

#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace vstream
{

HdrHistogram::HdrHistogram(unsigned unit_bits)
    : unit_bits_(unit_bits)
{
    vs_assert(unit_bits_ >= 2 && unit_bits_ <= 20,
              "unit_bits out of range");
}

std::size_t
HdrHistogram::bucketIndex(std::uint64_t v) const
{
    const std::uint64_t sub = std::uint64_t{1} << unit_bits_;
    if (v < sub) {
        return static_cast<std::size_t>(v);
    }
    // The top unit_bits bits of v select a sub-bucket inside the
    // octave named by v's bit width; the low half of each octave's
    // sub-bucket range aliases the previous octave, hence the
    // (sub / 2)-wide stride per octave above the exact region.
    const unsigned width = static_cast<unsigned>(std::bit_width(v));
    const unsigned shift = width - unit_bits_;
    const std::uint64_t top = v >> shift;
    return static_cast<std::size_t>(
        sub + (shift - 1) * (sub / 2) + (top - sub / 2));
}

std::uint64_t
HdrHistogram::bucketLowerBound(std::size_t index) const
{
    const std::uint64_t sub = std::uint64_t{1} << unit_bits_;
    if (index < sub) {
        return static_cast<std::uint64_t>(index);
    }
    const std::uint64_t off = index - sub;
    const unsigned shift =
        static_cast<unsigned>(off / (sub / 2)) + 1;
    const std::uint64_t top = off % (sub / 2) + sub / 2;
    return top << shift;
}

void
HdrHistogram::record(std::uint64_t v)
{
    record(v, 1);
}

void
HdrHistogram::record(std::uint64_t v, std::uint64_t n)
{
    if (n == 0) {
        return;
    }
    const std::size_t idx = bucketIndex(v);
    if (idx >= buckets_.size()) {
        buckets_.resize(idx + 1, 0);
    }
    buckets_[idx] += n;
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += n;
    const std::uint64_t add = v * n;
    vs_assert(v == 0 || add / v == n, "histogram sum overflow");
    vs_assert(sum_ + add >= sum_, "histogram sum overflow");
    sum_ += add;
}

double
HdrHistogram::mean() const
{
    if (count_ == 0) {
        return 0.0;
    }
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t
HdrHistogram::percentile(double q) const
{
    if (count_ == 0) {
        return 0;
    }
    vs_assert(q >= 0.0 && q <= 1.0, "quantile out of [0, 1]");
    // Nearest-rank: the smallest bucket whose cumulative count
    // reaches ceil(q * count), clamped to at least rank 1.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (rank == 0) {
        rank = 1;
    }
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (cum >= rank) {
            // Exact endpoints beat the bucket bound when the rank
            // lands on them: a single-value histogram reports that
            // value at every quantile.
            const std::uint64_t lo = bucketLowerBound(i);
            if (lo < min_) {
                return min_;
            }
            return std::min(lo, max_);
        }
    }
    vs_panic("histogram bucket counts disagree with count()");
}

void
HdrHistogram::merge(const HdrHistogram &other)
{
    if (other.count_ == 0) {
        return;
    }
    vs_assert(unit_bits_ == other.unit_bits_,
              "merging histograms with different unit_bits");
    if (other.buckets_.size() > buckets_.size()) {
        buckets_.resize(other.buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
        buckets_[i] += other.buckets_[i];
    }
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    vs_assert(sum_ + other.sum_ >= sum_, "histogram sum overflow");
    sum_ += other.sum_;
}

bool
HdrHistogram::operator==(const HdrHistogram &other) const
{
    if (unit_bits_ != other.unit_bits_ || count_ != other.count_ ||
        sum_ != other.sum_ || min() != other.min() ||
        max() != other.max()) {
        return false;
    }
    // Trailing zero buckets are representation noise, not state.
    const std::size_t n =
        std::max(buckets_.size(), other.buckets_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t a =
            i < buckets_.size() ? buckets_[i] : 0;
        const std::uint64_t b =
            i < other.buckets_.size() ? other.buckets_[i] : 0;
        if (a != b) {
            return false;
        }
    }
    return true;
}

} // namespace vstream
