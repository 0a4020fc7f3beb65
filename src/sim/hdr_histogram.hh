/**
 * @file
 * HDR-style mergeable value histogram.
 *
 * Fleet-scale serving cannot keep one SampleSeries per session: a
 * 100k-session soak would retain 100k sample vectors just to print a
 * latency percentile.  HdrHistogram is the O(1)-per-sample,
 * O(log range)-memory alternative: values are bucketed log-linearly
 * (exact below 2^unit_bits, then half-a-power-of-two sub-buckets per
 * octave, bounding relative error by 2^(1-unit_bits)), and two
 * histograms merge by adding bucket counts.
 *
 * Every field is an integer, so merge() is exactly associative and
 * commutative: a fleet-wide histogram assembled from N shard
 * histograms is byte-for-byte identical no matter how sessions were
 * partitioned or in which order the shards merged.  That property is
 * what lets the sharded soak emit JSON that is bit-identical at any
 * --shards / --jobs count (tests/test_hdr_histogram.cc pins the
 * algebra; docs/FORMATS.md documents the exported fields).
 */

#ifndef VSTREAM_SIM_HDR_HISTOGRAM_HH
#define VSTREAM_SIM_HDR_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace vstream
{

/** Log-linear bucketed histogram over unsigned 64-bit values. */
class HdrHistogram
{
  public:
    /**
     * @param unit_bits values below 2^unit_bits land in exact
     * unit-width buckets; above, each octave splits into
     * 2^(unit_bits-1) sub-buckets, so the relative quantization
     * error is bounded by 2^(1-unit_bits) (~1.6% at the default 7).
     */
    explicit HdrHistogram(unsigned unit_bits = 7);

    /** Record one value (O(1), no allocation past the high bucket). */
    void record(std::uint64_t v);

    /** Record @p v @p n times (bulk ingest; counts once per value). */
    void record(std::uint64_t v, std::uint64_t n);

    std::uint64_t count() const { return count_; }
    /** Exact smallest/largest recorded value (0 when empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    /** Exact sum of recorded values (panics on overflow). */
    std::uint64_t sum() const { return sum_; }
    /** sum()/count() as a double; 0 when empty. */
    double mean() const;

    /**
     * Value at quantile @p q in [0, 1] (nearest rank over buckets).
     *
     * Returns the lower bound of the bucket holding the rank - a
     * deterministic representative within the quantization error.
     * Returns 0 when empty.
     */
    std::uint64_t percentile(double q) const;

    /**
     * Merge @p other into this histogram (bucket-count addition).
     *
     * Exactly associative and commutative; merging an empty
     * histogram is the identity.  Panics when unit_bits differ.
     */
    void merge(const HdrHistogram &other);

    unsigned unitBits() const { return unit_bits_; }

    /** Bucket index for @p v (exposed for the boundary tests). */
    std::size_t bucketIndex(std::uint64_t v) const;

    /** Smallest value mapping to bucket @p index (inverse of
     * bucketIndex for bucket lower bounds). */
    std::uint64_t bucketLowerBound(std::size_t index) const;

    bool operator==(const HdrHistogram &other) const;

  private:
    unsigned unit_bits_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    /** Sparse tail never recorded into stays unallocated. */
    std::vector<std::uint64_t> buckets_;
};

} // namespace vstream

#endif // VSTREAM_SIM_HDR_HISTOGRAM_HH
