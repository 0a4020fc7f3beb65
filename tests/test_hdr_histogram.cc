/**
 * @file
 * Merge-algebra tests for the fleet stats primitives.
 *
 * The sharded soak's byte-identity contract (same JSON at any
 * --shards / --jobs count) reduces to three algebraic facts pinned
 * here: HdrHistogram merge is exactly associative and commutative
 * with an empty identity, ScalarAgg sums are order-independent
 * (Q44.20 fixed point), and StatsSnapshot composes both plus uint64
 * counters.  Also covers the log-linear bucket boundaries and the
 * "merged percentiles == single-histogram percentiles" property the
 * fleet report relies on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "sim/hdr_histogram.hh"
#include "sim/json_writer.hh"
#include "sim/random.hh"
#include "sim/stats_snapshot.hh"

namespace vstream
{
namespace
{

// ---------------------------------------------------------------------
// Bucket geometry
// ---------------------------------------------------------------------

TEST(HdrHistogram, ValuesBelowUnitRangeAreExact)
{
    HdrHistogram h(7);
    for (std::uint64_t v = 0; v < 128; ++v) {
        EXPECT_EQ(h.bucketIndex(v), v);
        EXPECT_EQ(h.bucketLowerBound(v), v);
    }
}

TEST(HdrHistogram, OctaveBoundaries)
{
    HdrHistogram h(7);
    // First value past the exact range starts the first coarse
    // octave: 64 sub-buckets of width 2 covering [128, 256).
    EXPECT_EQ(h.bucketIndex(127), 127u);
    EXPECT_EQ(h.bucketIndex(128), 128u);
    EXPECT_EQ(h.bucketIndex(129), 128u);
    EXPECT_EQ(h.bucketIndex(255), 191u);
    EXPECT_EQ(h.bucketIndex(256), 192u);
    EXPECT_EQ(h.bucketLowerBound(128), 128u);
    EXPECT_EQ(h.bucketLowerBound(191), 254u);
    EXPECT_EQ(h.bucketLowerBound(192), 256u);
}

TEST(HdrHistogram, BucketRoundTripAndErrorBound)
{
    HdrHistogram h(7);
    std::vector<std::uint64_t> probes;
    for (unsigned b = 0; b < 63; ++b) {
        const std::uint64_t p = std::uint64_t{1} << b;
        probes.push_back(p - 1);
        probes.push_back(p);
        probes.push_back(p + 1);
    }
    Random rng(99);
    for (int i = 0; i < 1000; ++i) {
        probes.push_back(rng.uniformInt(0, std::uint64_t{1} << 50));
    }
    for (const std::uint64_t v : probes) {
        const std::size_t idx = h.bucketIndex(v);
        const std::uint64_t lb = h.bucketLowerBound(idx);
        // The lower bound maps back to its own bucket...
        EXPECT_EQ(h.bucketIndex(lb), idx) << "v=" << v;
        // ...never exceeds the value...
        EXPECT_LE(lb, v) << "v=" << v;
        // ...and the quantization error stays within 2^(1-unit_bits)
        // of the value (~1.6% at unit_bits = 7).
        EXPECT_LE(static_cast<double>(v - lb),
                  static_cast<double>(v) / 64.0)
            << "v=" << v;
    }
}

TEST(HdrHistogram, BucketIndexIsMonotone)
{
    HdrHistogram h(4); // coarse: easy to cross many octaves
    std::size_t prev = 0;
    for (std::uint64_t v = 0; v < 5000; ++v) {
        const std::size_t idx = h.bucketIndex(v);
        EXPECT_GE(idx, prev) << "v=" << v;
        prev = idx;
    }
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

TEST(HdrHistogram, RecordTracksExactMinMaxSum)
{
    HdrHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);

    h.record(1000);
    h.record(3);
    h.record(77777, 2);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), 77777u);
    EXPECT_EQ(h.sum(), 1000u + 3u + 2u * 77777u);
    EXPECT_DOUBLE_EQ(h.mean(), (1000.0 + 3.0 + 2 * 77777.0) / 4.0);
}

TEST(HdrHistogram, PercentileIsExactInUnitRange)
{
    HdrHistogram h(7);
    for (std::uint64_t v = 1; v <= 100; ++v) {
        h.record(v);
    }
    // All values < 128: buckets are exact, so nearest-rank is exact.
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(0.5), 50u);
    EXPECT_EQ(h.percentile(0.9), 90u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(HdrHistogram, PercentileClampsToExactEndpoints)
{
    // A single-value histogram reports that exact value at every
    // quantile, even though the value lands mid-bucket.
    HdrHistogram solo(7);
    solo.record(1000003);
    for (const double q : {0.0, 0.5, 1.0}) {
        EXPECT_EQ(solo.percentile(q), 1000003u) << "q=" << q;
    }

    HdrHistogram h(7);
    h.record(999999);
    h.record(2000003); // a different bucket than 999999
    // The low endpoint is exact; the high one is the bucket's lower
    // bound, never past max.
    EXPECT_EQ(h.percentile(0.0), 999999u);
    EXPECT_GE(h.percentile(1.0),
              h.bucketLowerBound(h.bucketIndex(2000003)));
    EXPECT_LE(h.percentile(1.0), h.max());
}

// ---------------------------------------------------------------------
// Merge algebra
// ---------------------------------------------------------------------

HdrHistogram
randomHist(std::uint64_t seed, int n)
{
    HdrHistogram h(7);
    Random rng(seed);
    for (int i = 0; i < n; ++i) {
        h.record(rng.uniformInt(0, std::uint64_t{1} << 40));
    }
    return h;
}

TEST(HdrHistogram, MergeIsCommutative)
{
    const HdrHistogram a = randomHist(1, 500);
    const HdrHistogram b = randomHist(2, 300);
    HdrHistogram ab = a;
    ab.merge(b);
    HdrHistogram ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);
}

TEST(HdrHistogram, MergeIsAssociative)
{
    const HdrHistogram a = randomHist(3, 400);
    const HdrHistogram b = randomHist(4, 250);
    const HdrHistogram c = randomHist(5, 350);

    HdrHistogram left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);

    HdrHistogram bc = b; // a + (b + c)
    bc.merge(c);
    HdrHistogram right = a;
    right.merge(bc);

    EXPECT_EQ(left, right);
}

TEST(HdrHistogram, EmptyMergeIsIdentity)
{
    const HdrHistogram a = randomHist(6, 200);
    const HdrHistogram empty(7);

    HdrHistogram lhs = a;
    lhs.merge(empty);
    EXPECT_EQ(lhs, a);

    HdrHistogram rhs(7);
    rhs.merge(a);
    EXPECT_EQ(rhs, a);
    EXPECT_EQ(rhs.min(), a.min());
    EXPECT_EQ(rhs.max(), a.max());
    EXPECT_EQ(rhs.sum(), a.sum());
}

TEST(HdrHistogram, MergedPercentilesMatchSingleHistogram)
{
    // The fleet property: recording a stream sharded 4 ways and
    // merging must be indistinguishable from one histogram that saw
    // everything.
    HdrHistogram single(7);
    HdrHistogram shards[4] = {HdrHistogram(7), HdrHistogram(7),
                              HdrHistogram(7), HdrHistogram(7)};
    Random rng(7);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t v =
            rng.uniformInt(1, std::uint64_t{1} << 36);
        single.record(v);
        shards[i % 4].record(v);
    }
    HdrHistogram merged(7);
    for (const HdrHistogram &s : shards) {
        merged.merge(s);
    }
    EXPECT_EQ(merged, single);
    for (const double q :
         {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(merged.percentile(q), single.percentile(q))
            << "q=" << q;
    }
    EXPECT_EQ(merged.count(), single.count());
    EXPECT_EQ(merged.sum(), single.sum());
    EXPECT_EQ(merged.min(), single.min());
    EXPECT_EQ(merged.max(), single.max());
}

// ---------------------------------------------------------------------
// ScalarAgg fixed-point algebra
// ---------------------------------------------------------------------

TEST(ScalarAgg, SumIsOrderIndependent)
{
    // Doubles whose float sum depends on order; the Q44.20
    // fixed-point sum must not.
    const std::vector<double> vals = {1e9,  0.3333333, -7.25,
                                      1e-4, 123456.78, -1e9,
                                      42.0, 0.0000019};
    ScalarAgg fwd;
    for (const double v : vals) {
        fwd.add(v);
    }
    ScalarAgg rev;
    for (auto it = vals.rbegin(); it != vals.rend(); ++it) {
        rev.add(*it);
    }
    EXPECT_EQ(fwd, rev);
    EXPECT_EQ(fwd.sum_fp, rev.sum_fp);
}

TEST(ScalarAgg, PartitionedMergeEqualsDirect)
{
    Random rng(11);
    ScalarAgg direct;
    ScalarAgg parts[3];
    for (int i = 0; i < 300; ++i) {
        const double v = rng.uniform(-1e6, 1e6);
        direct.add(v);
        parts[i % 3].add(v);
    }
    // Merge the partitions in a scrambled order.
    ScalarAgg merged = parts[2];
    merged.merge(parts[0]);
    merged.merge(parts[1]);
    EXPECT_EQ(merged, direct);
    EXPECT_DOUBLE_EQ(merged.mean(), direct.mean());
}

TEST(ScalarAgg, EmptyMergeIsIdentity)
{
    ScalarAgg a;
    a.add(3.5);
    a.add(-2.0);
    const ScalarAgg before = a;
    a.merge(ScalarAgg{});
    EXPECT_EQ(a, before);

    ScalarAgg b;
    b.merge(before);
    EXPECT_EQ(b, before);
}

// ---------------------------------------------------------------------
// StatsSnapshot composition
// ---------------------------------------------------------------------

StatsSnapshot
sampleSnapshot(std::uint64_t seed, int n)
{
    StatsSnapshot s;
    Random rng(seed);
    for (int i = 0; i < n; ++i) {
        s.addCount("sessions");
        if (rng.chance(0.25)) {
            s.addCount("state.evicted");
        }
        s.addScalar("energyJ", rng.uniform(0.0, 2.0));
        s.hist("spanUs").record(rng.uniformInt(1000, 900000));
    }
    return s;
}

TEST(StatsSnapshot, ShardedMergeEqualsDirect)
{
    // One stream of observations, recorded directly and recorded
    // sharded-then-merged, must compare equal (operator== covers
    // counters, fixed-point scalars and histogram buckets).
    StatsSnapshot direct;
    StatsSnapshot shards[3];
    Random rng(21);
    for (int i = 0; i < 600; ++i) {
        const double e = rng.uniform(0.0, 2.0);
        const std::uint64_t span = rng.uniformInt(1000, 900000);
        direct.addCount("sessions");
        direct.addScalar("energyJ", e);
        direct.hist("spanUs").record(span);
        StatsSnapshot &sh = shards[i % 3];
        sh.addCount("sessions");
        sh.addScalar("energyJ", e);
        sh.hist("spanUs").record(span);
    }
    StatsSnapshot merged;
    merged.merge(shards[1]);
    merged.merge(shards[2]);
    merged.merge(shards[0]);
    EXPECT_EQ(merged, direct);
    EXPECT_EQ(merged.count("sessions"), 600u);
}

TEST(StatsSnapshot, MergeIsAssociativeAndCommutative)
{
    const StatsSnapshot a = sampleSnapshot(1, 100);
    const StatsSnapshot b = sampleSnapshot(2, 150);
    const StatsSnapshot c = sampleSnapshot(3, 50);

    StatsSnapshot left = a;
    left.merge(b);
    left.merge(c);

    StatsSnapshot bc = b;
    bc.merge(c);
    StatsSnapshot right = a;
    right.merge(bc);
    EXPECT_EQ(left, right);

    StatsSnapshot ab = a;
    ab.merge(b);
    StatsSnapshot ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);
}

TEST(StatsSnapshot, EmptyMergeIsIdentity)
{
    const StatsSnapshot a = sampleSnapshot(4, 80);
    StatsSnapshot lhs = a;
    lhs.merge(StatsSnapshot{});
    EXPECT_EQ(lhs, a);

    StatsSnapshot rhs;
    EXPECT_TRUE(rhs.empty());
    rhs.merge(a);
    EXPECT_EQ(rhs, a);
    EXPECT_FALSE(rhs.empty());
}

TEST(StatsSnapshot, MissingNamesReadAsAbsent)
{
    StatsSnapshot s;
    EXPECT_EQ(s.count("nope"), 0u);
    EXPECT_EQ(s.scalar("nope"), nullptr);
    EXPECT_EQ(s.histogram("nope"), nullptr);
    s.addCount("yes", 3);
    EXPECT_EQ(s.count("yes"), 3u);
}

std::string
dumped(const StatsSnapshot &s)
{
    std::ostringstream os;
    {
        JsonWriter w(os, /*pretty=*/true);
        w.beginObject();
        w.key("snap");
        s.dumpJson(w);
        w.endObject();
    }
    return os.str();
}

TEST(StatsSnapshot, DumpOrderIgnoresInsertionOrder)
{
    // Same content inserted in opposite orders must serialize to the
    // same bytes - the last link of the byte-identity chain.
    StatsSnapshot a;
    a.addCount("zeta", 2);
    a.addCount("alpha", 1);
    a.addScalar("m2", 1.5);
    a.addScalar("m1", 2.5);
    a.hist("h2").record(10);
    a.hist("h1").record(20);

    StatsSnapshot b;
    b.hist("h1").record(20);
    b.hist("h2").record(10);
    b.addScalar("m1", 2.5);
    b.addScalar("m2", 1.5);
    b.addCount("alpha", 1);
    b.addCount("zeta", 2);

    EXPECT_EQ(a, b);
    EXPECT_EQ(dumped(a), dumped(b));
}

} // namespace
} // namespace vstream
