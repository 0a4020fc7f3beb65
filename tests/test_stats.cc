/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace vstream
{
namespace
{

TEST(SampleSeries, PercentilesOnSortedCopy)
{
    stats::SampleSeries s;
    for (int i = 10; i >= 1; --i) {
        s.sample(i);
    }
    EXPECT_EQ(s.count(), 10u);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 6.0); // nearest rank
    EXPECT_DOUBLE_EQ(s.mean(), 5.5);
    EXPECT_DOUBLE_EQ(s.total(), 55.0);
}

TEST(SampleSeries, EmptyPercentileIsZero)
{
    stats::SampleSeries s;
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.fractionAbove(1.0), 0.0);
}

TEST(SampleSeries, FractionAboveStrict)
{
    stats::SampleSeries s;
    for (double v : {1.0, 2.0, 3.0, 4.0}) {
        s.sample(v);
    }
    EXPECT_DOUBLE_EQ(s.fractionAbove(2.0), 0.5);  // 3 and 4
    EXPECT_DOUBLE_EQ(s.fractionAbove(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.fractionAbove(4.0), 0.0);
}

TEST(SampleSeries, SortedIsAscendingAndPreservesSource)
{
    stats::SampleSeries s;
    s.sample(3.0);
    s.sample(1.0);
    s.sample(2.0);
    const auto sorted = s.sorted();
    EXPECT_EQ(sorted, (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(s.samples()[0], 3.0); // original order untouched
}

TEST(PrintStat, FormatsNameValueDesc)
{
    std::ostringstream os;
    stats::printStat(os, "vd.frames", 120.0, "frames decoded");
    const std::string line = os.str();
    EXPECT_NE(line.find("vd.frames"), std::string::npos);
    EXPECT_NE(line.find("120"), std::string::npos);
    EXPECT_NE(line.find("# frames decoded"), std::string::npos);
}

} // namespace
} // namespace vstream
