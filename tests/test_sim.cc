/**
 * @file
 * Unit tests for the simulation kernel: ticks and logging.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace vstream
{
namespace
{

TEST(Ticks, UnitRelations)
{
    EXPECT_EQ(sim_clock::ns, 1000u * sim_clock::ps);
    EXPECT_EQ(sim_clock::us, 1000u * sim_clock::ns);
    EXPECT_EQ(sim_clock::ms, 1000u * sim_clock::us);
    EXPECT_EQ(sim_clock::s, 1000u * sim_clock::ms);
}

TEST(Ticks, Conversions)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(sim_clock::s), 1.0);
    EXPECT_DOUBLE_EQ(ticksToMs(sim_clock::ms * 5), 5.0);
    EXPECT_EQ(secondsToTicks(0.001), sim_clock::ms);
}

TEST(Ticks, CyclesToTicks)
{
    EXPECT_EQ(cyclesToTicks(150, 150e6), sim_clock::us);
    EXPECT_EQ(cyclesToTicks(0, 300e6), 0u);
}

TEST(Logging, WarnIncrementsCounter)
{
    detail::setQuiet(true);
    const auto before = detail::warnCount();
    vs_warn("test warning ", 42);
    EXPECT_EQ(detail::warnCount(), before + 1);
    detail::setQuiet(false);
}

TEST(Logging, FormatConcatenates)
{
    EXPECT_EQ(logFormat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(logFormat(), "");
}

TEST(LoggingDeath, AssertFailurePanics)
{
    EXPECT_DEATH(vs_assert(1 == 2, "impossible"), "assertion");
}

} // namespace
} // namespace vstream
