/**
 * @file
 * Focused tests for the error-reporting layer (sim/logging.hh).
 *
 * The custom analyzer (tools/vstream_analyze, rule logging-discipline)
 * funnels every internal error through vs_assert/vs_panic/vs_fatal,
 * so the exact shape of their output is part of the repo's debugging
 * contract: death tests here pin the message prefix, the formatted
 * payload, and the file:line suffix.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/logging.hh"

namespace vstream
{
namespace
{

// ---------------------------------------------------------- logFormat

TEST(LogFormat, ConcatenatesMixedTypes)
{
    EXPECT_EQ(logFormat("x=", 42, " y=", 2.5, " z=", std::string("s")),
              "x=42 y=2.5 z=s");
}

TEST(LogFormat, EmptyPackYieldsEmptyString)
{
    EXPECT_EQ(logFormat(), "");
}

// ------------------------------------------------------- panic/fatal

TEST(LoggingDeathFormat, PanicCarriesPrefixMessageAndLocation)
{
    // "panic: <msg> (<file>:<line>)" on stderr, then abort().
    EXPECT_DEATH(vs_panic("bank ", 3, " out of range"),
                 "panic: bank 3 out of range \\(.*test_logging\\.cc:"
                 "[0-9]+\\)");
}

TEST(LoggingDeathFormat, FatalExitsWithCodeOneNotAbort)
{
    // fatal() is a user-configuration error: clean exit(1), no core.
    EXPECT_EXIT(vs_fatal("refresh rate ", 0, " Hz is impossible"),
                ::testing::ExitedWithCode(1),
                "fatal: refresh rate 0 Hz is impossible "
                "\\(.*test_logging\\.cc:[0-9]+\\)");
}

TEST(LoggingDeathFormat, AssertQuotesConditionAndFormatsArgs)
{
    const int want = 4;
    const int got = 7;
    EXPECT_DEATH(
        vs_assert(want == got, "expected ", want, " but saw ", got),
        "assertion 'want == got' failed: expected 4 but saw 7");
}

TEST(LoggingDeathFormat, AssertWithoutMessageStillNamesCondition)
{
    EXPECT_DEATH(vs_assert(1 + 1 == 3), "assertion '1 \\+ 1 == 3'");
}

// ------------------------------------------------------- warn/inform

TEST(Logging, WarnCountsEvenWhenQuiet)
{
    detail::setQuiet(true);
    const auto before = detail::warnCount();
    vs_warn("suspicious but survivable: ", -1);
    vs_warn("again");
    EXPECT_EQ(detail::warnCount(), before + 2);
    detail::setQuiet(false);
}

TEST(Logging, QuietModeSuppressesWarnOutput)
{
    detail::setQuiet(true);
    ::testing::internal::CaptureStderr();
    vs_warn("should not appear");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    detail::setQuiet(false);

    ::testing::internal::CaptureStderr();
    vs_warn("should appear");
    const std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn: should appear"), std::string::npos);
}

} // namespace
} // namespace vstream
