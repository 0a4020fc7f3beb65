/**
 * @file
 * Focused tests for the error-reporting layer (sim/logging.hh) and
 * the EventQueue lifetime/ordering invariants it guards.
 *
 * The custom analyzer (tools/vstream_analyze, rule logging-discipline)
 * funnels every internal error through vs_assert/vs_panic/vs_fatal,
 * so the exact shape of their output is part of the repo's debugging
 * contract: death tests here pin the message prefix, the formatted
 * payload, and the file:line suffix.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/event_queue.hh"
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

// ------------------------------------------- EventQueue invariants

TEST(EventQueueInvariants, ScheduleInPastNamesEventAndTicks)
{
    EventQueue q;
    LambdaEvent fired("advance", [] {});
    q.schedule(&fired, 100);
    q.run();
    EXPECT_EQ(q.curTick(), 100u);

    LambdaEvent late("late.event", [] {});
    // The message must identify the event and both ticks, or the
    // report is useless for debugging a mis-scheduled component.
    EXPECT_DEATH(q.schedule(&late, 50),
                 "event 'late.event' scheduled in the past: 50 < 100");
}

TEST(EventQueueInvariants, DestroyWhileScheduledNamesEvent)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            LambdaEvent ev("leaky.vsync", [] {});
            q.schedule(&ev, 10);
            // ev destructs here while still pending: the queue would
            // be left holding a dangling pointer.
        },
        "event 'leaky.vsync' destroyed while scheduled");
}

TEST(EventQueueInvariants, DescheduleThenDestroyIsClean)
{
    EventQueue q;
    {
        LambdaEvent ev("transient", [] {});
        q.schedule(&ev, 10);
        q.deschedule(&ev);
        // Destruction after deschedule must NOT fire the invariant.
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueInvariants, RescheduleOfPendingEventIsAllowed)
{
    EventQueue q;
    Tick seen = 0;
    LambdaEvent ev("moved", [&] { seen = q.curTick(); });
    q.schedule(&ev, 10);
    q.reschedule(&ev, 30);
    q.run();
    EXPECT_EQ(seen, 30u);
    EXPECT_EQ(q.processedCount(), 1u);
}

} // namespace
} // namespace vstream
