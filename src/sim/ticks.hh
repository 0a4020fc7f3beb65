/**
 * @file
 * Simulation time base.
 *
 * Following the gem5 convention, simulated time is kept as an integer
 * count of picoseconds ("ticks").  All IP models (decoder, display,
 * DRAM) convert their native clocks to ticks so that a single global
 * timeline orders every event in the SoC.
 */

#ifndef VSTREAM_SIM_TICKS_HH
#define VSTREAM_SIM_TICKS_HH

#include <cstdint>

namespace vstream
{

/** Simulated time, in picoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "no scheduled time". */
constexpr Tick maxTick = ~Tick(0);

namespace sim_clock
{

/** One picosecond, the base resolution. */
constexpr Tick ps = 1;
/** One nanosecond. */
constexpr Tick ns = 1000 * ps;
/** One microsecond. */
constexpr Tick us = 1000 * ns;
/** One millisecond. */
constexpr Tick ms = 1000 * us;
/** One second. */
constexpr Tick s = 1000 * ms;

} // namespace sim_clock

/** Convert a tick count to seconds (double precision, for reporting). */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim_clock::s);
}

/** Convert a tick count to milliseconds. */
constexpr double
ticksToMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim_clock::ms);
}

/** Convert seconds to ticks (rounds toward zero). */
constexpr Tick
secondsToTicks(double sec)
{
    return static_cast<Tick>(sec * static_cast<double>(sim_clock::s));
}

/** Number of ticks taken by @p cycles cycles of a clock at @p hz. */
constexpr Tick
cyclesToTicks(std::uint64_t cycles, double hz)
{
    return static_cast<Tick>(static_cast<double>(cycles) *
                             (static_cast<double>(sim_clock::s) / hz));
}

} // namespace vstream

#endif // VSTREAM_SIM_TICKS_HH
