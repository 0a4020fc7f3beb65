/**
 * @file
 * Chrome-trace / Perfetto timeline sink.
 *
 * Records simulation activity - decode bursts, power-state dwells,
 * display scan-outs, DRAM counters - as Trace Event Format JSON that
 * loads directly in ui.perfetto.dev or chrome://tracing (see
 * docs/TRACING.md).
 *
 * Tracks map to trace "threads" of one process: each track gets a
 * stable tid in registration order plus a thread_name metadata
 * record.  Simulated ticks (picoseconds) are converted to the trace
 * format's microsecond timestamps at write time; events are sorted
 * by (track, ts) so every track's timeline is monotonic regardless
 * of emission order.
 */

#ifndef VSTREAM_SIM_TRACE_EVENT_HH
#define VSTREAM_SIM_TRACE_EVENT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace vstream
{

/** Collects trace events; one instance per simulation run. */
class TraceEventSink
{
  public:
    using TrackId = std::uint32_t;

    /** (key, value) pairs attached to an event's "args" object. */
    using Args = std::vector<std::pair<std::string, double>>;

    TraceEventSink() = default;

    TraceEventSink(const TraceEventSink &) = delete;
    TraceEventSink &operator=(const TraceEventSink &) = delete;

    /** Id for @p name, creating the track on first use. */
    TrackId track(const std::string &name);

    /** A slice [start, start+duration) on @p t (phase "X"). */
    void complete(TrackId t, const std::string &name, Tick start,
                  Tick duration, Args args = {});

    /** A zero-duration marker (phase "i", thread scope). */
    void instant(TrackId t, const std::string &name, Tick ts,
                 Args args = {});

    /** A sampled counter value (phase "C"). */
    void counter(TrackId t, const std::string &name, Tick ts,
                 double value);

    std::size_t eventCount() const { return events_.size(); }
    std::size_t trackCount() const { return tracks_.size(); }

    /**
     * Emit {"traceEvents": [...], ...}.  Metadata (process/thread
     * names) first, then all events sorted by (track, timestamp).
     */
    void writeJson(std::ostream &os) const;

  private:
    struct TraceEvent
    {
        char ph;
        TrackId tid;
        std::string name;
        Tick ts;
        Tick dur;
        double value; // counter payload
        Args args;
    };

    std::vector<std::string> tracks_;
    std::vector<TraceEvent> events_;
};

} // namespace vstream

#endif // VSTREAM_SIM_TRACE_EVENT_HH
