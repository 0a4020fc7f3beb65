/**
 * @file
 * Discrete-event simulation core.
 *
 * A minimal gem5-style event queue: events are scheduled at absolute
 * ticks and processed in (tick, priority, insertion-order) order.
 *
 * No model schedules events: the pipeline advances its own clock
 * frame by frame, and the fleet settles sessions on the Placer's
 * timeline.  The queue stays only because benchmark/layer_replay.hh
 * constructs one and passes it to the SimObject constructors; it goes
 * when that replay stops doing so.
 */

#ifndef VSTREAM_SIM_EVENT_QUEUE_HH
#define VSTREAM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace vstream
{

class EventQueue;
class TraceEventSink;

/**
 * A schedulable unit of work.
 *
 * Subclass and override process(), or use LambdaEvent for one-offs.
 * An Event object may be re-scheduled after it has fired, but never
 * while it is still pending.
 */
class Event
{
  public:
    /** Priorities break ties between events at the same tick. */
    enum Priority : int
    {
        kMaximumPriority = 0,
        kVsyncPriority = 10,
        kDecoderPriority = 20,
        kBufferPriority = 30,
        kDefaultPriority = 50,
        kStatsPriority = 90,
        kMinimumPriority = 100,
    };

    explicit Event(std::string name, int priority = kDefaultPriority);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the queue when the event fires. */
    virtual void process() = 0;

    const std::string &name() const { return name_; }
    int priority() const { return priority_; }

    /** True while the event sits in a queue awaiting its tick. */
    bool scheduled() const { return scheduled_; }

    /** Tick at which the event will fire (valid only if scheduled). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    std::string name_;
    int priority_;
    bool scheduled_ = false;
    Tick when_ = 0;
    std::uint64_t sequence_ = 0;
};

/** Event that runs a captured callable. */
class LambdaEvent : public Event
{
  public:
    LambdaEvent(std::string name, std::function<void()> fn,
                int priority = kDefaultPriority);

    void process() override;

  private:
    std::function<void()> fn_;
};

/**
 * The global timeline.
 *
 * Events are processed strictly in non-decreasing tick order; it is a
 * panic to schedule an event in the past.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Schedule @p ev to fire at absolute tick @p when. */
    void schedule(Event *ev, Tick when);

    /** Remove a pending event; panics if not scheduled. */
    void deschedule(Event *ev);

    /** Reschedule a pending (or idle) event to a new tick. */
    void reschedule(Event *ev, Tick when);

    /** Current simulated time. */
    Tick curTick() const { return cur_tick_; }

    /** True when nothing is pending. */
    bool empty() const { return live_count_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return live_count_; }

    /**
     * Run until the queue drains or @p limit is reached, whichever is
     * first.
     *
     * @return the tick of the last processed event.
     */
    Tick run(Tick limit = maxTick);

    /**
     * Process exactly one event, if any.
     *
     * @return true if an event was processed.
     */
    bool step();

    /** Total number of events processed since construction. */
    std::uint64_t processedCount() const { return processed_; }

    /**
     * Mirror every processed event into @p sink as an instant marker
     * on an "events" track (null disables).  The sink must outlive
     * the queue or be detached before it is destroyed.
     */
    void setTraceSink(TraceEventSink *sink);

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t sequence;
        Event *event;
    };

    struct EntryCompare
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when) {
                return a.when > b.when;
            }
            if (a.priority != b.priority) {
                return a.priority > b.priority;
            }
            return a.sequence > b.sequence;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, EntryCompare> heap_;
    TraceEventSink *trace_ = nullptr;
    std::uint32_t trace_track_ = 0;
    Tick cur_tick_ = 0;
    std::uint64_t next_sequence_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t live_count_ = 0;
};

} // namespace vstream

#endif // VSTREAM_SIM_EVENT_QUEUE_HH
