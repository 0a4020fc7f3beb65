/**
 * @file
 * Base class for named, stat-bearing simulation models.
 */

#ifndef VSTREAM_SIM_SIM_OBJECT_HH
#define VSTREAM_SIM_SIM_OBJECT_HH

#include <string>

namespace vstream
{

class EventQueue;
class StatsRegistry;

/**
 * A named component of the simulated SoC.
 *
 * SimObjects report statistics by registering them into a
 * StatsRegistry (regStats()); the registry then drives every output
 * format (text/JSON/CSV, see sim/stats_registry.hh).  Construction
 * order establishes the component tree; the name is a dotted path
 * such as "soc.vd.cache" and every registered stat lives under it.
 *
 * The EventQueue pointer is inert: no model schedules events.  The
 * constructors keep taking it only because benchmark/layer_replay.hh
 * builds its components with one (see sim/event_queue.hh).
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue *queue);
    virtual ~SimObject();

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }

    /** The queue this object was constructed with (never scheduled
     * on; see the class comment). */
    EventQueue *eventQueue() const { return queue_; }

    /**
     * Register this object's stats under its name().
     *
     * The object must outlive @p r (stats are registered by
     * pointer).  The default registers nothing.
     */
    virtual void regStats(StatsRegistry &r) { (void)r; }

  private:
    std::string name_;
    EventQueue *queue_;
};

} // namespace vstream

#endif // VSTREAM_SIM_SIM_OBJECT_HH
