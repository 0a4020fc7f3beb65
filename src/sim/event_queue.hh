/**
 * @file
 * Placeholder for the discrete-event queue this simulator does not
 * have.
 *
 * No model schedules events: the pipeline advances its own clock
 * frame by frame, and the fleet settles sessions on the Placer's
 * timeline.  benchmark/layer_replay.hh still constructs an EventQueue
 * and passes its address to the MemorySystem, VideoDecoder and
 * DisplayController constructors, which ignore it.  The type and
 * those unnamed parameters go with the benchmark-side change that
 * stops doing so.
 */

#ifndef VSTREAM_SIM_EVENT_QUEUE_HH
#define VSTREAM_SIM_EVENT_QUEUE_HH

namespace vstream
{

class EventQueue
{
};

} // namespace vstream

#endif // VSTREAM_SIM_EVENT_QUEUE_HH
