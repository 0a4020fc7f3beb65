/**
 * @file
 * Frame preparation: the content-only work done for a frame before the
 * decoder model sees it.
 *
 * Preparing a frame draws it from the SyntheticVideo as a view of its
 * plane, shared or in the video's ring, never a copy
 * (SyntheticVideo::viewNextFrame(); its CRC32 comes with it, taken
 * once when the plane was generated) and, for schemes
 * with a MACH, runs prepareMachFrame(): the gab bytes in gradient
 * mode, the primary digest of every block, with CO-MACH the CRC16
 * aux, and the MACH state half - each mab's lookup and insert
 * against the MachArray, recorded as one MachOutcome per mab plus the
 * frame's MACH dump (core/writeback_stage.hh).  None of it depends on
 * simulated time, so it can run ahead of the decode loop; the
 * decode thread's MachWriteback::writeMab() only times, stores and
 * counts.  (A MachArray that injects digest collisions is the
 * exception: its lookups wait for writeMab().)
 *
 * FramePrep is the pipeline's preparation stage.  A streamed video
 * (one that does not share its content, SyntheticVideo::sharesContent)
 * played by its own caller gets a helper thread that prepares frame
 * k+1 while the consumer simulates frame k, handing frames over
 * through a double buffer; the helper then owns the MachArray's state
 * half, and the consumer its accounting half.  A shared-content
 * video, and every session a serving scheduler steps
 * (VideoPipeline::Driver::kScheduler), prepares each frame inline
 * when it is taken.  Both call prepareFrame(), so the frames,
 * representations and outcomes are the same bytes either way.
 */

#ifndef VSTREAM_CORE_FRAME_PREP_HH
#define VSTREAM_CORE_FRAME_PREP_HH

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "core/writeback_stage.hh"
#include "video/frame.hh"
#include "video/synthetic_video.hh"

namespace vstream
{

/** One prepared frame: the frame and, with a MACH, its
 * representation and outcomes. */
struct PreparedFrame
{
    Frame frame;
    MachRepr mach;
};

/** Draw @p video's next frame into @p out as a view of its plane
 * (valid while two more frames are drawn) and, when @p mach is not
 * null, prepare and decide it under *@p mach (prepareMachFrame()). */
void prepareFrame(SyntheticVideo &video, const MachPlan *mach,
                  PreparedFrame &out);

/**
 * The pipeline's frame-preparation stage over one video.
 *
 * Frames are taken in order, 0 to frame_count - 1.  take(i) returns
 * frame i prepared; release(i) hands its buffer back once nothing reads
 * it any more.  A streamed video prepared ahead runs a helper thread,
 * started by the constructor, that stays at most one frame ahead of
 * the consumer: the two buffers hold the frame being simulated and the
 * next one.  While it waits for a buffer, the helper already draws the
 * frame after that into the video's ring (SyntheticVideo::
 * generateAhead()), whose third plane keeps it clear of the two
 * frames the buffers view.  stop() (also run by the destructor) joins
 * the helper; a stopped stage must not be taken from again.
 */
class FramePrep
{
  public:
    /**
     * @param profile the video to play
     * @param mach    how frames are decided (copied; its MachArray
     *                must outlive the stage), or nullptr for a scheme
     *                without a MACH
     * @param ahead   prepare a streamed video on a helper thread; when
     *                false (or the content is shared) prepare inline
     */
    FramePrep(const VideoProfile &profile, const MachPlan *mach,
              bool ahead);
    ~FramePrep();

    FramePrep(const FramePrep &) = delete;
    FramePrep &operator=(const FramePrep &) = delete;

    /** Frame @p index, prepared; blocks until the helper has it. */
    const PreparedFrame &take(std::uint64_t index);

    /** Done with frame @p index: its buffer may be reused. */
    void release(std::uint64_t index);

    /** Stop and join the helper (idempotent; inline mode: no-op). */
    void stop();

    /** True when a helper thread prepares the frames. */
    bool threaded() const { return threaded_; }

  private:
    /** The helper thread's body: prepare every frame in order.  The
     * buffers are sized before it starts, so it allocates nothing but
     * the MACH table's one-time truth reserve, and a broken invariant
     * panics: nothing can escape the thread. */
    void run();

    /** The plan prepareFrame() takes: mach_, or null without a MACH. */
    const MachPlan *
    plan() const
    {
        return mach_.machs != nullptr ? &mach_ : nullptr;
    }

    SyntheticVideo video_;
    MachPlan mach_;
    std::uint64_t frames_;
    /** Streamed video prepared ahead: a helper prepares the frames. */
    bool threaded_;
    /** Frame i lives in slots_[i % 2] (inline mode uses slots_[0]).
     * Ownership passes by the counters below: the helper writes slot
     * k % 2 only while k < released_ + 2, the consumer reads it only
     * while k < prepared_. */
    std::array<PreparedFrame, 2> slots_;
    /** Next index take() expects (consumer side only). */
    std::uint64_t next_take_ = 0;

    std::mutex mu_;
    std::condition_variable cv_;
    /** Frames the helper has finished: [0, prepared_). */
    std::uint64_t prepared_ = 0; // vstream:guarded_by(mu_)
    /** Frames the consumer has released: [0, released_). */
    std::uint64_t released_ = 0; // vstream:guarded_by(mu_)
    /** Set by stop(): the helper leaves at its next wait. */
    bool stopping_ = false; // vstream:guarded_by(mu_)
    std::thread helper_;
};

} // namespace vstream

#endif // VSTREAM_CORE_FRAME_PREP_HH
