/**
 * @file
 * Synthetic video source.
 *
 * Generates decoded frames whose macroblock-level content statistics
 * are controlled by a VideoProfile: exact intra-frame repeats, exact
 * inter-frame repeats (within a bounded window), constant-offset
 * "gradient" repeats that only the gab representation can catch,
 * pure-colour and smooth-ramp blocks, and unique noise blocks.
 * Deterministic for a given profile (seed included).
 *
 * Content is generated into flat frame planes (the mabs of a frame
 * back to back, mab_dim * mab_dim * 3 bytes each), so the inter-copy
 * window is simply the earlier planes.  A video whose planes fit
 * kSharedBudgetBytes is generated in full and kept, read-only, in a
 * process-wide content store (the simulator's own content cache), so
 * SyntheticVideos built for the same profile share one generation.
 * The store holds several videos within kSharedBudgetBytes: a video
 * that missed once is held until the next miss (a figure that plays
 * one video under six schemes in a row generates it once), and one
 * whose profile misses again is kept, least recently used first out
 * (the titles of a fleet's library are generated once per process).
 * A larger video streams through a private ring of
 * min(frame_count, max(inter_window + 1, 3)) planes instead.  Both run
 * the same generator, so the frames they emit are byte-identical.
 * Each plane's CRC32 is taken once, when it is generated, and travels
 * with the frame.  A shared-content frame views its plane in place
 * (Frame::viewShared).  A streamed one copies it out of the ring in
 * one memcpy (nextFrameInto()), or views its ring plane in place for a
 * caller that is done with it within two more draws
 * (viewNextFrame(): the pipeline's FramePrep).
 */

#ifndef VSTREAM_VIDEO_SYNTHETIC_VIDEO_HH
#define VSTREAM_VIDEO_SYNTHETIC_VIDEO_HH

#include <cstdint>
#include <memory>

#include "video/frame.hh"
#include "video/video_profile.hh"

namespace vstream
{

/** Stream of synthetic decoded frames. */
class SyntheticVideo
{
  public:
    /**
     * Largest video (frame_count pixel planes) that is generated in
     * full and shared, and the most the content store holds at once;
     * 16 MiB holds a 48-frame 256x144 video (5.3 MB) with room to
     * spare, while a 48-frame 512x288 one
     * (21 MB) streams through the private ring.
     */
    static constexpr std::uint64_t kSharedBudgetBytes = 16ULL << 20;

    explicit SyntheticVideo(const VideoProfile &profile);
    ~SyntheticVideo();
    SyntheticVideo(SyntheticVideo &&) noexcept;
    SyntheticVideo &operator=(SyntheticVideo &&) noexcept;

    /** All frames emitted? */
    bool done() const { return next_index_ >= profile_.frame_count; }

    /** Generate the next frame (fatal when done()). */
    Frame nextFrame();

    /**
     * Generate the next frame into @p out, reusing its storage
     * (fatal when done()).  Identical content to nextFrame(); the
     * serving hot path uses this with a recycled scratch frame so
     * steady-state generation never allocates.
     */
    void nextFrameInto(Frame &out);

    /**
     * nextFrameInto(), except that a streamed frame views its ring
     * plane in place instead of copying it.  The view stays valid
     * while the next two frames are drawn (by these calls or
     * generateAhead()): the ring keeps at least three planes.
     */
    void viewNextFrame(Frame &out);

    /**
     * Ring mode: draw the next frame's content now, so the
     * nextFrameInto() or viewNextFrame() that emits it only hands it
     * out.  At most one frame ahead, so the ring always has room: the
     * plane it takes held a frame emitted and past the copy window
     * (and counts as a draw against a view).  A no-op in shared mode,
     * when done() or when already ahead.
     */
    void generateAhead();

    /** The generator's profile: the caller's, with the similarity
     * rates rescaled for mab_dim. */
    const VideoProfile &profile() const { return profile_; }

    /** True when the frames come from the shared, fully generated
     * planes rather than a private ring. */
    bool sharesContent() const { return content_ != nullptr; }

    /** Flat bytes of one frame: its pixel plane. */
    static std::uint64_t frameBytes(const VideoProfile &profile);

    /** What the content store has done in this process.  Depends on
     * what ran before and on thread timing, so it never enters a
     * deterministic output. */
    struct StoreStats
    {
        /** Constructions served by a stored video. */
        std::uint64_t hits = 0;
        /** Constructions that generated their video. */
        std::uint64_t misses = 0;
        /** Bytes of the videos the store holds now. */
        std::uint64_t kept_bytes = 0;
    };
    static StoreStats storeStats();

  private:
    struct Planes;
    class Generator;
    struct Store;

    static Store &store();

    /** Emit the next frame into @p out; @p view_ring: a streamed
     * frame views its ring plane rather than copying it. */
    void emit(Frame &out, bool view_ring);

    /** The complete planes of @p scaled (at least its frame_count
     * frames), from the process-wide store keyed on the caller's
     * profile @p caller without its frame count; a miss builds them,
     * and callers of the same video meanwhile wait for that build. */
    static std::shared_ptr<const Planes>
    sharedPlanes(const VideoProfile &caller, const VideoProfile &scaled);

    VideoProfile profile_;
    std::uint64_t next_index_ = 0;
    /** Shared mode: every frame, generated once, read-only. */
    std::shared_ptr<const Planes> content_;
    /** Ring mode: the generator and the min(frame_count,
     * max(inter_window + 1, 3)) planes it writes each frame into
     * before it is emitted. */
    std::unique_ptr<Generator> gen_;
    std::unique_ptr<Planes> ring_;
    /** Ring mode: frame next_index_ is already drawn. */
    bool ahead_ = false;
};

} // namespace vstream

#endif // VSTREAM_VIDEO_SYNTHETIC_VIDEO_HH
