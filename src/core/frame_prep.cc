#include "core/frame_prep.hh"

#include "sim/logging.hh"

namespace vstream
{

// vstream:hot
void
prepareFrame(SyntheticVideo &video, const MachPlan *mach,
             PreparedFrame &out)
{
    video.viewNextFrame(out.frame);
    if (mach != nullptr) {
        prepareMachFrame(out.frame, *mach, out.mach);
    }
}

FramePrep::FramePrep(const VideoProfile &profile, const MachPlan *mach,
                     bool ahead)
    : video_(profile), mach_(mach != nullptr ? *mach : MachPlan{}),
      frames_(video_.profile().frame_count),
      threaded_(ahead && !video_.sharesContent())
{
    if (!threaded_) {
        return;
    }
    // Size both representations here, so the helper never allocates;
    // its frames view the video's ring.
    const VideoProfile &p = video_.profile();
    if (mach_.machs != nullptr) {
        for (PreparedFrame &slot : slots_) {
            slot.mach.sizeFor(p.mabsPerFrame(),
                              p.mab_dim * p.mab_dim * kBytesPerPixel,
                              mach_.machs->config());
        }
    }
    helper_ = std::thread([this] { run(); });
}

FramePrep::~FramePrep()
{
    stop();
}

void
FramePrep::run()
{
    for (std::uint64_t k = 0; k < frames_; ++k) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [&] { return stopping_ || k < released_ + 2; });
            if (stopping_) {
                return;
            }
        }
        prepareFrame(video_, plan(), slots_[k % 2]);
        {
            const std::lock_guard<std::mutex> lock(mu_);
            prepared_ = k + 1;
        }
        cv_.notify_all();
        // Draw frame k + 1 while its buffer may still be in use: only
        // the representation and the decisions wait for it.  Its ring
        // plane held frame k - 2 at the latest, which is released.
        video_.generateAhead();
    }
}

const PreparedFrame &
FramePrep::take(std::uint64_t index)
{
    vs_assert(index == next_take_ && index < frames_,
              "frames must be taken in order: expected ", next_take_,
              ", got ", index);
    ++next_take_;
    if (!threaded()) {
        prepareFrame(video_, plan(), slots_[0]);
        return slots_[0];
    }
    std::unique_lock<std::mutex> lock(mu_);
    vs_assert(!stopping_, "take() from a stopped frame-preparation stage");
    cv_.wait(lock, [&] { return index < prepared_; });
    return slots_[index % 2];
}

void
FramePrep::release(std::uint64_t index)
{
    if (!threaded()) {
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(mu_);
        released_ = index + 1;
    }
    cv_.notify_all();
}

void
FramePrep::stop()
{
    if (!helper_.joinable()) {
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    helper_.join();
}

} // namespace vstream
