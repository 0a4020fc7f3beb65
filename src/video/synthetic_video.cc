#include "video/synthetic_video.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "hash/crc.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "video/gop.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

/**
 * Frames as flat planes: frame f lives in plane f % count, its mabs
 * back to back in pixels.
 */
struct SyntheticVideo::Planes
{
    /** What a Frame carries besides its pixels. */
    struct Meta
    {
        FrameType type = FrameType::kI;
        double complexity = 1.0;
        std::uint64_t encoded_bytes = 0;
        /** CRC32 of the frame's pixel plane (Frame::contentChecksum). */
        std::uint32_t checksum = 0;
    };

    Planes(const VideoProfile &p, std::uint64_t plane_count)
        : mab_count(p.mabsPerFrame()),
          mab_bytes(p.mab_dim * p.mab_dim * kBytesPerPixel),
          count(plane_count),
          pixels(plane_count * mab_count * mab_bytes), meta(plane_count)
    {
    }

    std::uint8_t *
    pixelsOf(std::uint64_t frame)
    {
        return pixels.data() +
               (frame % count) * mab_count * mab_bytes;
    }
    const std::uint8_t *
    pixelsOf(std::uint64_t frame) const
    {
        return pixels.data() +
               (frame % count) * mab_count * mab_bytes;
    }

    std::uint64_t mab_count;
    std::uint64_t mab_bytes;
    std::uint64_t count;
    std::vector<std::uint8_t> pixels;
    std::vector<Meta> meta;
};

/**
 * The content model: draws frame after frame into planes that hold
 * at least the inter_window frames before the one being drawn.
 */
class SyntheticVideo::Generator
{
  public:
    /** @p profile carries the mab_dim-rescaled rates. */
    explicit Generator(const VideoProfile &profile);

    /** Draw the next frame into its plane of @p planes, then
     * checksum the plane. */
    void generate(Planes &planes);

  private:
    /** Draw frame @p idx's pixels and meta (bar checksum). */
    void draw(Planes &planes, std::uint64_t idx);

    Pixel paletteColor();
    /** Index of an earlier mab of the current frame to copy from
     * (locality-biased). */
    std::uint32_t intraSource(std::uint32_t i);
    /** A mab of a recent window frame, near position @p i. */
    const std::uint8_t *windowMabNear(const Planes &planes,
                                      std::uint64_t idx, std::uint32_t i);

    VideoProfile p_;
    GopStructure gop_;
    Random rng_;
    std::uint64_t next_ = 0;
    /** The frames just before next_ that inter copies may read
     * (cleared by scene cuts, capped at inter_window). */
    std::uint64_t win_size_ = 0;
    /** Ramp patterns (gradient blocks with zero base), back to back. */
    std::vector<std::uint8_t> ramps_;
};

SyntheticVideo::Generator::Generator(const VideoProfile &profile)
    : p_(profile), gop_(profile.gop_pattern), rng_(profile.seed)
{
    // Pre-build the ramp palette: gradient patterns shared by smooth
    // blocks.  Bases vary per block, so these collide only under gab.
    const std::uint32_t dim = p_.mab_dim;
    Random ramp_rng(p_.seed ^ 0x52414d50ULL);
    ramps_.reserve(static_cast<std::size_t>(p_.ramp_palette) * dim * dim *
                   kBytesPerPixel);
    for (std::uint32_t r = 0; r < p_.ramp_palette; ++r) {
        const auto dx = static_cast<std::uint8_t>(ramp_rng.uniformInt(0, 6));
        const auto dy = static_cast<std::uint8_t>(ramp_rng.uniformInt(0, 6));
        for (std::uint32_t y = 0; y < dim; ++y) {
            for (std::uint32_t x = 0; x < dim; ++x) {
                const auto v = static_cast<std::uint8_t>(x * dx + y * dy);
                ramps_.insert(ramps_.end(), kBytesPerPixel, v);
            }
        }
    }
}

Pixel
SyntheticVideo::Generator::paletteColor()
{
    // Quantized palette so the same colour recurs across the video.
    // Heavily skewed toward colour 0 (black): letterbox bars, dark
    // scenes and test-card fields dominate real pure-colour content,
    // which is what concentrates matches on a single digest
    // (paper Fig. 9b).
    const std::uint64_t idx =
        rng_.chance(0.25) ? 0 : rng_.uniformInt(0, p_.color_palette - 1);
    std::uint64_t h = idx * 0x9e3779b97f4a7c15ULL + p_.seed;
    h = splitMix64(h);
    return Pixel{static_cast<std::uint8_t>(h),
                 static_cast<std::uint8_t>(h >> 8),
                 static_cast<std::uint8_t>(h >> 16)};
}

std::uint32_t
SyntheticVideo::Generator::intraSource(std::uint32_t i)
{
    vs_assert(i > 0, "no earlier mab to copy");
    if (rng_.chance(p_.intra_locality)) {
        // Spatially near: a short geometric hop backwards.
        const std::uint64_t reach =
            std::min<std::uint64_t>(p_.locality_reach, i);
        const std::uint64_t d = rng_.burstLength(0.97, reach);
        return i - static_cast<std::uint32_t>(d);
    }
    return static_cast<std::uint32_t>(rng_.uniformInt(0, i - 1));
}

const std::uint8_t *
SyntheticVideo::Generator::windowMabNear(const Planes &planes,
                                         std::uint64_t idx, std::uint32_t i)
{
    vs_assert(win_size_ > 0, "no window frame to copy from");
    // Bias toward recent frames: the paper finds matches beyond 16
    // frames are <1%, and most inter matches are near.
    const std::uint64_t back = std::min<std::uint64_t>(
        rng_.burstLength(0.6, win_size_) - 1, win_size_ - 1);
    const std::uint64_t frame = idx - 1 - back;

    // Mostly the co-located block (still content / slow pans), with
    // a small motion offset; occasionally anywhere in the frame.
    const std::uint64_t count = planes.mab_count;
    std::uint64_t mab_idx;
    if (rng_.chance(p_.intra_locality)) {
        const std::int64_t off =
            static_cast<std::int64_t>(rng_.uniformInt(0, 64)) - 32;
        mab_idx = static_cast<std::uint64_t>(std::clamp<std::int64_t>(
            static_cast<std::int64_t>(i) + off, 0,
            static_cast<std::int64_t>(count) - 1));
    } else {
        mab_idx = rng_.uniformInt(0, count - 1);
    }
    return planes.pixelsOf(frame) + mab_idx * planes.mab_bytes;
}

// vstream:hot
void
SyntheticVideo::Generator::generate(Planes &planes)
{
    const std::uint64_t idx = next_++;
    vs_assert(planes.count > std::min<std::uint64_t>(idx, p_.inter_window),
              "planes cannot hold the copy window");
    draw(planes, idx);
    // One CRC over the contiguous plane equals the per-mab CRC a
    // Frame would compute: CRC32 streams across block boundaries.
    planes.meta[idx % planes.count].checksum = Crc32::compute(
        planes.pixelsOf(idx), planes.mab_count * planes.mab_bytes);
}

// vstream:hot
void
SyntheticVideo::Generator::draw(Planes &planes, std::uint64_t idx)
{
    const std::uint64_t count = planes.mab_count;
    const std::uint64_t size = planes.mab_bytes;
    std::uint8_t *frame = planes.pixelsOf(idx);
    Planes::Meta &meta = planes.meta[idx % planes.count];
    meta.type = gop_.frameType(idx);

    // Scene cut: clear the copy window so following frames start
    // fresh (drives the I-frame-heavy trailer workloads).
    if (idx > 0 && rng_.chance(p_.scene_change_rate)) {
        win_size_ = 0;
    }

    // Static frame: a verbatim repeat of the previous frame (the
    // content class that checksum-based display schemes eliminate).
    if (idx > 0 && win_size_ > 0 && rng_.chance(p_.static_frame_rate)) {
        std::memcpy(frame, planes.pixelsOf(idx - 1), count * size);
        meta.complexity = 0.6; // repeats decode cheaply
        meta.encoded_bytes = static_cast<std::uint64_t>(
            p_.mabsPerFrame() * p_.encoded_bytes_per_mab * 0.2);
        win_size_ = std::min<std::uint64_t>(win_size_ + 1, p_.inter_window);
        return;
    }

    // Per-frame decode complexity: lognormal with unit mean, capped.
    // (I frames' larger decode effort is modelled by the cost model's
    // per-type weights, not here.)
    const double mu = -0.5 * p_.complexity_sigma * p_.complexity_sigma;
    const double complexity = std::min(
        rng_.logNormal(mu, p_.complexity_sigma), p_.complexity_cap);
    meta.complexity = complexity;
    const double i_size_factor = meta.type == FrameType::kI ? 3.0 : 1.0;
    meta.encoded_bytes = static_cast<std::uint64_t>(
        p_.mabsPerFrame() * p_.encoded_bytes_per_mab * i_size_factor *
        complexity);

    const double p_intra = p_.intra_match_rate;
    const double p_inter = p_intra + p_.inter_match_rate;
    const double p_grad = p_inter + p_.gradient_shift_rate;

    for (std::uint32_t i = 0; i < count; ++i) {
        const double r = rng_.uniform();
        std::uint8_t *mab = frame + i * size;

        if (r < p_intra && i > 0) {
            std::memcpy(mab, frame + intraSource(i) * size, size);
        } else if (r < p_inter && win_size_ > 0) {
            std::memcpy(mab, windowMabNear(planes, idx, i), size);
        } else if (r < p_grad && i > 0) {
            // Same gradient, different base: pick an earlier mab of
            // this frame and shift all pixels by a non-zero constant.
            const std::uint8_t *src = frame + intraSource(i) * size;
            const auto dr = static_cast<std::uint8_t>(rng_.uniformInt(1, 255));
            const auto dg = static_cast<std::uint8_t>(rng_.uniformInt(0, 255));
            const auto db = static_cast<std::uint8_t>(rng_.uniformInt(0, 255));
            gradientAdd(mab, src, size, Pixel{dr, dg, db});
        } else if (rng_.chance(p_.pure_color_rate)) {
            const Pixel c = paletteColor();
            for (std::uint64_t b = 0; b < size; b += kBytesPerPixel) {
                mab[b] = c.r;
                mab[b + 1] = c.g;
                mab[b + 2] = c.b;
            }
        } else if (rng_.chance(p_.smooth_rate)) {
            const std::uint64_t ramp =
                rng_.uniformInt(0, std::uint64_t{p_.ramp_palette} - 1);
            gradientAdd(mab, ramps_.data() + ramp * size, size,
                        paletteColor());
        } else {
            // Draw through a local copy: stores to mab may alias the
            // member state, which would pin it in memory.
            Random rng = rng_;
            for (std::uint64_t b = 0; b < size; ++b) {
                mab[b] = static_cast<std::uint8_t>(rng.next());
            }
            rng_ = rng;
        }
    }

    win_size_ = std::min<std::uint64_t>(win_size_ + 1, p_.inter_window);
}

namespace
{

/** A hash of what names a video: its key, seed, library title and
 * geometry.  Two profiles that differ elsewhere may share it; the
 * store only uses it to recognise a profile that missed before. */
std::uint64_t
identityHash(const VideoProfile &p)
{
    std::uint64_t h = Crc32::compute(p.key.data(), p.key.size());
    for (const std::uint64_t v :
         {p.seed, std::uint64_t{p.library_title}, std::uint64_t{p.width},
          std::uint64_t{p.height}, std::uint64_t{p.mab_dim}}) {
        std::uint64_t state = h ^ v;
        h = splitMix64(state);
    }
    return h;
}

} // namespace

/**
 * The process-wide content store: complete videos, keyed on the
 * caller's profile without its frame count.  An entry of N frames
 * serves every request for N or fewer, because the generator's first
 * frames do not depend on frame_count; a longer request regenerates
 * the video and replaces the entry.
 *
 * A missed video enters on probation and is dropped at the next
 * miss.  It is kept only when its profile missed before, as the ring
 * of recent misses records, so a sweep that moves from video to video
 * and a fleet of one-shot sessions hold one video, while the titles
 * of a library stay.  Kept videos are evicted least recently used
 * first, so that kept and probation bytes together never exceed
 * kSharedBudgetBytes.
 */
struct SyntheticVideo::Store
{
    using Built = std::shared_future<std::shared_ptr<const Planes>>;

    struct Entry
    {
        /** The caller's profile with frame_count 0. */
        VideoProfile key;
        std::uint64_t hash = 0;
        /** Frames generated (or being generated). */
        std::uint32_t frames = 0;
        std::uint64_t bytes = 0;
        Built planes;
    };

    /** Profile hashes remembered from earlier misses. */
    static constexpr std::size_t kRecentMisses = 256;

    /** The planes for @p frames frames of @p key, or an invalid
     * future on a miss; a hit refreshes a kept entry's recency. */
    Built find(const VideoProfile &key, std::uint64_t hash,
               std::uint32_t frames);
    /** Count a miss and take @p fresh in, on probation or kept. */
    void admit(Entry fresh);
    std::uint64_t heldBytes() const;

    std::mutex mutex;
    /** Kept videos, least recently used first. */
    std::vector<Entry> kept; // vstream:guarded_by(mutex)
    /** The last missed video whose profile had not missed before. */
    std::optional<Entry> probation; // vstream:guarded_by(mutex)
    /** Ring of the hashes of profiles that missed (a zero slot is
     * unused: at worst it keeps a video whose hash is 0 early). */
    std::array<std::uint64_t, kRecentMisses> recent{}; // vstream:guarded_by(mutex)
    std::size_t recent_next = 0; // vstream:guarded_by(mutex)
    StoreStats stats; // vstream:guarded_by(mutex)
};

SyntheticVideo::Store::Built
SyntheticVideo::Store::find(const VideoProfile &key, std::uint64_t hash,
                            std::uint32_t frames)
{
    const auto serves = [&](const Entry &e) {
        return e.hash == hash && e.frames >= frames && e.key == key;
    };
    if (probation && serves(*probation)) {
        ++stats.hits;
        return probation->planes;
    }
    const auto it = std::find_if(kept.begin(), kept.end(), serves);
    if (it == kept.end()) {
        return {};
    }
    ++stats.hits;
    std::rotate(it, it + 1, kept.end());
    return kept.back().planes;
}

void
SyntheticVideo::Store::admit(Entry fresh)
{
    ++stats.misses;
    const auto same = [&](const Entry &e) {
        return e.hash == fresh.hash && e.key == fresh.key;
    };
    // A shorter copy of the same video recurs, and is replaced.
    bool recurs = probation && same(*probation);
    probation.reset();
    const auto shorter = std::find_if(kept.begin(), kept.end(), same);
    if (shorter != kept.end()) {
        kept.erase(shorter);
        recurs = true;
    }
    if (!recurs) {
        recurs = std::find(recent.begin(), recent.end(), fresh.hash) !=
                 recent.end();
    }
    if (!recurs) {
        recent[recent_next] = fresh.hash;
        recent_next = (recent_next + 1) % kRecentMisses;
    }
    std::uint64_t held = heldBytes();
    while (held + fresh.bytes > kSharedBudgetBytes) {
        held -= kept.front().bytes;
        kept.erase(kept.begin());
    }
    if (recurs) {
        kept.push_back(std::move(fresh));
    } else {
        probation = std::move(fresh);
    }
}

std::uint64_t
SyntheticVideo::Store::heldBytes() const
{
    std::uint64_t held = probation ? probation->bytes : 0;
    for (const Entry &e : kept) {
        held += e.bytes;
    }
    return held;
}

SyntheticVideo::Store &
SyntheticVideo::store()
{
    static Store store;
    return store;
}

std::shared_ptr<const SyntheticVideo::Planes>
SyntheticVideo::sharedPlanes(const VideoProfile &caller,
                             const VideoProfile &scaled)
{
    Store &store = SyntheticVideo::store();
    Store::Entry entry;
    entry.key = caller;
    entry.key.frame_count = 0;
    entry.hash = identityHash(entry.key);
    entry.frames = scaled.frame_count;
    entry.bytes = scaled.frame_count * frameBytes(scaled);
    Store::Built found;
    std::promise<std::shared_ptr<const Planes>> build;
    {
        const std::lock_guard<std::mutex> lock(store.mutex);
        found = store.find(entry.key, entry.hash, entry.frames);
        if (!found.valid()) {
            // Claim the entry before generating: callers of the same
            // video meanwhile wait for this build instead of
            // repeating it.
            entry.planes = build.get_future().share();
            store.admit(std::move(entry));
        }
    }
    if (found.valid()) {
        return found.get();
    }
    // Generate outside the lock, so threads building different videos
    // do not wait on each other.
    auto planes = std::make_shared<Planes>(scaled, scaled.frame_count);
    Generator gen(scaled);
    for (std::uint32_t f = 0; f < scaled.frame_count; ++f) {
        gen.generate(*planes);
    }
    build.set_value(planes);
    return planes;
}

SyntheticVideo::StoreStats
SyntheticVideo::storeStats()
{
    Store &store = SyntheticVideo::store();
    const std::lock_guard<std::mutex> lock(store.mutex);
    StoreStats out = store.stats;
    out.kept_bytes = store.heldBytes();
    return out;
}

std::uint64_t
SyntheticVideo::frameBytes(const VideoProfile &profile)
{
    const std::uint64_t mab_bytes =
        static_cast<std::uint64_t>(profile.mab_dim) * profile.mab_dim *
        kBytesPerPixel;
    return profile.mabsPerFrame() * mab_bytes;
}

SyntheticVideo::SyntheticVideo(const VideoProfile &profile)
    : profile_(profile)
{
    profile_.validate();

    // Similarity rates are calibrated for 4x4 blocks.  A larger
    // block only recurs if all of its 4x4 tiles recur together, so
    // the match probability decays with block area; smaller blocks
    // recur more (paper Fig. 12c's trade-off against metadata).
    const double area_ratio =
        static_cast<double>(profile_.mab_dim) * profile_.mab_dim /
        16.0;
    if (area_ratio != 1.0) {
        auto scale = [&](double rate) {
            return rate > 0.0 ? std::pow(rate, area_ratio) : 0.0;
        };
        profile_.intra_match_rate = scale(profile_.intra_match_rate);
        profile_.inter_match_rate = scale(profile_.inter_match_rate);
        profile_.gradient_shift_rate =
            scale(profile_.gradient_shift_rate);
        profile_.pure_color_rate = scale(profile_.pure_color_rate);
        profile_.smooth_rate = scale(profile_.smooth_rate);

        // Tiny blocks push the copy rates toward 1; keep the three
        // exclusive categories a valid partition.
        const double sum = profile_.intra_match_rate +
                           profile_.inter_match_rate +
                           profile_.gradient_shift_rate;
        if (sum > 0.95) {
            const double f = 0.95 / sum;
            profile_.intra_match_rate *= f;
            profile_.inter_match_rate *= f;
            profile_.gradient_shift_rate *= f;
        }
    }

    if (profile_.frame_count * frameBytes(profile_) <= kSharedBudgetBytes) {
        content_ = sharedPlanes(profile, profile_);
    } else {
        // The copy window needs inter_window earlier planes plus the
        // one being drawn, and a viewed frame outlives two later
        // draws (viewNextFrame()); never more planes than frames.
        gen_ = std::make_unique<Generator>(profile_);
        ring_ = std::make_unique<Planes>(
            profile_,
            std::min<std::uint64_t>(
                profile_.frame_count,
                std::max<std::uint64_t>(profile_.inter_window + 1ULL, 3)));
    }
}

SyntheticVideo::~SyntheticVideo() = default;
SyntheticVideo::SyntheticVideo(SyntheticVideo &&) noexcept = default;
SyntheticVideo &
SyntheticVideo::operator=(SyntheticVideo &&) noexcept = default;

Frame
SyntheticVideo::nextFrame()
{
    Frame frame;
    nextFrameInto(frame);
    return frame;
}

void
SyntheticVideo::nextFrameInto(Frame &out)
{
    emit(out, /*view_ring=*/false);
}

void
SyntheticVideo::viewNextFrame(Frame &out)
{
    emit(out, /*view_ring=*/true);
}

// vstream:hot
void
SyntheticVideo::emit(Frame &out, bool view_ring)
{
    vs_assert(!done(), "video '", profile_.key, "' exhausted");
    const std::uint64_t idx = next_index_++;
    const Planes *planes = content_.get();
    if (planes == nullptr) {
        if (!ahead_) {
            gen_->generate(*ring_);
        }
        ahead_ = false;
        planes = ring_.get();
    }
    const Planes::Meta &meta = planes->meta[idx % planes->count];
    out.reinit(idx, meta.type, profile_.mabsX(), profile_.mabsY(),
               profile_.mab_dim);
    if (content_ != nullptr) {
        // Shared planes are read-only and live as long as a frame
        // holds them: view them in place.
        out.viewShared(content_, planes->pixelsOf(idx), meta.checksum);
    } else if (view_ring) {
        // The caller reads the frame before the ring comes back to
        // its plane.
        out.viewShared(nullptr, planes->pixelsOf(idx), meta.checksum);
    } else {
        // The ring plane is redrawn frames later: copy it out.
        out.assignFlat(planes->pixelsOf(idx), meta.checksum);
    }
    out.setComplexity(meta.complexity);
    out.setEncodedBytes(meta.encoded_bytes);
}

void
SyntheticVideo::generateAhead()
{
    if (gen_ == nullptr || ahead_ || done()) {
        return;
    }
    gen_->generate(*ring_);
    ahead_ = true;
}

} // namespace vstream
