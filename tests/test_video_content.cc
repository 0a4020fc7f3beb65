/**
 * @file
 * Tests for SyntheticVideo's content store: the shared, fully
 * generated planes and the private ring emit the same frames, byte
 * for byte, and both still emit the generator's historical bytes;
 * the store serves a shorter request from a longer video, keeps only
 * what recurs, stays within its budget and evicts least recently
 * used first.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "video/synthetic_video.hh"
#include "video/workloads.hh"

namespace vstream
{
namespace
{

/** Everything a frame carries, for exact comparison. */
struct FrameImage
{
    std::uint64_t index = 0;
    FrameType type = FrameType::kI;
    double complexity = 0.0;
    std::uint64_t encoded_bytes = 0;
    std::uint32_t checksum = 0;
    std::vector<std::uint8_t> bytes;

    explicit FrameImage(const Frame &f)
        : index(f.index()), type(f.type()), complexity(f.complexity()),
          encoded_bytes(f.encodedBytes()), checksum(f.contentChecksum())
    {
        for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
            const auto b = f.mabBytes(i);
            bytes.insert(bytes.end(), b.begin(), b.end());
        }
    }

    bool
    operator==(const FrameImage &o) const
    {
        // Complexity compared bit for bit, not within a tolerance.
        return index == o.index && type == o.type &&
               std::memcmp(&complexity, &o.complexity,
                           sizeof(complexity)) == 0 &&
               encoded_bytes == o.encoded_bytes &&
               checksum == o.checksum && bytes == o.bytes;
    }
};

/** The first @p n frames of @p video. */
std::vector<FrameImage>
take(SyntheticVideo &video, std::uint64_t n)
{
    std::vector<FrameImage> out;
    Frame f;
    for (std::uint64_t i = 0; i < n && !video.done(); ++i) {
        video.nextFrameInto(f);
        out.emplace_back(f);
    }
    return out;
}

/** @p p stretched past the shared budget: the same frames, streamed
 * through the private ring. */
VideoProfile
overBudget(VideoProfile p)
{
    p.frame_count = static_cast<std::uint32_t>(
        SyntheticVideo::kSharedBudgetBytes / SyntheticVideo::frameBytes(p) +
        1);
    return p;
}

/** Bytes of @p p's planes: what the store holds for it. */
std::uint64_t
storedBytes(const VideoProfile &p)
{
    return p.frame_count * SyntheticVideo::frameBytes(p);
}

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** FNV-1a over the first @p n frames' index, type, complexity,
 * encoded size, and each mab's bytes. */
std::uint64_t
digestFrames(SyntheticVideo &v, std::uint64_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    Frame f;
    for (std::uint64_t k = 0; k < n && !v.done(); ++k) {
        v.nextFrameInto(f);
        const std::uint64_t idx = f.index();
        const auto type = static_cast<unsigned char>(f.type());
        const double c = f.complexity();
        const std::uint64_t e = f.encodedBytes();
        h = fnv(h, &idx, sizeof(idx));
        h = fnv(h, &type, 1);
        h = fnv(h, &c, sizeof(c));
        h = fnv(h, &e, sizeof(e));
        for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
            h = fnv(h, f.mabBytes(i).data(), f.mabBytes(i).size());
        }
    }
    return h;
}

/** The digest of every frame of @p p. */
std::uint64_t
videoDigest(const VideoProfile &p)
{
    SyntheticVideo v(p);
    return digestFrames(v, p.frame_count);
}

/** videoDigest(p), drawn through the private ring: the store is not
 * touched. */
std::uint64_t
ringDigest(const VideoProfile &p)
{
    SyntheticVideo v(overBudget(p));
    return digestFrames(v, p.frame_count);
}

VideoProfile
small(const std::string &key)
{
    return scaledWorkload(key, 40, 128, 72);
}

/** The variants beyond Table 1 every equivalence check covers. */
std::vector<std::pair<std::string, VideoProfile>>
variants()
{
    std::vector<std::pair<std::string, VideoProfile>> out;
    for (const VideoProfile &t : workloadTable()) {
        out.emplace_back(t.key, small(t.key));
    }
    const VideoProfile base = small("V8");
    for (const std::uint32_t dim : {2U, 8U}) {
        VideoProfile p = base;
        p.mab_dim = dim;
        out.emplace_back("V8/mab" + std::to_string(dim), p);
    }
    VideoProfile stat = base;
    stat.static_frame_rate = 0.3;
    out.emplace_back("V8/static", stat);
    VideoProfile cuts = base;
    cuts.scene_change_rate = 0.5;
    out.emplace_back("V8/cuts", cuts);
    return out;
}

TEST(VideoContent, SharedPlanesEqualPrivateRing)
{
    for (const auto &[name, p] : variants()) {
        SyntheticVideo shared(p);
        VideoProfile long_p = overBudget(p);
        SyntheticVideo ring(long_p);
        ASSERT_TRUE(shared.sharesContent()) << name;
        ASSERT_FALSE(ring.sharesContent()) << name;
        // 40 frames wrap the 17-plane ring twice.
        const auto a = take(shared, p.frame_count);
        const auto b = take(ring, p.frame_count);
        ASSERT_EQ(a.size(), p.frame_count) << name;
        ASSERT_EQ(b.size(), a.size()) << name;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_TRUE(a[i] == b[i]) << name << " frame " << i;
        }
        EXPECT_TRUE(shared.done()) << name;
        EXPECT_FALSE(ring.done()) << name;
    }
}

TEST(VideoContent, DrawingAheadEmitsTheSameFrames)
{
    // The frame-preparation helper draws the next frame while the
    // previous one is still in use; every other call draws it when it
    // is emitted.  Both emit the same frames, and a shared video
    // ignores the call.
    for (const auto &[name, p] : variants()) {
        const VideoProfile long_p = overBudget(p);
        SyntheticVideo plain(long_p);
        SyntheticVideo ahead(long_p);
        SyntheticVideo shared(p);
        Frame f;
        Frame g;
        for (std::uint64_t i = 0; i < p.frame_count; ++i) {
            ahead.generateAhead();
            ahead.generateAhead(); // at most one frame ahead
            shared.generateAhead();
            plain.nextFrameInto(f);
            ahead.nextFrameInto(g);
            ASSERT_TRUE(FrameImage(f) == FrameImage(g))
                << name << " frame " << i;
            shared.nextFrameInto(g);
            ASSERT_TRUE(FrameImage(f) == FrameImage(g))
                << name << " shared frame " << i;
        }
    }
}

TEST(VideoContent, FramesAreViewsIntoOnePlane)
{
    const VideoProfile p = variants().front().second;
    SyntheticVideo shared(p);
    SyntheticVideo ring(overBudget(p));
    const std::uint32_t size = p.mab_dim * p.mab_dim * kBytesPerPixel;
    for (std::uint32_t k = 0; k < 3; ++k) {
        const Frame a = shared.nextFrame();
        const Frame b = ring.nextFrame();
        EXPECT_TRUE(a.viewsShared());
        EXPECT_FALSE(b.viewsShared());
        // The ring frame's copied plane equals the shared plane.
        ASSERT_EQ(a.plane().size(), a.decodedBytes());
        ASSERT_TRUE(std::equal(a.plane().begin(), a.plane().end(),
                               b.plane().begin(), b.plane().end()));
        for (std::uint32_t i = 0; i < a.mabCount(); ++i) {
            for (const Frame *f : {&a, &b}) {
                const auto bytes = f->mabBytes(i);
                ASSERT_EQ(bytes.data(), f->plane().data() + i * size);
                ASSERT_EQ(bytes.size(), size);
                ASSERT_EQ(f->mabBase(i),
                          (Pixel{bytes[0], bytes[1], bytes[2]}));
            }
        }
        // A copy views the same plane; writing a mab of it moves the
        // copy (only) to its own storage.
        Frame c = a;
        EXPECT_EQ(c.plane().data(), a.plane().data());
        const std::vector<std::uint8_t> black(size, 0);
        c.setMab(0, black);
        EXPECT_FALSE(c.viewsShared());
        EXPECT_NE(c.plane().data(), a.plane().data());
        EXPECT_TRUE(std::equal(black.begin(), black.end(),
                               c.mabBytes(0).begin()));
        EXPECT_TRUE(std::equal(a.plane().begin() + size, a.plane().end(),
                               c.plane().begin() + size));
    }
}

TEST(VideoContent, GeneratorBytesAreUnchanged)
{
    // Digests of the generator as it was before content was shared
    // (taken over the frame metadata and pixel bytes): the flat planes
    // must reproduce its every byte.
    const std::vector<std::pair<std::string, std::uint64_t>> golden = {
        {"V1", 0x9aa96425e78a8f36ULL},  {"V2", 0xb4e2b9cf4417bf10ULL},
        {"V3", 0x67855693bb38404aULL},  {"V4", 0x59bfa042cdc2e0bbULL},
        {"V5", 0x6b954a30cef4e162ULL},  {"V6", 0x2214e61010cc0041ULL},
        {"V7", 0xc3c40f59806e33f8ULL},  {"V8", 0xd771e50c8a24fd3fULL},
        {"V9", 0x3c918fc98a8b747fULL},  {"V10", 0x729e7cf7dda9ea10ULL},
        {"V11", 0xe56b4b20bbd95efbULL}, {"V12", 0xd8278ffb860a0d3bULL},
        {"V13", 0x4b1c120fef8daa32ULL}, {"V14", 0x217c502ee74470bfULL},
        {"V15", 0x35fc6e5f8b2252c7ULL}, {"V16", 0x3e6c677291c1214eULL},
        {"V8/mab2", 0xb2af5f2f081b4ab1ULL},
        {"V8/mab8", 0x9cdad6d117c340e4ULL},
        {"V8/static", 0xcdf3e87e692a1f3bULL},
        {"V8/cuts", 0x4911402d96e0c103ULL},
    };
    const auto all = variants();
    ASSERT_EQ(all.size(), golden.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(all[i].first, golden[i].first);
        EXPECT_EQ(videoDigest(all[i].second), golden[i].second)
            << all[i].first;
    }
    // A 2000-frame stream takes the ring from the first frame.
    VideoProfile p = small("V8");
    p.frame_count = 2000;
    EXPECT_EQ(videoDigest(p), 0xa8f0313d719402f0ULL);
}

TEST(VideoContent, BudgetDecidesSharing)
{
    // A frame is its pixel plane: 48 B per 4x4 mab.
    EXPECT_EQ(SyntheticVideo::frameBytes(small("V3")), 32U * 18U * 48U);
    // The benchmark's shapes at 48 frames: the fig11 sweep (256x144,
    // 5.3 MB) and the fleet sessions (48x24) share, gab-large (512x288,
    // 21 MB) streams.
    for (const auto &[w, h, shares] :
         {std::tuple{256U, 144U, true}, std::tuple{512U, 288U, false},
          std::tuple{48U, 24U, true}}) {
        VideoProfile shape = scaledWorkload("V3", 48, w, h);
        shape.frame_count = 48;
        EXPECT_EQ(SyntheticVideo(shape).sharesContent(), shares)
            << w << "x" << h;
    }

    // The largest video within the budget is stored and shared; one
    // frame more streams through the private ring and leaves the
    // store alone.  (A frame's bytes are a multiple of 3, so no video
    // is exactly kSharedBudgetBytes.)
    VideoProfile p = small("V3");
    const std::uint64_t fit =
        SyntheticVideo::kSharedBudgetBytes / SyntheticVideo::frameBytes(p);
    p.frame_count = static_cast<std::uint32_t>(fit);
    EXPECT_LE(storedBytes(p), SyntheticVideo::kSharedBudgetBytes);
    EXPECT_GT(storedBytes(p) + SyntheticVideo::frameBytes(p),
              SyntheticVideo::kSharedBudgetBytes);
    EXPECT_TRUE(SyntheticVideo(p).sharesContent());
    EXPECT_LE(SyntheticVideo::storeStats().kept_bytes,
              SyntheticVideo::kSharedBudgetBytes);
    const SyntheticVideo::StoreStats before = SyntheticVideo::storeStats();
    p.frame_count = static_cast<std::uint32_t>(fit + 1);
    EXPECT_FALSE(SyntheticVideo(p).sharesContent());
    const SyntheticVideo::StoreStats after = SyntheticVideo::storeStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    // The stored video also serves a shorter request.
    p.frame_count = static_cast<std::uint32_t>(fit / 2);
    EXPECT_TRUE(SyntheticVideo(p).sharesContent());
    EXPECT_EQ(SyntheticVideo::storeStats().hits, after.hits + 1);
}

TEST(VideoContent, ProfileKeepsRescaledRates)
{
    // profile() reports the rates the generator draws with; the key
    // the content is cached under stays the caller's profile, so the
    // same caller profile keeps producing the same video.
    VideoProfile p = small("V8");
    p.mab_dim = 8;
    SyntheticVideo v(p);
    EXPECT_DOUBLE_EQ(v.profile().intra_match_rate,
                     std::pow(p.intra_match_rate, 4.0));
    EXPECT_EQ(v.profile().mab_dim, 8U);
    SyntheticVideo w(p);
    EXPECT_TRUE(take(v, 5)[4] == take(w, 5)[4]);

    const VideoProfile q = small("V8");
    EXPECT_TRUE(SyntheticVideo(q).profile() == q);
}

TEST(VideoContent, ConcurrentConstructionIsSafe)
{
    // Same profile on both threads, then different ones: every thread
    // must see its own video's exact frames whichever thread built,
    // kept or dropped the stored entry.  The references come from the
    // private ring, so they do not depend on what the store holds.
    const VideoProfile a = small("V2");
    const VideoProfile b = small("V9");
    const std::uint64_t want_a = ringDigest(a);
    const std::uint64_t want_b = ringDigest(b);
    for (const bool same : {true, false}) {
        std::uint64_t got[2][4] = {};
        std::thread t0([&] {
            for (auto &g : got[0]) {
                g = videoDigest(a);
            }
        });
        std::thread t1([&] {
            for (auto &g : got[1]) {
                g = videoDigest(same ? a : b);
            }
        });
        t0.join();
        t1.join();
        for (const std::uint64_t g : got[0]) {
            EXPECT_EQ(g, want_a);
        }
        for (const std::uint64_t g : got[1]) {
            EXPECT_EQ(g, same ? want_a : want_b);
        }
        EXPECT_LE(SyntheticVideo::storeStats().kept_bytes,
                  SyntheticVideo::kSharedBudgetBytes);
    }
}

/** @p key at 128x72 and @p frames frames, with a seed that no
 * earlier call returned, so the store has never seen it. */
VideoProfile
fresh(const std::string &key, std::uint32_t frames)
{
    static std::uint64_t calls = 0;
    VideoProfile p = scaledWorkload(key, frames, 128, 72);
    p.seed ^= ++calls << 32;
    return p;
}

/**
 * Leave the store holding one kept video that fills its budget, so
 * that the next miss of any 128x72 video evicts it: the store then
 * holds just what the test asks for, whatever ran before.
 */
void
fillStore()
{
    VideoProfile fill = fresh("V5", 1);
    fill.frame_count = static_cast<std::uint32_t>(
        SyntheticVideo::kSharedBudgetBytes /
        SyntheticVideo::frameBytes(fill));
    // fill, other, fill: the second miss of fill keeps it, and
    // keeping it evicts everything else.
    for (const VideoProfile &p : {fill, fresh("V6", 1), fill}) {
        EXPECT_TRUE(SyntheticVideo(p).sharesContent());
    }
}

TEST(VideoContent, ShorterRequestsShareALongerVideo)
{
    // An entry of N frames serves every request for N or fewer; a
    // longer request regenerates the video and replaces the entry.
    // Every order of three lengths, each on a video the store has not
    // seen, emits the private ring's frames.
    for (const std::string key : {"V3", "V8"}) {
        std::array<std::uint32_t, 3> lengths = {24, 28, 32};
        do {
            VideoProfile p = fresh(key, 32);
            SyntheticVideo ring(overBudget(p));
            const auto want = take(ring, 32);
            std::uint32_t longest = 0;
            for (const std::uint32_t n : lengths) {
                p.frame_count = n;
                const SyntheticVideo::StoreStats before =
                    SyntheticVideo::storeStats();
                SyntheticVideo v(p);
                ASSERT_TRUE(v.sharesContent());
                const auto got = take(v, n);
                ASSERT_EQ(got.size(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_TRUE(got[i] == want[i])
                        << key << " at " << n << " frames, frame " << i;
                }
                EXPECT_EQ(SyntheticVideo::storeStats().misses -
                              before.misses,
                          n > longest ? 1U : 0U)
                    << key << " at " << n << " frames";
                longest = std::max(longest, n);
            }
        } while (std::next_permutation(lengths.begin(), lengths.end()));
    }
}

TEST(VideoContent, SweepHoldsOnlyTheNewestVideo)
{
    // A figure's sweep plays each video under six schemes in a row:
    // each video is generated once and dropped when the next misses.
    fillStore();
    const SyntheticVideo::StoreStats before = SyntheticVideo::storeStats();
    std::uint64_t newest = 0;
    for (const std::string key : {"V1", "V2", "V3"}) {
        const VideoProfile p = fresh(key, 40);
        for (int scheme = 0; scheme < 6; ++scheme) {
            EXPECT_TRUE(SyntheticVideo(p).sharesContent());
        }
        newest = storedBytes(p);
    }
    const SyntheticVideo::StoreStats after = SyntheticVideo::storeStats();
    EXPECT_EQ(after.misses - before.misses, 3U);
    EXPECT_EQ(after.hits - before.hits, 15U);
    EXPECT_EQ(after.kept_bytes, newest);
}

TEST(VideoContent, RecurringVideoIsKept)
{
    // A, B, A: A's second miss keeps it (and drops B), so a fourth
    // request for A is a hit.  B's own second miss then keeps B too.
    fillStore();
    const VideoProfile a = fresh("V4", 40);
    const VideoProfile b = fresh("V7", 40);
    const SyntheticVideo::StoreStats before = SyntheticVideo::storeStats();
    for (const VideoProfile *p : {&a, &b, &a, &a}) {
        EXPECT_TRUE(SyntheticVideo(*p).sharesContent());
    }
    SyntheticVideo::StoreStats now = SyntheticVideo::storeStats();
    EXPECT_EQ(now.misses - before.misses, 3U);
    EXPECT_EQ(now.hits - before.hits, 1U);
    EXPECT_EQ(now.kept_bytes, storedBytes(a));

    for (const VideoProfile *p : {&b, &a, &b}) {
        EXPECT_TRUE(SyntheticVideo(*p).sharesContent());
    }
    now = SyntheticVideo::storeStats();
    EXPECT_EQ(now.misses - before.misses, 4U);
    EXPECT_EQ(now.hits - before.hits, 3U);
    EXPECT_EQ(now.kept_bytes, storedBytes(a) + storedBytes(b));
}

TEST(VideoContent, KeptVideosStayWithinBudgetLeastRecentlyUsedFirst)
{
    // Two 240-frame videos fit the budget together, three do not.
    fillStore();
    const VideoProfile a = fresh("V9", 240);
    const VideoProfile b = fresh("V10", 240);
    const VideoProfile c = fresh("V11", 240);
    ASSERT_LE(2 * storedBytes(a), SyntheticVideo::kSharedBudgetBytes);
    ASSERT_GT(3 * storedBytes(a), SyntheticVideo::kSharedBudgetBytes);
    const auto build = [](const VideoProfile &p) {
        EXPECT_TRUE(SyntheticVideo(p).sharesContent());
        EXPECT_LE(SyntheticVideo::storeStats().kept_bytes,
                  SyntheticVideo::kSharedBudgetBytes);
    };
    // A and B recur, so both are kept; then A is used again.
    for (const VideoProfile *p : {&a, &b, &a, &b, &a}) {
        build(*p);
    }
    EXPECT_EQ(SyntheticVideo::storeStats().kept_bytes,
              2 * storedBytes(a));
    // C misses, and B, the least recently used, makes room for it:
    // A still hits and B misses.
    const std::uint64_t hits_at[] = {0, 1, 0};
    const VideoProfile *order[] = {&c, &a, &b};
    for (int k = 0; k < 3; ++k) {
        const SyntheticVideo::StoreStats before =
            SyntheticVideo::storeStats();
        build(*order[k]);
        const SyntheticVideo::StoreStats after =
            SyntheticVideo::storeStats();
        EXPECT_EQ(after.hits - before.hits, hits_at[k]) << "request " << k;
        EXPECT_EQ(after.misses - before.misses, 1 - hits_at[k])
            << "request " << k;
    }
}

TEST(VideoContent, ConcurrentBuildersGenerateOnce)
{
    // Two threads construct a video the store has not seen at the
    // same moment: one generates it, the other waits for that build.
    const VideoProfile p = fresh("V12", 200);
    const std::uint64_t want = ringDigest(p);
    const SyntheticVideo::StoreStats before = SyntheticVideo::storeStats();
    std::latch start(2);
    std::uint64_t got[2] = {};
    const auto run = [&](int t) {
        start.arrive_and_wait();
        got[t] = videoDigest(p);
    };
    std::thread t0(run, 0);
    std::thread t1(run, 1);
    t0.join();
    t1.join();
    EXPECT_EQ(got[0], want);
    EXPECT_EQ(got[1], want);
    const SyntheticVideo::StoreStats after = SyntheticVideo::storeStats();
    EXPECT_EQ(after.misses - before.misses, 1U);
    EXPECT_EQ(after.hits - before.hits, 1U);
}

} // namespace
} // namespace vstream
