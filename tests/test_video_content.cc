/**
 * @file
 * Tests for SyntheticVideo's content store: the shared, fully
 * generated planes and the private ring emit the same frames, byte
 * for byte, and both still emit the generator's historical bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
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
    std::vector<std::uint8_t> bytes;
    std::vector<MabOrigin> origins;

    explicit FrameImage(const Frame &f)
        : index(f.index()), type(f.type()), complexity(f.complexity()),
          encoded_bytes(f.encodedBytes())
    {
        for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
            const auto b = f.mabBytes(i);
            bytes.insert(bytes.end(), b.begin(), b.end());
            origins.push_back(f.origin(i));
        }
    }

    bool
    operator==(const FrameImage &o) const
    {
        // Complexity compared bit for bit, not within a tolerance.
        return index == o.index && type == o.type &&
               std::memcmp(&complexity, &o.complexity,
                           sizeof(complexity)) == 0 &&
               encoded_bytes == o.encoded_bytes && bytes == o.bytes &&
               origins == o.origins;
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

/** FNV-1a over every frame's index, type, complexity, encoded size,
 * and each mab's bytes and origin. */
std::uint64_t
videoDigest(const VideoProfile &p)
{
    SyntheticVideo v(p);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    Frame f;
    while (!v.done()) {
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
            const auto o = static_cast<unsigned char>(f.origin(i));
            h = fnv(h, &o, 1);
        }
    }
    return h;
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
        EXPECT_EQ(c.origin(1), a.origin(1));
    }
}

TEST(VideoContent, GeneratorBytesAreUnchanged)
{
    // Digests of the generator as it was before content was shared:
    // the flat planes must reproduce its every byte.
    const std::vector<std::pair<std::string, std::uint64_t>> golden = {
        {"V1", 0x637cb77e3219f3c5ULL},  {"V2", 0x3f9ddb0beea4cc33ULL},
        {"V3", 0x3dc3d47b05e1c1d8ULL},  {"V4", 0x555a7fc43d3bd172ULL},
        {"V5", 0xc7d0aaaf520a5329ULL},  {"V6", 0x701d418d8756f895ULL},
        {"V7", 0x87cbd5ac50d7737fULL},  {"V8", 0x7029abced1f53820ULL},
        {"V9", 0x79d50160549c141aULL},  {"V10", 0x0b48bfd75c90cdf8ULL},
        {"V11", 0x3855e135d2da35adULL}, {"V12", 0xf971e210e42377e5ULL},
        {"V13", 0x8182ef08069eb226ULL}, {"V14", 0x18ade071f7094619ULL},
        {"V15", 0x80c8490722109768ULL}, {"V16", 0x316bf8e8d0baad07ULL},
        {"V8/mab2", 0xafb128252e433717ULL},
        {"V8/mab8", 0x6b8ff48a076c8d36ULL},
        {"V8/static", 0x5d29e53f608a4873ULL},
        {"V8/cuts", 0x8eb36a7b4b17e07dULL},
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
    EXPECT_EQ(videoDigest(p), 0xab862fb2ed8d3597ULL);
}

TEST(VideoContent, BudgetDecidesSharing)
{
    VideoProfile p = small("V3");
    const std::uint64_t fit =
        SyntheticVideo::kSharedBudgetBytes / SyntheticVideo::frameBytes(p);
    p.frame_count = static_cast<std::uint32_t>(fit);
    EXPECT_TRUE(SyntheticVideo(p).sharesContent());
    p.frame_count = static_cast<std::uint32_t>(fit + 1);
    EXPECT_FALSE(SyntheticVideo(p).sharesContent());
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
    // must see its own video's exact frames whichever thread built
    // or evicted the cached entry.  The cache holds b when the first
    // round starts, so both threads miss on a together: one builds,
    // the other waits for that build.
    const VideoProfile a = small("V2");
    const VideoProfile b = small("V9");
    const std::uint64_t want_a = videoDigest(a);
    const std::uint64_t want_b = videoDigest(b);
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
    }
}

} // namespace
} // namespace vstream
