/**
 * @file
 * Tests for the pipeline's frame-preparation stage (core/frame_prep.hh):
 * a streamed video's helper thread prepares and decides the same bytes
 * as inline preparation, a frame viewing the ring reads its bytes for
 * as long as it is held, streamed pipelines keep their pinned results,
 * a playback that decides ahead reports what one stepped by a
 * scheduler reports at any finish point, every way a pipeline can end
 * joins the helper, and scheduled sessions start none.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/frame_prep.hh"
#include "core/video_pipeline.hh"
#include "serve/session.hh"
#include "video/trace.hh"
#include "video/workloads.hh"

namespace vstream
{
namespace
{

/** @p p stretched past the shared budget, so it streams. */
VideoProfile
overBudget(VideoProfile p)
{
    p.frame_count = static_cast<std::uint32_t>(
        SyntheticVideo::kSharedBudgetBytes / SyntheticVideo::frameBytes(p) +
        1);
    return p;
}

/** Frames compared per case: the 18th reuses the first ring plane. */
constexpr std::uint64_t kComparedFrames = 18;

/** Every mab's bytes back to back. */
std::vector<std::uint8_t>
flat(const Frame &f)
{
    std::vector<std::uint8_t> out;
    for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
        const auto b = f.mabBytes(i);
        out.insert(out.end(), b.begin(), b.end());
    }
    return out;
}

/** A MACH array and the plan that decides frames against it. */
struct Decider
{
    explicit Decider(const MachConfig &cfg, bool dcc = false)
        : machs(cfg), plan{&machs, LayoutKind::kPointerDigest, dcc}
    {
    }

    MachArray machs;
    MachPlan plan;
};

/** Expect @p got (from the helper) to equal @p want (inline), byte
 * for byte: frame, checksum, MACH representation, outcomes and
 * dump. */
void
expectSamePrepared(const PreparedFrame &got, const PreparedFrame &want,
                   const std::string &what)
{
    const Frame &g = got.frame;
    const Frame &w = want.frame;
    ASSERT_EQ(g.index(), w.index()) << what;
    ASSERT_EQ(g.type(), w.type()) << what;
    const double gc = g.complexity();
    const double wc = w.complexity();
    ASSERT_EQ(std::memcmp(&gc, &wc, sizeof(double)), 0) << what;
    ASSERT_EQ(g.encodedBytes(), w.encodedBytes()) << what;
    ASSERT_EQ(g.mabCount(), w.mabCount()) << what;
    ASSERT_TRUE(flat(g) == flat(w)) << what << " frame " << g.index();
    ASSERT_EQ(g.contentChecksum(), w.contentChecksum()) << what;

    ASSERT_EQ(got.mach.frame_index, g.index()) << what;
    ASSERT_EQ(got.mach.frame_index, want.mach.frame_index) << what;
    ASSERT_EQ(got.mach.block_bytes, want.mach.block_bytes) << what;
    ASSERT_EQ(got.mach.gabs, want.mach.gabs) << what;
    ASSERT_EQ(got.mach.digests, want.mach.digests) << what;
    ASSERT_EQ(got.mach.auxes, want.mach.auxes) << what;
    ASSERT_TRUE(got.mach.outcomes == want.mach.outcomes)
        << what << " frame " << g.index();
    ASSERT_EQ(got.mach.dump, want.mach.dump) << what;
}

TEST(FramePrep, HelperEqualsInlinePreparation)
{
    const HashKind hashes[] = {HashKind::kCrc32, HashKind::kMd5,
                               HashKind::kSha1};
    for (const VideoProfile &t : workloadTable()) {
        for (const std::uint32_t dim : {2U, 4U, 8U}) {
            VideoProfile p = scaledWorkload(t.key, 40, 48, 24);
            p.mab_dim = dim;
            p = overBudget(p);
            for (const bool co_mach : {false, true}) {
                for (const HashKind hash : hashes) {
                    // CO-MACH cases also size unique blocks under
                    // DCC; the wider hashes verify every hit.
                    MachConfig cfg;
                    cfg.use_gradient = true;
                    cfg.co_mach = co_mach;
                    cfg.hash = hash;
                    cfg.verify_on_hit = hash != HashKind::kCrc32;
                    const std::string what =
                        t.key + "/mab" + std::to_string(dim) +
                        (co_mach ? "/co" : "") + "/" + hashKindName(hash);

                    Decider ahead(cfg, co_mach);
                    Decider here(cfg, co_mach);
                    FramePrep prep(p, &ahead.plan, true);
                    ASSERT_TRUE(prep.threaded()) << what;
                    SyntheticVideo video(p);
                    PreparedFrame want;
                    for (std::uint64_t i = 0; i < kComparedFrames; ++i) {
                        prepareFrame(video, &here.plan, want);
                        const PreparedFrame &got = prep.take(i);
                        expectSamePrepared(got, want, what);
                        prep.release(i);
                    }
                    // The carried checksum is the CRC32 a frame
                    // recomputes from its plane once a mab is written.
                    Frame copy = want.frame;
                    copy.setMab(0, want.frame.mabBytes(0));
                    ASSERT_EQ(copy.contentChecksum(),
                              want.frame.contentChecksum())
                        << what;
                    // Destroyed mid-stream: the helper is joined.
                }
            }
        }
    }
}

TEST(FramePrep, RawBlocksAndNoMach)
{
    // Without the gab transform the representation holds digests of
    // the mabs themselves; without a MACH nothing but the frame.
    const VideoProfile p = overBudget(scaledWorkload("V3", 40, 128, 72));
    MachConfig raw;
    raw.co_mach = true;
    Decider ahead(raw);
    Decider here(raw);
    FramePrep with_mach(p, &ahead.plan, true);
    FramePrep no_mach(p, nullptr, true);
    SyntheticVideo video(p);
    PreparedFrame want;
    for (std::uint64_t i = 0; i < kComparedFrames; ++i) {
        prepareFrame(video, &here.plan, want);
        EXPECT_TRUE(want.mach.gabs.empty());
        expectSamePrepared(with_mach.take(i), want, "raw");
        with_mach.release(i);
        const PreparedFrame &bare = no_mach.take(i);
        EXPECT_EQ(bare.frame.contentChecksum(), want.frame.contentChecksum());
        EXPECT_EQ(bare.mach.frame_index, MachRepr::kNoFrame);
        no_mach.release(i);
    }
}

TEST(FramePrep, NotAheadPreparesInline)
{
    // A streamed video prepared without the helper (a scheduled
    // session's pipeline) yields the same frames on the caller.
    const VideoProfile p = overBudget(scaledWorkload("V8", 40, 40, 48));
    MachConfig cfg;
    cfg.use_gradient = true;
    cfg.co_mach = true;
    Decider ahead(cfg);
    Decider here(cfg);
    FramePrep prep(p, &ahead.plan, false);
    EXPECT_FALSE(prep.threaded());
    SyntheticVideo video(p);
    PreparedFrame want;
    for (std::uint64_t i = 0; i < kComparedFrames; ++i) {
        prepareFrame(video, &here.plan, want);
        expectSamePrepared(prep.take(i), want, "not ahead");
        prep.release(i);
    }
}

TEST(FramePrep, SharedContentPreparesInline)
{
    const VideoProfile p = scaledWorkload("V5", 24, 128, 72);
    MachConfig cfg;
    cfg.use_gradient = true;
    Decider ahead(cfg);
    Decider here(cfg);
    FramePrep prep(p, &ahead.plan, true);
    EXPECT_FALSE(prep.threaded());
    SyntheticVideo video(p);
    PreparedFrame want;
    for (std::uint64_t i = 0; i < p.frame_count; ++i) {
        prepareFrame(video, &here.plan, want);
        expectSamePrepared(prep.take(i), want, "shared");
        prep.release(i);
    }
}

TEST(FramePrep, StreamedViewsOutliveTheNextTwoDraws)
{
    // A prepared frame views its ring plane: it must read the bytes
    // and CRC of nextFrame()'s copy for as long as it is held.  The
    // helper holds two frames handed over and draws the one after
    // them, so with inter_window 1 (a copy window of two planes) the
    // ring still needs a third.
    for (const std::uint32_t window : {1U, 2U, 16U}) {
        VideoProfile p = scaledWorkload("V8", 40, 48, 24);
        p.inter_window = window;
        p = overBudget(p);
        SyntheticVideo video(p);
        std::vector<std::vector<std::uint8_t>> want;
        std::vector<std::uint32_t> crcs;
        for (std::uint64_t i = 0; i <= kComparedFrames; ++i) {
            const Frame f = video.nextFrame();
            want.push_back(flat(f));
            crcs.push_back(f.contentChecksum());
        }
        for (const bool ahead : {true, false}) {
            const std::string what = "window " + std::to_string(window) +
                                     (ahead ? " threaded" : " inline");
            FramePrep prep(p, nullptr, ahead);
            ASSERT_EQ(prep.threaded(), ahead) << what;
            const PreparedFrame *held = &prep.take(0);
            for (std::uint64_t i = 0; i < kComparedFrames; ++i) {
                const PreparedFrame *next = nullptr;
                if (ahead) {
                    // Hold frame i while the helper hands over i + 1
                    // and draws i + 2.
                    next = &prep.take(i + 1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
                const Frame &f = held->frame;
                ASSERT_EQ(f.index(), i) << what;
                ASSERT_TRUE(flat(f) == want[i]) << what << " frame " << i;
                ASSERT_EQ(f.contentChecksum(), crcs[i]) << what;
                prep.release(i);
                held = ahead ? next : &prep.take(i + 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Streamed pipelines keep their results
// ---------------------------------------------------------------------

/** V8 at 512x288 over 40 frames: 18 MB of planes, so it streams. */
VideoProfile
streamedV8()
{
    return scaledWorkload("V8", 40, 512, 288);
}

std::uint64_t
fnv(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** FNV-1a of the stats JSON and the headline result fields of one
 * streamed playback under @p scheme. */
std::uint64_t
streamedDigest(Scheme scheme)
{
    PipelineConfig cfg;
    cfg.profile = streamedV8();
    cfg.scheme = SchemeConfig::make(scheme);
    std::ostringstream json;
    cfg.stats_json = &json;
    VideoPipeline vp(std::move(cfg));
    const PipelineResult r = vp.run();
    EXPECT_TRUE(r.all_verified);
    std::ostringstream res;
    res.precision(17);
    res << r.frames << ' ' << r.drops << ' ' << r.span << ' '
        << r.totalEnergy() << ' ' << r.writeback.totalBytes() << ' '
        << r.writeback.unique_blocks << ' ' << r.writeback.intra_matches
        << ' ' << r.writeback.inter_matches << ' ' << r.mach.lookups << ' '
        << r.mach.hits() << ' ' << r.dram_total.bytes_read << ' '
        << r.dram_total.bytes_written << ' ' << r.display_cache_hits << ' '
        << r.mach_buffer_hits;
    return fnv(json.str()) ^ (fnv(res.str()) * 31);
}

TEST(FramePrep, StreamedPipelinesArePinned)
{
    ASSERT_FALSE(SyntheticVideo(streamedV8()).sharesContent());
    // Digests of the pipeline before the preparation stage existed,
    // with the two always-zero cache writeback stats since removed
    // from its stats JSON.
    EXPECT_EQ(streamedDigest(Scheme::kGab), 0xb0c845d3d146847eULL);
    EXPECT_EQ(streamedDigest(Scheme::kBaseline), 0x9794d828060aa6ddULL);
}

// ---------------------------------------------------------------------
// Deciding ahead reports what deciding inline reports
// ---------------------------------------------------------------------

/** The stats JSON and every counter of one playback's result. */
std::string
resultText(const PipelineResult &r, const std::string &json)
{
    std::ostringstream os;
    os.precision(17);
    os << json << '\n'
       << r.frames << ' ' << r.drops << ' ' << r.span << ' '
       << r.totalEnergy() << ' ' << r.all_verified << '\n';
    const WritebackTotals &w = r.writeback;
    os << w.mabs << ' ' << w.unique_blocks << ' ' << w.intra_matches << ' '
       << w.inter_matches << ' ' << w.data_bytes << ' ' << w.meta_bytes
       << ' ' << w.dump_bytes << ' ' << w.dram_write_requests << ' '
       << w.dcc_saved_bytes << '\n';
    const MachStats &m = r.mach;
    os << m.lookups << ' ' << m.intra_hits << ' ' << m.inter_hits << ' '
       << m.misses << ' ' << m.collisions_detected << ' '
       << m.collisions_undetected << ' ' << m.inserts << ' '
       << m.injected_collisions << ' ' << m.false_hits << ' '
       << m.bypassed_lookups << ' ' << r.co_mach_inserts << '\n';
    for (const double share : r.top_match_shares) {
        os << share << ' ';
    }
    os << '\n'
       << r.dram_total.bytes_read << ' ' << r.dram_total.bytes_written
       << ' ' << r.dram_total.activations << ' ' << r.display_cache_hits
       << ' ' << r.display_cache_misses << ' ' << r.mach_buffer_hits << ' '
       << r.mach_buffer_misses << ' ' << r.vd_cache_miss_rate << '\n';
    for (const FrameStateRecord &f : r.frame_records) {
        os << f.start << ' ' << f.finish << ' ' << f.dropped << '\n';
    }
    return os.str();
}

/** Play @p cfg under @p driver, finishing after @p vsyncs vsyncs (0:
 * the whole playback, as run() plays it); return its resultText(). */
std::string
playText(PipelineConfig cfg, VideoPipeline::Driver driver,
         std::uint32_t vsyncs)
{
    std::ostringstream json;
    cfg.stats_json = &json;
    const bool streamed = !SyntheticVideo(cfg.profile).sharesContent();
    VideoPipeline vp(std::move(cfg));
    vp.start(driver);
    EXPECT_EQ(vp.preparesAhead(),
              streamed && driver == VideoPipeline::Driver::kOwn);
    for (std::uint32_t v = 0; !vp.stepDone() && (vsyncs == 0 || v < vsyncs);
         ++v) {
        vp.stepVsync();
    }
    const PipelineResult r = vp.finish();
    return resultText(r, json.str());
}

TEST(FramePrep, DecidingAheadMatchesSteppedAtEveryEnding)
{
    struct Case
    {
        const char *name;
        Scheme scheme;
        bool co_mach;
        bool dcc;
        bool verify;
    };
    const Case cases[] = {
        {"M", Scheme::kMab, false, false, false},
        {"G", Scheme::kGab, false, false, false},
        {"G+co", Scheme::kGab, true, false, false},
        {"G+dcc", Scheme::kGab, false, true, false},
        {"G+verify", Scheme::kGab, false, false, true},
    };
    const VideoProfile sizes[] = {streamedV8(),
                                  scaledWorkload("V8", 40, 256, 144)};
    for (const VideoProfile &profile : sizes) {
        const bool streamed = !SyntheticVideo(profile).sharesContent();
        for (const Case &c : cases) {
            PipelineConfig cfg;
            cfg.profile = profile;
            cfg.scheme = SchemeConfig::make(c.scheme);
            cfg.scheme.co_mach = c.co_mach;
            cfg.scheme.dcc = c.dcc;
            cfg.mach.verify_on_hit = c.verify;
            for (const std::uint32_t vsyncs : {0U, 1U, 7U, 20U}) {
                const std::string what =
                    std::string(c.name) + (streamed ? "/streamed" : "/shared") +
                    " after " + std::to_string(vsyncs) + " vsyncs";
                const std::string own =
                    playText(cfg, VideoPipeline::Driver::kOwn, vsyncs);
                const std::string stepped =
                    playText(cfg, VideoPipeline::Driver::kScheduler, vsyncs);
                EXPECT_EQ(own, stepped) << what;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lifecycle: every ending joins the helper; sessions start none
// ---------------------------------------------------------------------

/** A streamed 256x144 playback of @p frames frames. */
PipelineConfig
streamedConfig(std::uint32_t frames = 160)
{
    PipelineConfig cfg;
    cfg.profile = scaledWorkload("V2", frames, 256, 144);
    cfg.scheme = SchemeConfig::make(Scheme::kGab);
    return cfg;
}

TEST(FramePrep, PipelineLifecycleJoinsHelper)
{
    ASSERT_FALSE(SyntheticVideo(streamedConfig().profile).sharesContent());
    {
        VideoPipeline never_started(streamedConfig());
    }
    for (const std::uint32_t vsyncs : {0U, 1U, 37U}) {
        VideoPipeline vp(streamedConfig());
        vp.start();
        ASSERT_TRUE(vp.preparesAhead());
        for (std::uint32_t v = 0; v < vsyncs; ++v) {
            vp.stepVsync();
        }
        // Destroyed mid-playback, with the helper possibly ahead.
    }
    {
        VideoPipeline vp(streamedConfig());
        vp.start();
        for (int v = 0; v < 20; ++v) {
            vp.stepVsync();
        }
        // finish() before the end: the early-termination path.
        const PipelineResult r = vp.finish();
        EXPECT_EQ(r.frames, 160U);
    }
    {
        VideoPipeline vp(streamedConfig());
        const PipelineResult r = vp.run();
        EXPECT_TRUE(r.all_verified);
    }
}

/** Threads of this process, or 0 where /proc does not list them. */
std::size_t
threadCount()
{
    std::error_code ec;
    std::size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec)) {
        ++n;
    }
    return ec ? 0 : n;
}

TEST(FramePrep, ScheduledSessionsPrepareInline)
{
    // A serving scheduler steps many sessions on its own workers, so
    // a streamed session's pipeline starts no helper thread.
    {
        VideoPipeline vp(streamedConfig());
        vp.start(VideoPipeline::Driver::kScheduler);
        EXPECT_FALSE(vp.preparesAhead());
        vp.stepVsync();
    }
    SessionConfig cfg;
    cfg.pipeline = streamedConfig();
    ASSERT_FALSE(SyntheticVideo(cfg.pipeline.profile).sharesContent());
    Session s(cfg);
    const std::size_t before = threadCount();
    s.start();
    s.stepVsync();
    if (before == 0) {
        GTEST_SKIP() << "no /proc/self/task to count threads in";
    }
    EXPECT_EQ(threadCount(), before);
}

TEST(FramePrep, SessionEndingsFinishCleanly)
{
    SessionConfig leave;
    leave.pipeline = streamedConfig();
    leave.leave_after = leave.pipeline.profile.framePeriodTicks() * 30;
    const RehearsedSession left = rehearseSession(leave);
    EXPECT_TRUE(left.outcome.left_early);

    // A damaged ingest trace quarantines at start; one window later
    // the session is evicted.
    std::ostringstream os(std::ios::binary);
    writeTrace(os, scaledWorkload("V2", 4, 64, 32));
    std::string blob = os.str();
    blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0xff);
    SessionConfig evict;
    evict.pipeline = streamedConfig();
    evict.trace_blob.assign(blob.begin(), blob.end());
    evict.health.evict_windows = 1;
    const RehearsedSession evicted = rehearseSession(evict);
    EXPECT_EQ(evicted.outcome.final_state, HealthState::kEvicted);
    EXPECT_LT(evicted.outcome.end_tick,
              evict.pipeline.profile.framePeriodTicks() * 150);
}

} // namespace
} // namespace vstream
