/**
 * @file
 * Tests for video-trace serialization: byte-exact round trips,
 * integrity checking, and corruption detection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "video/synthetic_video.hh"
#include "video/trace.hh"

namespace vstream
{
namespace
{

VideoProfile
traceProfile(std::uint32_t frames = 6)
{
    VideoProfile p;
    p.key = "TR";
    p.width = 64;
    p.height = 32;
    p.frame_count = frames;
    p.seed = 2718;
    return p;
}

TEST(Trace, RoundTripIsByteExact)
{
    const VideoProfile p = traceProfile();
    std::stringstream buf;
    writeTrace(buf, p);

    SyntheticVideo original(p);
    const std::vector<Frame> loaded = loadTrace(buf).frames;
    ASSERT_EQ(loaded.size(), p.frame_count);

    for (const Frame &got : loaded) {
        const Frame want = original.nextFrame();
        EXPECT_EQ(got.contentChecksum(), want.contentChecksum());
        EXPECT_EQ(got.type(), want.type());
        EXPECT_DOUBLE_EQ(got.complexity(), want.complexity());
        EXPECT_EQ(got.encodedBytes(), want.encodedBytes());
        EXPECT_EQ(got.mabCount(), want.mabCount());
        // The loaded frame owns one plane equal to the generator's,
        // so every mab is byte-exact.
        EXPECT_FALSE(got.viewsShared());
        ASSERT_TRUE(std::equal(got.plane().begin(), got.plane().end(),
                               want.plane().begin(), want.plane().end()));
    }
}

TEST(Trace, HeaderMetadataPreserved)
{
    const VideoProfile p = traceProfile(3);
    std::stringstream buf;
    writeTrace(buf, p);

    TraceReader reader(buf);
    EXPECT_EQ(reader.frameCount(), 3u);
    EXPECT_EQ(reader.mabsX(), p.mabsX());
    EXPECT_EQ(reader.mabsY(), p.mabsY());
    EXPECT_EQ(reader.mabDim(), p.mab_dim);
    EXPECT_EQ(reader.fps(), p.fps);
    EXPECT_FALSE(reader.done());
}

TEST(Trace, IncrementalReaderMatchesBulk)
{
    const VideoProfile p = traceProfile(4);
    std::stringstream a, b;
    writeTrace(a, p);
    writeTrace(b, p);

    TraceReader reader(a);
    const std::vector<Frame> bulk = loadTrace(b).frames;
    std::size_t i = 0;
    while (!reader.done()) {
        const std::optional<Frame> f = reader.tryNextFrame();
        ASSERT_TRUE(f.has_value());
        ASSERT_LT(i, bulk.size());
        EXPECT_EQ(f->contentChecksum(), bulk[i].contentChecksum());
        ++i;
    }
    EXPECT_TRUE(reader.verifyTrailer());
}

TEST(Trace, CorruptionDetectedByTrailer)
{
    const VideoProfile p = traceProfile(2);
    std::stringstream buf;
    writeTrace(buf, p);
    std::string bytes = buf.str();
    // Flip a pixel byte somewhere in the middle of the payload.
    bytes[bytes.size() / 2] ^= 0x40;

    std::stringstream corrupt(bytes);
    TraceReader reader(corrupt);
    while (!reader.done()) {
        ASSERT_TRUE(reader.tryNextFrame().has_value());
    }
    EXPECT_FALSE(reader.verifyTrailer());
}

TEST(Trace, BadMagicIsRecoverable)
{
    // The reader no longer aborts on junk input: it records the
    // error and reads as exhausted, so callers choose the policy.
    std::stringstream junk("not a trace at all, sorry");
    TraceReader reader(junk);
    EXPECT_EQ(reader.error(), TraceError::kBadMagic);
    EXPECT_TRUE(reader.done());
    EXPECT_EQ(reader.frameCount(), 0u);
}

TEST(Trace, LoadTraceCleanStream)
{
    const VideoProfile p = traceProfile(3);
    std::stringstream buf;
    writeTrace(buf, p);

    const TraceLoadResult r = loadTrace(buf);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.error, TraceError::kNone);
    EXPECT_EQ(r.frames_expected, 3u);
    EXPECT_EQ(r.frames.size(), 3u);
}

TEST(Trace, LoadTraceBadMagic)
{
    std::stringstream junk("garbage bytes, not a trace");
    const TraceLoadResult r = loadTrace(junk);
    EXPECT_EQ(r.error, TraceError::kBadMagic);
    EXPECT_TRUE(r.frames.empty());
    EXPECT_STREQ(traceErrorName(r.error), "bad-magic");
}

TEST(Trace, LoadTraceTruncatedFailClean)
{
    const VideoProfile p = traceProfile(4);
    std::stringstream buf;
    writeTrace(buf, p);
    const std::string bytes = buf.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));

    const TraceLoadResult r = loadTrace(truncated);
    EXPECT_EQ(r.error, TraceError::kTruncatedFrame);
    EXPECT_TRUE(r.frames.empty());
}

TEST(Trace, LoadTraceBadCrcFailClean)
{
    const VideoProfile p = traceProfile(2);
    std::stringstream buf;
    writeTrace(buf, p);
    std::string bytes = buf.str();
    bytes[bytes.size() / 2] ^= 0x40; // flip a payload bit

    std::stringstream corrupt(bytes);
    const TraceLoadResult r = loadTrace(corrupt);
    EXPECT_EQ(r.error, TraceError::kBadCrc);
    EXPECT_TRUE(r.frames.empty());
}

TEST(TraceDeath, GeometryMismatchOnAppend)
{
    const VideoProfile p = traceProfile(1);
    std::stringstream buf;
    TraceWriter writer(buf, p, 1);
    Frame wrong(0, FrameType::kI, 2, 2, 4); // not p's geometry
    EXPECT_DEATH(writer.append(wrong), "geometry");
}

TEST(TraceDeath, FinishRequiresAllFrames)
{
    const VideoProfile p = traceProfile(2);
    std::stringstream buf;
    TraceWriter writer(buf, p, 2);
    SyntheticVideo video(p);
    writer.append(video.nextFrame());
    EXPECT_DEATH(writer.finish(), "announced");
}

TEST(Trace, OddSizedRecordsRoundTrip)
{
    // mab_dim=5 makes each macroblock record 75 bytes, so every
    // multi-byte field after the first frame sits at an odd stream
    // offset: a regression test for the memcpy/shift-based POD
    // serialization (the old reinterpret_cast form read u64/double
    // fields through misaligned pointers under ASan/UBSan).
    VideoProfile p;
    p.key = "OD";
    p.width = 35;
    p.height = 15;
    p.mab_dim = 5;
    p.frame_count = 5;
    p.seed = 97;
    ASSERT_EQ(p.mabsX(), 7u);
    ASSERT_EQ(p.mabsY(), 3u);

    std::stringstream buf;
    writeTrace(buf, p);

    TraceReader reader(buf);
    EXPECT_EQ(reader.mabDim(), 5u);
    EXPECT_EQ(reader.frameCount(), 5u);

    SyntheticVideo original(p);
    std::uint32_t frames = 0;
    while (!reader.done()) {
        const std::optional<Frame> got = reader.tryNextFrame();
        ASSERT_TRUE(got.has_value());
        const Frame want = original.nextFrame();
        EXPECT_EQ(got->contentChecksum(), want.contentChecksum());
        EXPECT_DOUBLE_EQ(got->complexity(), want.complexity());
        EXPECT_EQ(got->encodedBytes(), want.encodedBytes());
        ++frames;
    }
    EXPECT_EQ(frames, 5u);
    EXPECT_TRUE(reader.verifyTrailer());
}

TEST(Trace, OnDiskFormatIsLittleEndianStable)
{
    // Pin the serialized header layout: u32 fields are written
    // little-endian regardless of host endianness, so traces are
    // portable and this byte pattern must never change silently.
    const VideoProfile p = traceProfile(2);
    std::stringstream buf;
    writeTrace(buf, p);
    const std::string bytes = buf.str();
    ASSERT_GE(bytes.size(), 28u);

    EXPECT_EQ(bytes.substr(0, 4), "VSTR");
    const auto u8 = [&](std::size_t i) {
        return static_cast<unsigned char>(bytes[i]);
    };
    const auto u32at = [&](std::size_t off) {
        return static_cast<std::uint32_t>(u8(off)) |
               (static_cast<std::uint32_t>(u8(off + 1)) << 8) |
               (static_cast<std::uint32_t>(u8(off + 2)) << 16) |
               (static_cast<std::uint32_t>(u8(off + 3)) << 24);
    };
    EXPECT_EQ(u32at(4), 1u);             // version
    EXPECT_EQ(u32at(8), p.frame_count);  // frame count
    EXPECT_EQ(u32at(12), p.mabsX());
    EXPECT_EQ(u32at(16), p.mabsY());
    EXPECT_EQ(u32at(20), p.mab_dim);
    EXPECT_EQ(u32at(24), p.fps);
}

// ---- hostile inputs --------------------------------------------------
//
// The loader consumes untrusted bytes (and is fuzzed as such, see
// fuzz/fuzz_trace_loader.cc); these tests pin the specific defenses:
// geometry caps checked before any frame allocation, bounded reserve
// for the announced frame count, and per-record field validation.

namespace hostile
{

void
putU32(std::string &s, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }
}

/** A trace header with arbitrary (possibly absurd) geometry. */
std::string
header(std::uint32_t frames, std::uint32_t mabs_x, std::uint32_t mabs_y,
       std::uint32_t mab_dim, std::uint32_t fps = 60)
{
    std::string s = "VSTR";
    putU32(s, 1); // version
    putU32(s, frames);
    putU32(s, mabs_x);
    putU32(s, mabs_y);
    putU32(s, mab_dim);
    putU32(s, fps);
    return s;
}

} // namespace hostile

TEST(Trace, HugeGeometryRejectedBeforeAllocation)
{
    // 2^32-1 x 2^32-1 macroblocks: the unchecked loader would
    // overflow mabCount() and then try to allocate the frame.  Must
    // come back kBadGeometry without touching a Frame.
    std::stringstream buf(
        hostile::header(1, 0xffffffffu, 0xffffffffu, 16));
    TraceLoadResult r = loadTrace(buf);
    EXPECT_EQ(r.error, TraceError::kBadGeometry);
    EXPECT_TRUE(r.frames.empty());
}

TEST(Trace, GeometryCapsEnforcedPerAxisAndPerFrame)
{
    {
        // One axis past the cap.
        std::stringstream buf(hostile::header(1, 4097, 1, 4));
        EXPECT_EQ(loadTrace(buf).error, TraceError::kBadGeometry);
    }
    {
        // Axes individually fine, product past the per-frame cap.
        std::stringstream buf(hostile::header(1, 2048, 2048, 4));
        EXPECT_EQ(loadTrace(buf).error, TraceError::kBadGeometry);
    }
    {
        // Macroblock dimension past its cap.
        std::stringstream buf(hostile::header(1, 2, 2, 129));
        EXPECT_EQ(loadTrace(buf).error, TraceError::kBadGeometry);
    }
    {
        // Zero stays rejected as before.
        std::stringstream buf(hostile::header(1, 0, 2, 4));
        EXPECT_EQ(loadTrace(buf).error, TraceError::kBadGeometry);
    }
}

TEST(Trace, HugeFrameCountDoesNotPreallocate)
{
    // Four billion announced frames backed by zero bytes of payload:
    // the loader must fail on truncation promptly instead of
    // reserving 2^32 Frame objects up front.
    std::stringstream buf(hostile::header(0xffffffffu, 2, 2, 4));
    TraceLoadResult r = loadTrace(buf);
    EXPECT_EQ(r.error, TraceError::kTruncatedFrame);
    EXPECT_EQ(r.frames_expected, 0xffffffffu);
    EXPECT_TRUE(r.frames.empty());
}

TEST(Trace, InvalidFrameTypeByteIsCorruptRecord)
{
    const VideoProfile p = traceProfile(1);
    std::stringstream good;
    writeTrace(good, p);
    std::string bytes = good.str();
    // Frame record starts right after the 28-byte header; first
    // byte is the FrameType.
    bytes[28] = '\x7f';
    std::stringstream buf(bytes);
    TraceLoadResult r = loadTrace(buf);
    EXPECT_EQ(r.error, TraceError::kCorruptRecord);
    EXPECT_TRUE(r.frames.empty());
}

TEST(Trace, NonFiniteComplexityIsCorruptRecord)
{
    const VideoProfile p = traceProfile(1);
    std::stringstream good;
    writeTrace(good, p);
    std::string bytes = good.str();
    // The f64 complexity sits at bytes 29..36; overwrite with the
    // little-endian quiet NaN 0x7ff8000000000000.
    const unsigned char nan_le[8] = {0, 0, 0, 0, 0, 0, 0xf8, 0x7f};
    for (int i = 0; i < 8; ++i) {
        bytes[29 + i] = static_cast<char>(nan_le[i]);
    }
    std::stringstream buf(bytes);
    TraceLoadResult r = loadTrace(buf);
    EXPECT_EQ(r.error, TraceError::kCorruptRecord);
    EXPECT_TRUE(r.frames.empty());
}

TEST(Trace, AbsurdEncodedBytesIsCorruptRecord)
{
    const VideoProfile p = traceProfile(1);
    std::stringstream good;
    writeTrace(good, p);
    std::string bytes = good.str();
    // The u64 encoded size sits at bytes 37..44.
    for (int i = 0; i < 8; ++i) {
        bytes[37 + i] = '\xff';
    }
    std::stringstream buf(bytes);
    TraceLoadResult r = loadTrace(buf);
    EXPECT_EQ(r.error, TraceError::kCorruptRecord);
    EXPECT_TRUE(r.frames.empty());
}

TEST(Trace, LargeFrameCountStreamsWithoutBloat)
{
    // 20 frames of 64x32: the trace should be close to the raw pixel
    // payload (plus small per-frame headers).
    VideoProfile p = traceProfile(20);
    std::stringstream buf;
    writeTrace(buf, p);
    const std::size_t payload =
        static_cast<std::size_t>(p.frame_count) *
        p.decodedFrameBytes();
    EXPECT_LT(buf.str().size(), payload + 1024);
    EXPECT_GT(buf.str().size(), payload);
}

} // namespace
} // namespace vstream
