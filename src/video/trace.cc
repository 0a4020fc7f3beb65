#include "video/trace.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>

#include "sim/logging.hh"
#include "video/synthetic_video.hh"

namespace vstream
{

namespace
{

constexpr char kMagic[4] = {'V', 'S', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

/**
 * CRC32 with the raw (pre-complement) state threaded through, so the
 * reader and writer can accumulate across many fields and finalize
 * once for the trailer.
 */
std::uint32_t
crcUpdate(std::uint32_t state, const void *data, std::size_t len)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            }
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        state = table[(state ^ p[i]) & 0xffu] ^ (state >> 8);
    }
    return state;
}

/**
 * Unsigned integer with the same size as T, used as the transport
 * representation: every POD field is bit_cast to its UintFor type and
 * serialized byte-by-byte in little-endian order, so the on-disk
 * format is independent of host endianness and no field is ever read
 * or written through a misaligned or wrongly-typed pointer.
 */
template <std::size_t N> struct UintBySize;
template <> struct UintBySize<1> { using type = std::uint8_t; };
template <> struct UintBySize<2> { using type = std::uint16_t; };
template <> struct UintBySize<4> { using type = std::uint32_t; };
template <> struct UintBySize<8> { using type = std::uint64_t; };

template <typename T>
using UintFor = typename UintBySize<sizeof(T)>::type;

template <typename T>
std::array<std::uint8_t, sizeof(T)>
toLittleEndian(const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const auto u = std::bit_cast<UintFor<T>>(value);
    std::array<std::uint8_t, sizeof(T)> raw{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        raw[i] = static_cast<std::uint8_t>((u >> (8 * i)) & 0xffu);
    }
    return raw;
}

template <typename T>
T
fromLittleEndian(const std::array<std::uint8_t, sizeof(T)> &raw)
{
    static_assert(std::is_trivially_copyable_v<T>);
    UintFor<T> u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        u = static_cast<UintFor<T>>(
            u | (static_cast<UintFor<T>>(raw[i]) << (8 * i)));
    }
    return std::bit_cast<T>(u);
}

/** Write the little-endian bytes of @p value without updating a CRC. */
template <typename T>
void
writeRaw(std::ostream &os, const T &value)
{
    const auto raw = toLittleEndian(value);
    os.write(reinterpret_cast<const char *>(raw.data()),
             static_cast<std::streamsize>(raw.size()));
}

template <typename T>
void
writePod(std::ostream &os, std::uint32_t &crc_state, const T &value)
{
    const auto raw = toLittleEndian(value);
    os.write(reinterpret_cast<const char *>(raw.data()),
             static_cast<std::streamsize>(raw.size()));
    crc_state = crcUpdate(crc_state, raw.data(), raw.size());
}

/**
 * Read one POD field; on a short read @p ok is cleared and the
 * (zero-initialized) value is meaningless.  Recoverability lives
 * here: every caller can turn a truncation into a TraceError instead
 * of a process exit.
 */
template <typename T>
T
readPod(std::istream &is, std::uint32_t &crc_state, bool &ok)
{
    std::array<std::uint8_t, sizeof(T)> raw{};
    is.read(reinterpret_cast<char *>(raw.data()),
            static_cast<std::streamsize>(raw.size()));
    if (!is) {
        ok = false;
        return T{};
    }
    crc_state = crcUpdate(crc_state, raw.data(), raw.size());
    return fromLittleEndian<T>(raw);
}

} // namespace

const char *
traceErrorName(TraceError e)
{
    switch (e) {
      case TraceError::kNone:
        return "none";
      case TraceError::kBadMagic:
        return "bad-magic";
      case TraceError::kBadVersion:
        return "bad-version";
      case TraceError::kBadGeometry:
        return "bad-geometry";
      case TraceError::kTruncatedHeader:
        return "truncated-header";
      case TraceError::kTruncatedFrame:
        return "truncated-frame";
      case TraceError::kCorruptRecord:
        return "corrupt-record";
      case TraceError::kBadCrc:
        return "bad-crc";
    }
    return "?";
}

TraceWriter::TraceWriter(std::ostream &os, const VideoProfile &profile,
                         std::uint32_t frame_count)
    : os_(os), expected_frames_(frame_count), mabs_x_(profile.mabsX()),
      mabs_y_(profile.mabsY()), mab_dim_(profile.mab_dim),
      running_crc_state_(0xffffffffu)
{
    os_.write(kMagic, sizeof(kMagic));
    writePod(os_, running_crc_state_, kVersion);
    writePod(os_, running_crc_state_, frame_count);
    writePod(os_, running_crc_state_, mabs_x_);
    writePod(os_, running_crc_state_, mabs_y_);
    writePod(os_, running_crc_state_, mab_dim_);
    writePod(os_, running_crc_state_, profile.fps);
}

void
TraceWriter::append(const Frame &frame)
{
    vs_assert(!finished_, "append after finish()");
    vs_assert(frames_written_ < expected_frames_,
              "more frames than the header announced");
    vs_assert(frame.mabsX() == mabs_x_ && frame.mabsY() == mabs_y_ &&
                  frame.mabDim() == mab_dim_,
              "frame geometry does not match the trace header");

    writePod(os_, running_crc_state_,
             static_cast<std::uint8_t>(frame.type()));
    writePod(os_, running_crc_state_, frame.complexity());
    writePod(os_, running_crc_state_, frame.encodedBytes());
    const std::span<const std::uint8_t> plane = frame.plane();
    os_.write(reinterpret_cast<const char *>(plane.data()),
              static_cast<std::streamsize>(plane.size()));
    running_crc_state_ =
        crcUpdate(running_crc_state_, plane.data(), plane.size());
    ++frames_written_;
}

void
TraceWriter::finish()
{
    vs_assert(!finished_, "finish() called twice");
    vs_assert(frames_written_ == expected_frames_,
              "header announced ", expected_frames_,
              " frames but only ", frames_written_, " were appended");
    const std::uint32_t digest = ~running_crc_state_;
    writeRaw(os_, digest);
    finished_ = true;
}

TraceReader::TraceReader(std::istream &is)
    : is_(is), running_crc_state_(0xffffffffu)
{
    char magic[4];
    is_.read(magic, sizeof(magic));
    if (!is_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        error_ = TraceError::kBadMagic;
        return;
    }
    bool ok = true;
    const auto version =
        readPod<std::uint32_t>(is_, running_crc_state_, ok);
    if (ok && version != kVersion) {
        error_ = TraceError::kBadVersion;
        return;
    }
    frame_count_ = readPod<std::uint32_t>(is_, running_crc_state_, ok);
    mabs_x_ = readPod<std::uint32_t>(is_, running_crc_state_, ok);
    mabs_y_ = readPod<std::uint32_t>(is_, running_crc_state_, ok);
    mab_dim_ = readPod<std::uint32_t>(is_, running_crc_state_, ok);
    fps_ = readPod<std::uint32_t>(is_, running_crc_state_, ok);
    if (!ok) {
        error_ = TraceError::kTruncatedHeader;
        frame_count_ = 0;
        return;
    }
    // Reject hostile geometry before a single Frame is constructed:
    // Frame allocates mabs_x * mabs_y * dim^2 * 3 bytes eagerly, so
    // an unchecked header is an out-of-memory (or a u32 overflow in
    // mabCount()) waiting to happen.
    if (mabs_x_ == 0 || mabs_y_ == 0 || mab_dim_ == 0 ||
        mabs_x_ > kMaxTraceMabsPerAxis ||
        mabs_y_ > kMaxTraceMabsPerAxis ||
        mab_dim_ > kMaxTraceMabDim ||
        static_cast<std::uint64_t>(mabs_x_) * mabs_y_ >
            kMaxTraceMabsPerFrame) {
        error_ = TraceError::kBadGeometry;
        frame_count_ = 0;
    }
}

std::optional<Frame>
TraceReader::tryNextFrame()
{
    vs_assert(!done(), "trace exhausted");

    bool ok = true;
    const auto type_byte =
        readPod<std::uint8_t>(is_, running_crc_state_, ok);
    const auto complexity =
        readPod<double>(is_, running_crc_state_, ok);
    const auto encoded =
        readPod<std::uint64_t>(is_, running_crc_state_, ok);
    if (!ok) {
        error_ = TraceError::kTruncatedFrame;
        return std::nullopt;
    }
    // Validate every record field before it reaches the simulator:
    // an out-of-range type byte is not a FrameType, a NaN/negative/
    // huge complexity poisons the tick arithmetic it multiplies, and
    // an absurd encoded size overflows bandwidth math downstream.
    if (type_byte > static_cast<std::uint8_t>(FrameType::kB) ||
        !std::isfinite(complexity) || complexity < 0.0 ||
        complexity > kMaxTraceComplexity ||
        encoded > kMaxTraceEncodedBytes) {
        error_ = TraceError::kCorruptRecord;
        return std::nullopt;
    }
    const auto type = static_cast<FrameType>(type_byte);

    Frame frame(frames_read_, type, mabs_x_, mabs_y_, mab_dim_);
    frame.setComplexity(complexity);
    frame.setEncodedBytes(encoded);

    const std::size_t mab_bytes =
        static_cast<std::size_t>(mab_dim_) * mab_dim_ * kBytesPerPixel;
    std::vector<std::uint8_t> buf(mab_bytes);
    for (std::uint32_t i = 0; i < frame.mabCount(); ++i) {
        is_.read(reinterpret_cast<char *>(buf.data()),
                 static_cast<std::streamsize>(buf.size()));
        if (!is_) {
            error_ = TraceError::kTruncatedFrame;
            return std::nullopt;
        }
        running_crc_state_ =
            crcUpdate(running_crc_state_, buf.data(), buf.size());
        frame.setMab(i, buf);
    }
    ++frames_read_;
    return frame;
}

bool
TraceReader::verifyTrailer()
{
    vs_assert(done(), "trailer read before the last frame");
    std::array<std::uint8_t, sizeof(std::uint32_t)> raw{};
    is_.read(reinterpret_cast<char *>(raw.data()),
             static_cast<std::streamsize>(raw.size()));
    if (!is_) {
        error_ = TraceError::kBadCrc;
        return false;
    }
    if (fromLittleEndian<std::uint32_t>(raw) != ~running_crc_state_) {
        error_ = TraceError::kBadCrc;
        return false;
    }
    return true;
}

void
writeTrace(std::ostream &os, const VideoProfile &profile)
{
    SyntheticVideo video(profile);
    TraceWriter writer(os, profile, profile.frame_count);
    while (!video.done()) {
        writer.append(video.nextFrame());
    }
    writer.finish();
}

TraceLoadResult
loadTrace(std::istream &is)
{
    TraceReader reader(is);
    TraceLoadResult result;
    result.frames_expected = reader.frameCount();
    if (reader.error() != TraceError::kNone) {
        result.error = reader.error();
        return result;
    }

    // The header's frame count is untrusted: reserve only a bounded
    // amount up front and let push_back grow past it, so a header
    // announcing four billion frames cannot demand the allocation
    // before the (truncated) stream refutes it.
    constexpr std::uint32_t kReserveCap = 4096;
    result.frames.reserve(std::min(reader.frameCount(), kReserveCap));
    while (!reader.done()) {
        std::optional<Frame> frame = reader.tryNextFrame();
        if (!frame.has_value()) {
            result.error = reader.error();
            result.frames.clear();
            return result;
        }
        result.frames.push_back(*std::move(frame));
    }

    if (!reader.verifyTrailer()) {
        result.error = reader.error();
        result.frames.clear();
    }
    return result;
}

} // namespace vstream
