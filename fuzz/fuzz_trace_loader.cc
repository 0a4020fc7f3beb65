/**
 * @file
 * Fuzz harness for the trace loader (the binary-format parser).
 *
 * Traces arrive from outside the process, so loadTrace() and
 * TraceReader must survive arbitrary bytes: no crash, no sanitizer
 * report, no absurd allocation (the geometry caps in trace.hh bound
 * every Frame the loader may construct), and a result that is
 * internally consistent: all announced frames, or none.
 *
 * Built with -fsanitize=fuzzer under Clang; under GCC the fallback
 * driver in fuzz_driver_main.cc replays and mutates the checked-in
 * corpus (fuzz/corpus/trace_loader) instead.
 */

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "fuzz_common.hh"
#include "video/trace.hh"

namespace
{

/** Loader invariants that must hold for *any* input bytes. */
void
checkResult(const vstream::TraceLoadResult &result)
{
    if (result.ok()) {
        // A clean load keeps every announced frame.
        FUZZ_ASSERT(result.frames.size() == result.frames_expected);
    } else {
        // Damage discards everything.
        FUZZ_ASSERT(result.frames.empty());
    }

    // Every surviving frame obeys the documented geometry caps, so
    // the per-frame allocation downstream code performs is bounded.
    for (const vstream::Frame &frame : result.frames) {
        const auto mabs = static_cast<std::uint64_t>(frame.mabsX()) *
                          frame.mabsY();
        FUZZ_ASSERT(frame.mabsX() <= vstream::kMaxTraceMabsPerAxis);
        FUZZ_ASSERT(frame.mabsY() <= vstream::kMaxTraceMabsPerAxis);
        FUZZ_ASSERT(mabs <= vstream::kMaxTraceMabsPerFrame);
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::string bytes(reinterpret_cast<const char *>(data),
                            size);

    {
        std::istringstream is(bytes);
        checkResult(vstream::loadTrace(is));
    }

    // Drive the incremental reader too: tryNextFrame() must make
    // progress (or flag an error) on every call, and the trailer
    // check must be callable no matter where the stream died.
    {
        std::istringstream is(bytes);
        vstream::TraceReader reader(is);
        std::uint32_t frames = 0;
        while (!reader.done()) {
            if (!reader.tryNextFrame().has_value()) {
                FUZZ_ASSERT(reader.error() !=
                            vstream::TraceError::kNone);
                break;
            }
            ++frames;
            FUZZ_ASSERT(frames <= reader.frameCount());
        }
        reader.verifyTrailer();
        if (reader.error() == vstream::TraceError::kNone) {
            FUZZ_ASSERT(frames == reader.frameCount());
        }
    }
    return 0;
}
