/**
 * @file
 * MACH on the video-recording pipeline (paper Sec. 6.4).
 *
 * The paper's closing observation: the camera -> encoder pipeline is
 * the playback flow in reverse, passing raw frames through memory
 * with the same value locality, so the same MAcroblock caCHe can
 * deduplicate the camera's writeback and the encoder's reads.  This
 * example drives the MACH write stage directly with camera-style
 * frames (no decoder, no display) and reports the memory traffic a
 * recording session would save.
 *
 * Usage: recorder_pipeline [video-key] [frames]
 */

#include <iomanip>
#include <iostream>

#include "core/mach_array.hh"
#include "core/writeback_stage.hh"
#include "serve/cli_args.hh"
#include "video/synthetic_video.hh"
#include "video/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace vstream;

    const std::string key = argc > 1 ? argv[1] : "V3";
    const std::uint32_t frames =
        cli::positionalU32(argc, argv, 2, "frames", 120);

    // Camera footage resembles natural video; reuse a Table-1
    // profile as the sensor output.
    VideoProfile profile = scaledWorkload(key, frames);
    std::cout << "recording session: " << profile.name << ", "
              << profile.frame_count << " frames @ " << profile.fps
              << " fps, " << profile.width << "x" << profile.height
              << "\n\n";

    MemorySystem mem("mem", nullptr, DramConfig{});
    const std::uint32_t mab_bytes =
        profile.mab_dim * profile.mab_dim * kBytesPerPixel;
    FrameBufferManager fbm(mem, profile.mabsPerFrame(), mab_bytes, 0);

    for (bool gradient : {false, true}) {
        MachConfig mcfg;
        mcfg.use_gradient = gradient;
        MachArray machs(mcfg);
        MachWriteback camera(mem, fbm, machs, LayoutKind::kPointer);

        SyntheticVideo sensor(profile);
        const Tick frame_period = profile.framePeriodTicks();
        Tick now = 0;
        std::uint64_t slot_cycle = 0;

        while (!sensor.done()) {
            const Frame frame = sensor.nextFrame();
            // The camera cycles through a small ring of buffers the
            // encoder drains.
            fbm.release(slot_cycle >= 4 ? slot_cycle - 4 : ~0ULL);
            BufferSlot &slot = fbm.acquire(slot_cycle++);
            FrameLayout layout;
            camera.beginFrame(frame, slot, now, layout);
            // The camera hands over each mab where the frame holds it.
            for (std::uint32_t i = 0; i < frame.mabCount(); ++i) {
                camera.writeMab(frame.mabBytes(i), i, now);
            }
            camera.finishFrame(now);
            now += frame_period;
        }

        const WritebackTotals &t = camera.totals();
        const double raw_mb =
            static_cast<double>(t.baselineBytes(mab_bytes)) / 1e6;
        const double actual_mb =
            static_cast<double>(t.totalBytes()) / 1e6;
        std::cout << (gradient ? "gab" : "mab")
                  << " MACH at the camera:\n";
        std::cout << "  raw sensor writeback   " << std::fixed
                  << std::setprecision(2) << raw_mb << " MB\n";
        std::cout << "  deduplicated writeback " << actual_mb
                  << " MB\n";
        std::cout << "  traffic saved          " << std::setprecision(1)
                  << 100.0 * t.savings(mab_bytes) << "% ("
                  << t.intra_matches << " intra / " << t.inter_matches
                  << " inter matches over " << t.mabs << " blocks)\n\n";
    }

    std::cout << "(the encoder's reference reads would see the same "
                 "dedup through the MACH pointers; paper Sec. 6.4 "
                 "projects this onto recording and GPU/display "
                 "pipelines)\n";
    return 0;
}
