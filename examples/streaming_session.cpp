/**
 * @file
 * Streaming-session explorer: how network behaviour interacts with
 * race-to-sleep.
 *
 * The paper stresses that race-to-sleep is *adaptive*: it leverages
 * however many frames the network has buffered (Sec. 3.3) - bursty
 * delivery means deeper effective batches and longer deep sleeps.
 * This example drives the explicit network ArrivalModel (lognormal
 * per-frame transfer jitter, optional stall storms) and sweeps link
 * bandwidth and pre-roll depth, reporting energy, drops, underruns,
 * and sleep residency for the baseline and the full GAB pipeline.
 *
 * Usage:
 *   streaming_session [options]
 *     --video KEY             workload V1..V16 (default V5)
 *     --frames N              frame cap (default 180)
 *     --arrival-jitter SIGMA  lognormal sigma on transfer times
 *                             (default 0.3)
 *     --arrival-preroll N     pre-roll depth for the bandwidth
 *                             sweep (default 32)
 *     --fault-seed N          fault-schedule RNG seed
 *     --fault-stall SPEC      network-stall rule, e.g.
 *                             "p=0.05,from=200ms,until=2s,len=120ms"
 *
 * Every value option also accepts the --opt=VALUE spelling.  Bad
 * input exits with status 2.
 */

#include <iomanip>
#include <iostream>

#include "core/video_pipeline.hh"
#include "serve/cli_args.hh"
#include "video/workloads.hh"

namespace
{

using namespace vstream;

struct SessionResult
{
    double energy_mj;
    std::uint32_t drops;
    std::uint64_t underruns;
    double s3_pct;
    std::uint64_t sleeps;
    FaultTotals faults;
};

/** @p cfg (jitter and faults from the flags) over a link of
 * @p bandwidth_mbps with @p preroll frames buffered. */
SessionResult
runSession(PipelineConfig cfg, const VideoProfile &profile,
           Scheme scheme, double bandwidth_mbps, std::uint32_t preroll)
{
    cfg.profile = profile;
    cfg.scheme = SchemeConfig::make(scheme);
    cfg.arrival.enabled = true;
    cfg.arrival.bandwidth_mbps = bandwidth_mbps;
    cfg.preroll_frames = preroll;
    VideoPipeline pipe(std::move(cfg));
    const PipelineResult r = pipe.run();
    return SessionResult{r.totalEnergy() * 1e3, r.drops,  r.underruns,
                         100.0 * r.s3Residency(), r.sleep_events,
                         r.faults};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string key = "V5";
    std::uint32_t frames = 180;
    // The flags fill this per-session template.
    PipelineConfig session;
    session.arrival.jitter_frac = 0.3;
    session.preroll_frames = 32;

    cli::parseFlags(
        argc, argv,
        [&](cli::Flag &f) {
            if (f.is("--video")) {
                key = f.next();
            } else if (f.is("--frames")) {
                frames = f.nextU32();
            } else if (f.is("--arrival-jitter") ||
                       f.is("--arrival-preroll") ||
                       f.is("--fault-seed") || f.is("--fault-stall")) {
                return cli::sessionFlag(f, session);
            } else {
                return false;
            }
            return true;
        });
    const double jitter = session.arrival.jitter_frac;
    const std::uint32_t preroll = session.preroll_frames;

    const VideoProfile profile = scaledWorkload(key, frames);
    std::cout << "streaming session: " << profile.key << " ("
              << profile.name << "), " << profile.frame_count
              << " frames, arrival jitter sigma " << jitter << "\n\n";

    std::cout << "--- link-bandwidth sweep (pre-roll " << preroll
              << ") ---\n";
    std::cout << std::left << std::setw(12) << "link(Mbps)"
              << std::right << std::setw(12) << "L mJ" << std::setw(9)
              << "L drops" << std::setw(12) << "GAB mJ" << std::setw(9)
              << "drops" << std::setw(10) << "underrun" << std::setw(8)
              << "S3%" << std::setw(9) << "sleeps" << std::setw(9)
              << "save%" << "\n";
    FaultTotals sweep_faults;
    for (double mbps : {0.5, 1.0, 2.0, 8.0, 40.0}) {
        const SessionResult base = runSession(
            session, profile, Scheme::kBaseline, mbps, preroll);
        const SessionResult gab =
            runSession(session, profile, Scheme::kGab, mbps, preroll);
        sweep_faults.injected += base.faults.injected;
        sweep_faults.injected += gab.faults.injected;
        sweep_faults.recovered += base.faults.recovered;
        sweep_faults.recovered += gab.faults.recovered;
        sweep_faults.abandoned += base.faults.abandoned;
        sweep_faults.abandoned += gab.faults.abandoned;
        std::cout << std::left << std::setw(12) << mbps << std::right
                  << std::fixed << std::setprecision(1) << std::setw(12)
                  << base.energy_mj << std::setw(9) << base.drops
                  << std::setw(12) << gab.energy_mj << std::setw(9)
                  << gab.drops << std::setw(10) << gab.underruns
                  << std::setw(8) << gab.s3_pct << std::setw(9)
                  << gab.sleeps << std::setw(9)
                  << 100.0 * (1.0 - gab.energy_mj / base.energy_mj)
                  << "\n";
    }
    std::cout << "(a slow link throttles delivery into bursts - "
                 "fewer, longer sleeps; the savings hold across "
                 "network behaviours)\n\n";

    std::cout << "--- pre-roll depth sweep (2 Mbps link, so a "
                 "shallow pre-roll is not starved) ---\n";
    std::cout << std::left << std::setw(12) << "preroll" << std::right
              << std::setw(12) << "GAB mJ" << std::setw(9) << "drops"
              << std::setw(10) << "underrun" << std::setw(8) << "S3%"
              << "\n";
    for (std::uint32_t p : {2u, 4u, 8u, 16u, 32u, 64u}) {
        const SessionResult gab =
            runSession(session, profile, Scheme::kGab, 2.0, p);
        std::cout << std::left << std::setw(12) << p << std::right
                  << std::fixed << std::setprecision(1) << std::setw(12)
                  << gab.energy_mj << std::setw(9) << gab.drops
                  << std::setw(10) << gab.underruns << std::setw(8)
                  << gab.s3_pct << "\n";
    }
    std::cout << "(even a couple of buffered frames already enable "
                 "meaningful batching - the paper's Fig. 6 point)\n";

    if (sweep_faults.injected > 0) {
        std::cout << "\n--- faults (bandwidth sweep totals) ---\n"
                  << "injected " << sweep_faults.injected
                  << ", recovered " << sweep_faults.recovered
                  << ", abandoned " << sweep_faults.abandoned << "\n";
    }
    return 0;
}
