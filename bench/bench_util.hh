/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Every bench honours VSTREAM_FRAMES / VSTREAM_WIDTH / VSTREAM_HEIGHT
 * so the whole harness can be re-run at higher fidelity.  Each is a
 * plain decimal count (0 = the video's native length or size); any
 * other value prints one line and exits with status 2.
 */

#ifndef VSTREAM_BENCH_BENCH_UTIL_HH
#define VSTREAM_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/video_pipeline.hh"
#include "sim/json_writer.hh"
#include "sim/parallel.hh"
#include "sim/spec_fields.hh"
#include "video/workloads.hh"

namespace vstream
{
namespace bench
{

/**
 * Environment variable @p name as a 32-bit count; nullopt when unset.
 * Fails closed: "abc", "-1" or an overflowing value prints
 * "<name>: <error>" and exits with status 2.
 */
inline std::optional<std::uint32_t>
parseEnvU32(const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr) {
        return std::nullopt;
    }
    std::uint32_t out = 0;
    std::string error;
    if (!spec_fields::tryParseU32(v, "value", out, error)) {
        std::cerr << name << ": " << error << "\n";
        std::exit(2);
    }
    return out;
}

inline std::uint32_t
envU32(const char *name, std::uint32_t fallback)
{
    return parseEnvU32(name).value_or(fallback);
}

/**
 * The frame-cap and resolution knobs, parsed during static
 * initialisation: a bad value exits before main() generates any
 * content, and never from a worker thread of a parallel sweep.
 */
struct EnvKnobs
{
    std::optional<std::uint32_t> frames = parseEnvU32("VSTREAM_FRAMES");
    std::optional<std::uint32_t> width = parseEnvU32("VSTREAM_WIDTH");
    std::optional<std::uint32_t> height = parseEnvU32("VSTREAM_HEIGHT");
};

inline const EnvKnobs kEnvKnobs{};

inline std::uint32_t
frames(std::uint32_t fallback = 96)
{
    return kEnvKnobs.frames.value_or(fallback);
}

/** Profile for @p key at the bench resolution and frame cap. */
inline VideoProfile
benchWorkload(const std::string &key, std::uint32_t fallback_frames = 96)
{
    return scaledWorkload(key, frames(fallback_frames),
                          kEnvKnobs.width.value_or(0),
                          kEnvKnobs.height.value_or(0));
}

/** A representative 4-video mix: test card, trailer, best case,
 * heavy game - used by the non-headline figures. */
inline std::vector<std::string>
videoMix()
{
    return {"V1", "V5", "V8", "V12"};
}

inline void
header(const std::string &title, const std::string &paper_note)
{
    std::cout << "=== " << title << " ===\n";
    if (!paper_note.empty()) {
        std::cout << "(paper: " << paper_note << ")\n";
    }
    std::cout << "\n";
}

inline std::string
pct(double x, int precision = 1)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << 100.0 * x
       << "%";
    return os.str();
}

/**
 * Machine-readable result of one figure bench.
 *
 * When VSTREAM_STATS_JSON names a path, write() (called from the
 * destructor) emits a "vstream-bench-1" JSON document there: the
 * figure's headline metrics (paper value next to the measured one),
 * the per-video values, and the wall-clock cost of the run.  With the
 * variable unset the report is a no-op, so benches stay usable as
 * plain console tools.  See docs/STATS.md for the format.
 */
class Report
{
  public:
    Report(std::string bench, std::string figure, std::string title)
        : bench_(std::move(bench)), figure_(std::move(figure)),
          title_(std::move(title)),
          start_(std::chrono::steady_clock::now())
    {
    }

    Report(const Report &) = delete;
    Report &operator=(const Report &) = delete;

    ~Report() { write(); }

    /** Record a headline metric with its paper reference point. */
    void
    metric(const std::string &name, double paper, double measured)
    {
        metrics_.push_back({name, paper, measured});
    }

    /**
     * Accumulate fault-injection provenance (FaultTotals of one or
     * more runs).  Benches that never inject leave this untouched and
     * the report carries an all-zero block - explicit evidence the
     * numbers come from a pristine run.
     */
    void
    faults(const FaultTotals &t)
    {
        faults_injected_ += t.injected;
        faults_recovered_ += t.recovered;
        faults_abandoned_ += t.abandoned;
    }

    /** Record one value for one video (e.g. scheme key -> energy). */
    void
    video(const std::string &video_key, const std::string &name,
          double value)
    {
        const auto it = video_index_.find(video_key);
        if (it != video_index_.end()) {
            videos_[it->second].second.emplace_back(name, value);
            return;
        }
        video_index_.emplace(video_key, videos_.size());
        videos_.push_back({video_key, {{name, value}}});
    }

    /** Write the JSON now (idempotent; also run by the destructor). */
    void
    write()
    {
        if (written_) {
            return;
        }
        written_ = true;
        const char *path = std::getenv("VSTREAM_STATS_JSON");
        if (path == nullptr || path[0] == '\0') {
            return;
        }
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();

        std::ofstream os(path);
        JsonWriter w(os, /*pretty=*/true);
        w.beginObject();
        w.kv("schema", "vstream-bench-1");
        w.kv("bench", bench_);
        w.kv("figure", figure_);
        w.kv("title", title_);
        w.kv("wall_clock_seconds", wall);
        w.key("faults");
        w.beginObject();
        w.kv("injected", static_cast<double>(faults_injected_));
        w.kv("recovered", static_cast<double>(faults_recovered_));
        w.kv("abandoned", static_cast<double>(faults_abandoned_));
        w.endObject();
        w.key("metrics");
        w.beginArray();
        for (const Metric &m : metrics_) {
            w.beginObject();
            w.kv("name", m.name);
            w.kv("paper", m.paper);
            w.kv("measured", m.measured);
            w.endObject();
        }
        w.endArray();
        w.key("videos");
        w.beginObject();
        for (const auto &[key, values] : videos_) {
            w.key(key);
            w.beginObject();
            for (const auto &[name, value] : values) {
                w.kv(name, value);
            }
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }

  private:
    struct Metric
    {
        std::string name;
        double paper = 0.0;
        double measured = 0.0;
    };

    std::string bench_;
    std::string figure_;
    std::string title_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t faults_injected_ = 0;
    std::uint64_t faults_recovered_ = 0;
    std::uint64_t faults_abandoned_ = 0;
    std::vector<Metric> metrics_;
    /** Insertion-ordered video -> (name, value) pairs. */
    std::vector<std::pair<
        std::string, std::vector<std::pair<std::string, double>>>>
        videos_;
    /** video key -> index in videos_, so video() stays O(1). */
    std::unordered_map<std::string, std::size_t> video_index_;
    bool written_ = false;
};

} // namespace bench
} // namespace vstream

#endif // VSTREAM_BENCH_BENCH_UTIL_HH
