#include "serve/arrivals.hh"

#include <cmath>
#include <sstream>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace vstream
{

void
PoissonArrivalConfig::validate() const
{
    if (rate_per_s <= 0.0) {
        vs_fatal("arrival rate must be positive, got ", rate_per_s,
                 " sessions/s");
    }
    if (leave_probability < 0.0 || leave_probability > 1.0) {
        vs_fatal("leave probability must be in [0, 1], got ",
                 leave_probability);
    }
    if (leave_probability > 0.0 && max_watch < min_watch) {
        vs_fatal("leave window is empty: max_watch < min_watch");
    }
}

std::vector<ArrivalEvent>
poissonArrivals(const PoissonArrivalConfig &cfg)
{
    cfg.validate();
    Random rng(cfg.seed);
    std::vector<ArrivalEvent> events;
    events.reserve(cfg.count);
    Tick now = 0;
    for (std::uint64_t i = 0; i < cfg.count; ++i) {
        // Exponential inter-arrival gap, rounded to whole ticks.
        // uniform() is in [0, 1) so the log argument stays positive.
        const double gap_s =
            -std::log(1.0 - rng.uniform()) / cfg.rate_per_s;
        now += static_cast<Tick>(std::llround(
            gap_s * static_cast<double>(sim_clock::s)));
        ArrivalEvent e;
        e.tick = now;
        e.id = i;
        if (cfg.num_mixes > 0) {
            e.mix = static_cast<std::uint32_t>(i % cfg.num_mixes);
        }
        if (cfg.leave_probability > 0.0 &&
            rng.chance(cfg.leave_probability)) {
            e.leave_after =
                rng.uniformInt(cfg.min_watch, cfg.max_watch);
        }
        events.push_back(e);
    }
    return events;
}

namespace
{

/** Set @p err to a diagnostic naming @p line; returns a failed
 * result from the parse loop. */
ArrivalTraceResult
traceError(std::size_t line, const std::string &what)
{
    ArrivalTraceResult r;
    std::ostringstream os;
    os << "arrival trace line " << line << ": " << what;
    r.error = os.str();
    return r;
}

} // namespace

ArrivalTraceResult
parseArrivalTrace(std::istream &is, std::uint64_t first_id)
{
    ArrivalTraceResult r;
    std::string line;
    std::size_t lineno = 0;
    Tick last_tick = 0;
    std::uint64_t next_id = first_id;
    while (std::getline(is, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream ls(line);
        std::uint64_t arrival_us = 0;
        std::uint64_t watch_us = 0;
        std::uint32_t mix = 0;
        if (!(ls >> arrival_us)) {
            continue; // blank or comment-only line
        }
        if (!(ls >> watch_us >> mix)) {
            return traceError(lineno,
                              "expected <arrival_us> <watch_us> "
                              "<mix>");
        }
        std::string trailing;
        if (ls >> trailing) {
            return traceError(lineno,
                              "trailing junk '" + trailing + "'");
        }
        // Bound the arithmetic: microseconds-to-ticks must not wrap.
        constexpr std::uint64_t kMaxUs =
            ~std::uint64_t{0} / sim_clock::us;
        if (arrival_us > kMaxUs || watch_us > kMaxUs) {
            return traceError(lineno, "timestamp overflows ticks");
        }
        ArrivalEvent e;
        e.tick = arrival_us * sim_clock::us;
        e.id = next_id++;
        e.leave_after = watch_us * sim_clock::us;
        e.mix = mix;
        if (e.tick < last_tick) {
            return traceError(lineno,
                              "arrivals must be non-decreasing");
        }
        last_tick = e.tick;
        r.events.push_back(e);
    }
    return r;
}

} // namespace vstream
