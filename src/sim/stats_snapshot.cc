#include "sim/stats_snapshot.hh"

#include <cmath>

#include "sim/json_writer.hh"
#include "sim/logging.hh"

namespace vstream
{

double
ScalarAgg::mean() const
{
    if (count == 0) {
        return 0.0;
    }
    return sum() / static_cast<double>(count);
}

double
ScalarAgg::sum() const
{
    return static_cast<double>(sum_fp) /
           static_cast<double>(StatsSnapshot::kScalarScale);
}

void
ScalarAgg::add(double v)
{
    vs_assert(std::isfinite(v), "non-finite scalar observation");
    const double scaled =
        v * static_cast<double>(StatsSnapshot::kScalarScale);
    vs_assert(std::abs(scaled) <= 9.2e18,
              "scalar observation overflows fixed point");
    const std::int64_t fp = std::llround(scaled);
    if (count == 0) {
        min = v;
        max = v;
    } else {
        min = std::min(min, v);
        max = std::max(max, v);
    }
    ++count;
    sum_fp += fp;
}

void
ScalarAgg::merge(const ScalarAgg &other)
{
    if (other.count == 0) {
        return;
    }
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum_fp += other.sum_fp;
}

void
StatsSnapshot::addCount(const std::string &name, std::uint64_t n)
{
    counters_[name] += n;
}

void
StatsSnapshot::addScalar(const std::string &name, double v)
{
    scalars_[name].add(v);
}

HdrHistogram &
StatsSnapshot::hist(const std::string &name, unsigned unit_bits)
{
    auto it = hists_.find(name);
    if (it == hists_.end()) {
        it = hists_.emplace(name, HdrHistogram(unit_bits)).first;
    }
    return it->second;
}

void
StatsSnapshot::merge(const StatsSnapshot &other)
{
    for (const auto &[name, n] : other.counters_) {
        counters_[name] += n;
    }
    for (const auto &[name, agg] : other.scalars_) {
        scalars_[name].merge(agg);
    }
    for (const auto &[name, h] : other.hists_) {
        hist(name, h.unitBits()).merge(h);
    }
}

std::uint64_t
StatsSnapshot::count(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const ScalarAgg *
StatsSnapshot::scalar(const std::string &name) const
{
    const auto it = scalars_.find(name);
    return it == scalars_.end() ? nullptr : &it->second;
}

const HdrHistogram *
StatsSnapshot::histogram(const std::string &name) const
{
    const auto it = hists_.find(name);
    return it == hists_.end() ? nullptr : &it->second;
}

void
StatsSnapshot::dumpJson(JsonWriter &jw) const
{
    jw.beginObject();
    jw.key("counters");
    jw.beginObject();
    for (const auto &[name, n] : counters_) {
        jw.kv(name, n);
    }
    jw.endObject();
    jw.key("scalars");
    jw.beginObject();
    for (const auto &[name, agg] : scalars_) {
        jw.key(name);
        jw.beginObject();
        jw.kv("count", agg.count);
        jw.kv("sum", agg.sum());
        jw.kv("mean", agg.mean());
        jw.kv("min", agg.min);
        jw.kv("max", agg.max);
        jw.endObject();
    }
    jw.endObject();
    jw.key("histograms");
    jw.beginObject();
    for (const auto &[name, h] : hists_) {
        jw.key(name);
        jw.beginObject();
        jw.kv("count", h.count());
        jw.kv("min", h.min());
        jw.kv("max", h.max());
        jw.kv("mean", h.mean());
        jw.kv("p50", h.percentile(0.50));
        jw.kv("p90", h.percentile(0.90));
        jw.kv("p99", h.percentile(0.99));
        jw.kv("p999", h.percentile(0.999));
        jw.endObject();
    }
    jw.endObject();
    jw.endObject();
}

} // namespace vstream
