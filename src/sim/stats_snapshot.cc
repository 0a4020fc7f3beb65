#include "sim/stats_snapshot.hh"

#include <cmath>

#include "sim/byte_io.hh"
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

namespace
{

/** Stat names are short dotted paths; anything longer is hostile. */
constexpr std::uint32_t kMaxStatName = 4096;

} // namespace

void
StatsSnapshot::serialize(std::vector<std::uint8_t> &out) const
{
    byte_io::putU64(out, counters_.size());
    for (const auto &[name, n] : counters_) {
        byte_io::putString(out, name);
        byte_io::putU64(out, n);
    }
    byte_io::putU64(out, scalars_.size());
    for (const auto &[name, agg] : scalars_) {
        byte_io::putString(out, name);
        byte_io::putU64(out, agg.count);
        byte_io::putI64(out, agg.sum_fp);
        byte_io::putF64(out, agg.min);
        byte_io::putF64(out, agg.max);
    }
    byte_io::putU64(out, hists_.size());
    for (const auto &[name, h] : hists_) {
        byte_io::putString(out, name);
        h.serialize(out);
    }
}

bool
StatsSnapshot::tryDeserialize(const std::uint8_t *&p,
                              const std::uint8_t *end,
                              std::string &error)
{
    const std::uint8_t *cursor = p;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, ScalarAgg> scalars;
    std::map<std::string, HdrHistogram> hists;

    std::uint64_t n_counters = 0;
    if (!byte_io::getU64(cursor, end, n_counters)) {
        error = "snapshot counter table truncated";
        return false;
    }
    for (std::uint64_t i = 0; i < n_counters; ++i) {
        std::string name;
        std::uint64_t v = 0;
        if (!byte_io::getString(cursor, end, name, kMaxStatName) ||
            !byte_io::getU64(cursor, end, v)) {
            error = "snapshot counter entry truncated";
            return false;
        }
        counters[name] = v;
    }

    std::uint64_t n_scalars = 0;
    if (!byte_io::getU64(cursor, end, n_scalars)) {
        error = "snapshot scalar table truncated";
        return false;
    }
    for (std::uint64_t i = 0; i < n_scalars; ++i) {
        std::string name;
        ScalarAgg agg;
        if (!byte_io::getString(cursor, end, name, kMaxStatName) ||
            !byte_io::getU64(cursor, end, agg.count) ||
            !byte_io::getI64(cursor, end, agg.sum_fp) ||
            !byte_io::getF64(cursor, end, agg.min) ||
            !byte_io::getF64(cursor, end, agg.max)) {
            error = "snapshot scalar entry truncated";
            return false;
        }
        scalars[name] = agg;
    }

    std::uint64_t n_hists = 0;
    if (!byte_io::getU64(cursor, end, n_hists)) {
        error = "snapshot histogram table truncated";
        return false;
    }
    for (std::uint64_t i = 0; i < n_hists; ++i) {
        std::string name;
        HdrHistogram h;
        if (!byte_io::getString(cursor, end, name, kMaxStatName)) {
            error = "snapshot histogram name truncated";
            return false;
        }
        if (!h.tryDeserialize(cursor, end, error)) {
            return false;
        }
        hists.emplace(name, std::move(h));
    }

    counters_ = std::move(counters);
    scalars_ = std::move(scalars);
    hists_ = std::move(hists);
    p = cursor;
    return true;
}

} // namespace vstream
