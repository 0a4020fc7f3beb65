#include "sim/stats_registry.hh"

#include <algorithm>
#include <utility>

#include "sim/json_writer.hh"
#include "sim/logging.hh"

namespace vstream
{

bool
validStatName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.') {
        return false;
    }
    bool prev_dot = false;
    for (char c : name) {
        if (c == '.') {
            if (prev_dot) {
                return false;
            }
            prev_dot = true;
            continue;
        }
        prev_dot = false;
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok) {
            return false;
        }
    }
    return true;
}

const char *
StatsRegistry::kindName(Kind k)
{
    // Callbacks are scalars to every consumer.
    return k == Kind::kCallback ? "scalar" : "series";
}

StatsRegistry::Entry &
StatsRegistry::insert(const std::string &name, Kind kind)
{
    vs_assert(validStatName(name), "bad stat name '", name,
              "' (want dotted [A-Za-z0-9_] segments)");
    if (index_.find(name) != index_.end()) {
        vs_panic("duplicate stat registration: '", name, "'");
    }
    Entry &e = pool_.emplace_back();
    e.name = name;
    e.kind = kind;
    index_.emplace(name, &e);
    sorted_.clear(); // view rebuilt lazily on the next dump
    return e;
}

const std::vector<const StatsRegistry::Entry *> &
StatsRegistry::sortedEntries() const
{
    if (sorted_.size() != pool_.size()) {
        sorted_.clear();
        sorted_.reserve(pool_.size());
        for (const Entry &e : pool_) {
            sorted_.push_back(&e);
        }
        std::sort(sorted_.begin(), sorted_.end(),
                  [](const Entry *a, const Entry *b) {
                      return a->name < b->name;
                  });
    }
    return sorted_;
}

void
StatsRegistry::add(const std::string &name, stats::SampleSeries &s)
{
    Entry &e = insert(name, Kind::kSeries);
    e.series = &s;
    e.desc = s.desc();
}

void
StatsRegistry::addCallback(const std::string &name, std::string desc,
                           std::function<double()> fn)
{
    vs_assert(fn != nullptr, "null stat callback for '", name, "'");
    Entry &e = insert(name, Kind::kCallback);
    e.desc = std::move(desc);
    e.callback = std::move(fn);
}

bool
StatsRegistry::contains(const std::string &name) const
{
    return index_.find(name) != index_.end();
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(pool_.size());
    for (const Entry *e : sortedEntries()) {
        out.push_back(e->name);
    }
    return out;
}

double
StatsRegistry::value(const std::string &name) const
{
    const auto it = index_.find(name);
    vs_assert(it != index_.end(), "unknown stat '", name, "'");
    const Entry &e = *it->second;
    return e.kind == Kind::kCallback ? e.callback() : e.series->mean();
}

std::vector<std::pair<std::string, double>>
StatsRegistry::fields(const Entry &e)
{
    std::vector<std::pair<std::string, double>> out;
    if (e.kind == Kind::kCallback) {
        out.emplace_back("value", e.callback());
        return out;
    }
    const stats::SampleSeries &s = *e.series;
    out.reserve(8);
    out.emplace_back("count", static_cast<double>(s.count()));
    out.emplace_back("total", s.total());
    out.emplace_back("mean", s.mean());
    out.emplace_back("p50", s.percentile(0.50));
    out.emplace_back("p90", s.percentile(0.90));
    out.emplace_back("p99", s.percentile(0.99));
    out.emplace_back("min", s.percentile(0.0));
    out.emplace_back("max", s.percentile(1.0));
    return out;
}

void
StatsRegistry::dumpText(std::ostream &os) const
{
    // One scratch line name reused across all series entries so the
    // dump loop does not allocate a fresh string per exported field.
    std::string scratch;
    for (const Entry *ep : sortedEntries()) {
        const Entry &e = *ep;
        if (e.kind == Kind::kCallback) {
            stats::printStat(os, e.name, e.callback(), e.desc);
            continue;
        }
        // A series prints one line per exported field, keeping the
        // classic one-value-per-line text shape.
        for (const auto &[field, v] : fields(e)) {
            scratch.assign(e.name);
            scratch.append("::");
            scratch.append(field);
            stats::printStat(os, scratch, v, e.desc);
        }
    }
}

void
StatsRegistry::dumpJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "vstream-stats-1");
    w.key("stats");
    w.beginObject();
    for (const Entry *ep : sortedEntries()) {
        const Entry &e = *ep;
        w.key(e.name);
        w.beginObject();
        w.kv("kind", kindName(e.kind));
        if (!e.desc.empty()) {
            w.kv("desc", e.desc);
        }
        for (const auto &[field, v] : fields(e)) {
            w.kv(field, v);
        }
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

void
StatsRegistry::dumpCsv(std::ostream &os) const
{
    os << "name,kind,field,value\n";
    for (const Entry *ep : sortedEntries()) {
        const Entry &e = *ep;
        for (const auto &[field, v] : fields(e)) {
            os << e.name << ',' << kindName(e.kind) << ',' << field << ','
               << jsonNumber(v) << '\n';
        }
    }
}

} // namespace vstream
