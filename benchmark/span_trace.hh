/**
 * @file
 * Host-time spans for the traced benchmark run.
 *
 * Spans are recorded from the benchmark's own code, around its calls
 * into the library's public layer entry points; nothing inside the
 * library is instrumented.  They are kept in memory (name, start,
 * end, parent, unit id) and written once, at the end of the run, as
 * Chrome trace-event JSON that Perfetto and chrome://tracing open.
 * The runner (run.py) derives each layer's self time from the file:
 * a span's duration minus the part of it its child spans cover.
 *
 * The traced run is serial, so one stack of open spans is enough to
 * link every span to its parent.
 */

#ifndef VSTREAM_BENCHMARK_SPAN_TRACE_HH
#define VSTREAM_BENCHMARK_SPAN_TRACE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/json_writer.hh"

namespace vbench
{

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Cost of one nowNs() call, measured once per process (median of
 * five batches), for taking timer overhead back out of fine-grained
 * measurements. */
inline std::int64_t
timerCostNs()
{
    static const std::int64_t cost = [] {
        constexpr int kCalls = 20000;
        std::vector<std::int64_t> batches;
        for (int b = 0; b < 5; ++b) {
            const std::int64_t t0 = nowNs();
            for (int i = 0; i < kCalls; ++i) {
                (void)nowNs();
            }
            batches.push_back((nowNs() - t0) / kCalls);
        }
        std::sort(batches.begin(), batches.end());
        return batches[2];
    }();
    return cost;
}

/** In-memory span recorder (single-threaded). */
class SpanTrace
{
  public:
    /** Open a span as a child of the innermost open span. */
    std::size_t
    open(const char *name, std::uint64_t unit)
    {
        const std::size_t id = spans_.size();
        spans_.push_back({name, unit, nowNs(), 0, parent()});
        open_.push_back(id);
        return id;
    }

    /** Close span @p id, which must be the innermost open span. */
    void
    close(std::size_t id)
    {
        spans_[id].end_ns = nowNs();
        open_.pop_back();
    }

    /** Record an already-measured child of the innermost open span. */
    void
    add(const char *name, std::uint64_t unit, std::int64_t start_ns,
        std::int64_t end_ns)
    {
        spans_.push_back({name, unit, start_ns, end_ns, parent()});
    }

    std::size_t size() const { return spans_.size(); }

    /** Write every span as a complete ("X") trace event; times are
     * microseconds from the first span's start, to the nanosecond. */
    void
    writeChrome(std::ostream &os) const
    {
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].start_ns;
        vstream::JsonWriter w(os, /*pretty=*/false);
        w.beginObject();
        w.kv("displayTimeUnit", "ns");
        w.key("traceEvents");
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.kv("name", s.name);
            w.kv("ph", "X");
            w.kv("pid", std::uint64_t{1});
            w.kv("tid", std::uint64_t{1});
            w.kv("ts", static_cast<double>(s.start_ns - t0) / 1e3);
            w.kv("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
            w.key("args");
            w.beginObject();
            w.kv("id", static_cast<std::int64_t>(i));
            w.kv("parent", s.parent);
            w.kv("unit", s.unit);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

  private:
    struct Span
    {
        const char *name;
        std::uint64_t unit;
        std::int64_t start_ns;
        std::int64_t end_ns;
        /** Index of the enclosing span, -1 for a root. */
        std::int64_t parent;
    };

    std::int64_t
    parent() const
    {
        return open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    }

    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTrace &trace, const char *name, std::uint64_t unit = 0)
        : trace_(trace), id_(trace.open(name, unit))
    {
    }

    ~ScopedSpan() { trace_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTrace &trace_;
    std::size_t id_;
};

} // namespace vbench

#endif // VSTREAM_BENCHMARK_SPAN_TRACE_HH
