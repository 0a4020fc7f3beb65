/**
 * @file
 * Tests for the stats registry, its exporters, and the trace sink.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json_writer.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_event.hh"

namespace vstream
{
namespace
{

// ------------------------------------------------------------------
// A minimal JSON parser, enough to round-trip the exporters' output.
// Numbers parse to double; objects preserve insertion order.

struct JsonValue
{
    enum class Kind
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object) {
            if (k == key) {
                return &v;
            }
        }
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        const JsonValue v = parseValue();
        skipWs();
        EXPECT_EQ(pos_, text_.size()) << "trailing garbage";
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        EXPECT_LT(pos_, text_.size()) << "unexpected end of input";
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        EXPECT_EQ(peek(), c);
        ++pos_;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size()) {
                const char esc = text_[pos_++];
                switch (esc) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'u':
                    pos_ += 4; // tests only feed ASCII escapes
                    c = '?';
                    break;
                default: c = esc; break;
                }
            }
            out.push_back(c);
        }
        expect('"');
        return out;
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        JsonValue v;
        if (c == '{') {
            v.kind = JsonValue::Kind::kObject;
            expect('{');
            if (peek() != '}') {
                while (true) {
                    std::string key = parseString();
                    expect(':');
                    v.object.emplace_back(std::move(key),
                                          parseValue());
                    if (peek() != ',') {
                        break;
                    }
                    expect(',');
                }
            }
            expect('}');
        } else if (c == '[') {
            v.kind = JsonValue::Kind::kArray;
            expect('[');
            if (peek() != ']') {
                while (true) {
                    v.array.push_back(parseValue());
                    if (peek() != ',') {
                        break;
                    }
                    expect(',');
                }
            }
            expect(']');
        } else if (c == '"') {
            v.kind = JsonValue::Kind::kString;
            v.str = parseString();
        } else if (c == 't' || c == 'f') {
            v.kind = JsonValue::Kind::kBool;
            v.boolean = c == 't';
            pos_ += v.boolean ? 4 : 5;
        } else if (c == 'n') {
            v.kind = JsonValue::Kind::kNull;
            pos_ += 4;
        } else {
            v.kind = JsonValue::Kind::kNumber;
            std::size_t end = pos_;
            while (end < text_.size() &&
                   (std::isdigit(
                        static_cast<unsigned char>(text_[end])) ||
                    text_[end] == '-' || text_[end] == '+' ||
                    text_[end] == '.' || text_[end] == 'e' ||
                    text_[end] == 'E')) {
                ++end;
            }
            v.number = std::stod(text_.substr(pos_, end - pos_));
            pos_ = end;
        }
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

// ------------------------------------------------------------------
// Registration and queries.

TEST(StatsRegistry, RegistersAndReadsEveryKind)
{
    StatsRegistry r;
    std::uint64_t counter = 42;
    stats::SampleSeries series("", "a series");
    series.sample(5.0);
    series.sample(7.0);

    r.addCallback("a.cb", "a callback",
                  [&counter] { return static_cast<double>(counter); });
    r.add("a.series", series);

    EXPECT_EQ(r.size(), 2u);
    EXPECT_TRUE(r.contains("a.cb"));
    EXPECT_FALSE(r.contains("a.missing"));
    EXPECT_DOUBLE_EQ(r.value("a.cb"), 42.0);
    // The registry reads the counter at query time, not at
    // registration.
    counter = 43;
    EXPECT_DOUBLE_EQ(r.value("a.cb"), 43.0);
    // A series reads as its mean.
    EXPECT_DOUBLE_EQ(r.value("a.series"), 6.0);
}

TEST(StatsRegistryDeathTest, DuplicateNamePanics)
{
    StatsRegistry r;
    stats::SampleSeries s;
    r.addCallback("dup.name", "", [] { return 1.0; });
    EXPECT_DEATH(r.add("dup.name", s), "duplicate stat registration");
    EXPECT_DEATH(r.addCallback("dup.name", "", [] { return 2.0; }),
                 "duplicate stat registration");
}

TEST(StatsRegistryDeathTest, InvalidNamePanics)
{
    StatsRegistry r;
    stats::SampleSeries s;
    EXPECT_DEATH(r.addCallback("bad name with spaces", "",
                               [] { return 0.0; }),
                 "stat name");
    EXPECT_DEATH(r.add("bad-dash", s), "stat name");
}

TEST(StatsRegistry, ValidatesNames)
{
    EXPECT_TRUE(validStatName("vd.cache.missRate"));
    EXPECT_TRUE(validStatName("pipeline.energyJ"));
    EXPECT_TRUE(validStatName("a_b.c_d"));
    EXPECT_FALSE(validStatName(""));
    EXPECT_FALSE(validStatName(".leading"));
    EXPECT_FALSE(validStatName("trailing."));
    EXPECT_FALSE(validStatName("double..dot"));
    EXPECT_FALSE(validStatName("bad-dash"));
    EXPECT_FALSE(validStatName("bad name"));
}

// ------------------------------------------------------------------
// Exporters.

TEST(StatsRegistry, DumpTextIsHierarchicallyOrdered)
{
    StatsRegistry r;
    const auto zero = [] { return 0.0; };
    // Registered deliberately out of order.
    r.addCallback("vd.framesDecoded", "", zero);
    r.addCallback("dc.framesShown", "", zero);
    r.addCallback("vd.cache.hits", "", zero);
    r.addCallback("mem.requests", "", zero);

    std::ostringstream os;
    r.dumpText(os);

    std::vector<std::string> names;
    std::istringstream lines(os.str());
    std::string line;
    while (std::getline(lines, line)) {
        names.push_back(line.substr(0, line.find(' ')));
    }
    ASSERT_EQ(names.size(), 4u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    // A parent prefix sorts before (and therefore groups with) its
    // children: everything under "vd." is contiguous.
    EXPECT_EQ(names[2], "vd.cache.hits");
    EXPECT_EQ(names[3], "vd.framesDecoded");
}

TEST(StatsRegistry, JsonRoundTrips)
{
    StatsRegistry r;
    stats::SampleSeries series("", "per-frame decode time, ms");
    series.sample(4.0);
    series.sample(8.0);
    series.sample(6.0);
    r.addCallback("vd.framesDecoded", "frames fully decoded",
                  [] { return 96.0; });
    r.add("pipeline.frameExecMs", series);
    r.addCallback("vd.cache.missRate", "read miss rate",
                  [] { return 0.25; });

    std::ostringstream os;
    r.dumpJson(os);
    const JsonValue root = JsonParser(os.str()).parse();

    ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
    const JsonValue *schema = root.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "vstream-stats-1");

    const JsonValue *stats_obj = root.find("stats");
    ASSERT_NE(stats_obj, nullptr);
    ASSERT_EQ(stats_obj->kind, JsonValue::Kind::kObject);
    EXPECT_EQ(stats_obj->object.size(), 3u);

    const JsonValue *frames = stats_obj->find("vd.framesDecoded");
    ASSERT_NE(frames, nullptr);
    EXPECT_EQ(frames->find("kind")->str, "scalar");
    EXPECT_EQ(frames->find("desc")->str, "frames fully decoded");
    EXPECT_DOUBLE_EQ(frames->find("value")->number, 96.0);

    const JsonValue *exec = stats_obj->find("pipeline.frameExecMs");
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(exec->find("kind")->str, "series");
    EXPECT_DOUBLE_EQ(exec->find("count")->number, 3.0);
    EXPECT_DOUBLE_EQ(exec->find("total")->number, 18.0);
    EXPECT_DOUBLE_EQ(exec->find("mean")->number, 6.0);
    EXPECT_DOUBLE_EQ(exec->find("min")->number, 4.0);
    EXPECT_DOUBLE_EQ(exec->find("max")->number, 8.0);

    const JsonValue *miss = stats_obj->find("vd.cache.missRate");
    ASSERT_NE(miss, nullptr);
    EXPECT_EQ(miss->find("kind")->str, "scalar");
    EXPECT_DOUBLE_EQ(miss->find("value")->number, 0.25);
}

TEST(StatsRegistry, CsvHasOneRowPerField)
{
    StatsRegistry r;
    r.addCallback("x.count", "", [] { return 3.0; });

    std::ostringstream os;
    r.dumpCsv(os);
    std::istringstream lines(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "name,kind,field,value");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "x.count,scalar,value,3");
    EXPECT_FALSE(std::getline(lines, line));
}

// ------------------------------------------------------------------
// JSON writer corner cases the exporters rely on.

TEST(JsonWriter, EscapesAndFormatsNumbers)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    // Non-finite values must not leak into the output.
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
}

// ------------------------------------------------------------------
// Trace-event sink.

TEST(TraceEventSink, WritesValidChromeTraceJson)
{
    TraceEventSink sink;
    const auto vd = sink.track("vd.decode");
    const auto power = sink.track("vd.power");
    EXPECT_EQ(sink.track("vd.decode"), vd); // get-or-create

    // Emitted deliberately out of timestamp order.
    sink.complete(vd, "decode", 10 * sim_clock::ms, 4 * sim_clock::ms,
                  {{"frame", 1.0}});
    sink.complete(vd, "decode", 2 * sim_clock::ms, 4 * sim_clock::ms,
                  {{"frame", 0.0}});
    sink.complete(power, "S3", 6 * sim_clock::ms, 3 * sim_clock::ms);
    sink.instant(power, "wake", 9 * sim_clock::ms);
    sink.counter(power, "dram.bytes", 9 * sim_clock::ms, 4096.0);

    EXPECT_EQ(sink.trackCount(), 2u);
    EXPECT_EQ(sink.eventCount(), 5u);

    std::ostringstream os;
    sink.writeJson(os);
    const JsonValue root = JsonParser(os.str()).parse();

    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

    // Metadata first: process name plus one name record per track.
    std::size_t meta = 0;
    std::map<double, std::vector<double>> ts_by_tid;
    for (const JsonValue &e : events->array) {
        const std::string ph = e.find("ph")->str;
        if (ph == "M") {
            ++meta;
            continue;
        }
        ts_by_tid[e.find("tid")->number].push_back(
            e.find("ts")->number);
        if (ph == "X") {
            EXPECT_GT(e.find("dur")->number, 0.0);
        }
    }
    EXPECT_GE(meta, 3u); // process_name + 2 thread_names
    EXPECT_EQ(events->array.size(), meta + 5u);

    // Every track's timeline is monotonic even though events were
    // emitted out of order.
    for (const auto &[tid, tss] : ts_by_tid) {
        EXPECT_TRUE(std::is_sorted(tss.begin(), tss.end()))
            << "track " << tid << " not monotonic";
    }

    // Ticks are picoseconds; trace timestamps are microseconds.
    const std::vector<double> &vd_ts = ts_by_tid[0.0];
    ASSERT_EQ(vd_ts.size(), 2u);
    EXPECT_DOUBLE_EQ(vd_ts[0], 2000.0);
    EXPECT_DOUBLE_EQ(vd_ts[1], 10000.0);
}

} // namespace
} // namespace vstream
