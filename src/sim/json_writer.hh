/**
 * @file
 * Minimal streaming JSON emitter.
 *
 * The observability layer (StatsRegistry exporters, TraceEventSink,
 * bench reports) writes machine-readable JSON; this writer owns the
 * two things that are easy to get wrong by hand: string escaping and
 * round-trippable double formatting (no NaN/Inf leaks into the
 * output - both serialize as null, which every JSON parser accepts).
 *
 * Usage is explicitly structural: beginObject()/endObject() and
 * beginArray()/endArray() must nest correctly; commas and newlines
 * are inserted automatically.
 */

#ifndef VSTREAM_SIM_JSON_WRITER_HH
#define VSTREAM_SIM_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace vstream
{

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Format @p v as a JSON number ("null" for NaN/Inf). */
std::string jsonNumber(double v);

/** Structural JSON writer over an ostream. */
class JsonWriter
{
  public:
    /** @param pretty insert newlines and two-space indentation. */
    explicit JsonWriter(std::ostream &os, bool pretty = true);

    /** Finishes with a trailing newline when the root closes. */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next value call supplies its value. */
    void key(const std::string &k);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(bool v);

    /** key() + value() in one call. */
    template <typename T>
    void
    kv(const std::string &k, const T &v)
    {
        key(k);
        value(v);
    }

  private:
    void beforeValue();
    void beforeContainer(char open);
    void newlineIndent();

    std::ostream &os_;
    bool pretty_;
    bool pending_key_ = false;
    /** Per-depth flag: has this container emitted an element yet? */
    std::vector<bool> has_elem_;
};

} // namespace vstream

#endif // VSTREAM_SIM_JSON_WRITER_HH
