#include "sim/json_writer.hh"

#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace vstream
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    // Integers up to 2^53 print exactly, without an exponent, so
    // counters stay grep-able; everything else round-trips via %.17g.
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

JsonWriter::JsonWriter(std::ostream &os, bool pretty)
    : os_(os), pretty_(pretty)
{
}

JsonWriter::~JsonWriter()
{
    if (has_elem_.empty()) {
        os_ << "\n";
    }
}

void
JsonWriter::newlineIndent()
{
    if (!pretty_) {
        return;
    }
    os_ << "\n";
    for (std::size_t i = 0; i < has_elem_.size(); ++i) {
        os_ << "  ";
    }
}

void
JsonWriter::beforeValue()
{
    if (pending_key_) {
        pending_key_ = false;
        return;
    }
    if (!has_elem_.empty()) {
        if (has_elem_.back()) {
            os_ << ",";
        }
        has_elem_.back() = true;
        newlineIndent();
    }
}

void
JsonWriter::beforeContainer(char open)
{
    beforeValue();
    os_ << open;
    has_elem_.push_back(false);
}

void
JsonWriter::beginObject()
{
    beforeContainer('{');
}

void
JsonWriter::endObject()
{
    vs_assert(!has_elem_.empty(), "endObject with no open container");
    const bool had = has_elem_.back();
    has_elem_.pop_back();
    if (had) {
        newlineIndent();
    }
    os_ << "}";
    if (has_elem_.empty()) {
        os_ << "\n";
        has_elem_.push_back(true); // root closed; suppress dtor newline
    }
}

void
JsonWriter::beginArray()
{
    beforeContainer('[');
}

void
JsonWriter::endArray()
{
    vs_assert(!has_elem_.empty(), "endArray with no open container");
    const bool had = has_elem_.back();
    has_elem_.pop_back();
    if (had) {
        newlineIndent();
    }
    os_ << "]";
    if (has_elem_.empty()) {
        os_ << "\n";
        has_elem_.push_back(true);
    }
}

void
JsonWriter::key(const std::string &k)
{
    vs_assert(!has_elem_.empty(), "key() outside an object");
    if (has_elem_.back()) {
        os_ << ",";
    }
    has_elem_.back() = true;
    newlineIndent();
    os_ << '"' << jsonEscape(k) << "\":" << (pretty_ ? " " : "");
    pending_key_ = true;
}

void
JsonWriter::value(const std::string &v)
{
    beforeValue();
    os_ << '"' << jsonEscape(v) << '"';
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(double v)
{
    beforeValue();
    os_ << jsonNumber(v);
}

void
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    os_ << v;
}

void
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    os_ << v;
}

void
JsonWriter::value(bool v)
{
    beforeValue();
    os_ << (v ? "true" : "false");
}

} // namespace vstream
