#include "sim/json.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace noc
{

JsonWriter &
JsonWriter::key(std::string_view k)
{
    value(k);
    out_ += layout_ == Layout::Compact ? ":" : ": ";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    beginElement();
    appendQuoted(s);
    return *this;
}

JsonWriter &
JsonWriter::value(double d)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.*g", precision_, d);
    return rawValue(buf);
}

JsonWriter &
JsonWriter::rawValue(std::string_view json)
{
    beginElement();
    out_ += json;
    return *this;
}

JsonWriter &
JsonWriter::open(char bracket)
{
    rawValue(std::string_view(&bracket, 1));
    if (++depth_ >= 64)
        panic("JsonWriter: nesting deeper than 63 levels");
    nonEmpty_ &= ~(std::uint64_t{1} << depth_);
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    pendingBreak_ = false;
    if (layout_ == Layout::Indented)
        out_.append(1, '\n').append(2 * (depth_ - 1), ' ');
    --depth_;
    out_ += bracket;
    return *this;
}

void
JsonWriter::beginElement()
{
    if (afterKey_ || depth_ == 0) {
        afterKey_ = false;
        return;
    }
    const std::uint64_t bit = std::uint64_t{1} << depth_;
    if (nonEmpty_ & bit)
        out_ += ',';
    nonEmpty_ |= bit;
    if (layout_ == Layout::Indented)
        out_.append(1, '\n').append(2 * depth_, ' ');
    else if (pendingBreak_)
        out_ += '\n';
    pendingBreak_ = false;
}

void
JsonWriter::appendQuoted(std::string_view s)
{
    out_ += '"';
    for (char ch : s) {
        switch (ch) {
          case '"': out_ += "\\\""; break;
          case '\\': out_ += "\\\\"; break;
          case '\n': out_ += "\\n"; break;
          case '\t': out_ += "\\t"; break;
          case '\r': out_ += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out_ += buf;
            } else {
                out_ += ch;
            }
        }
    }
    out_ += '"';
}

bool
writeTextFile(const std::string &path, std::string_view content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool written =
        std::fwrite(content.data(), 1, content.size(), f) == content.size();
    return std::fclose(f) == 0 && written;
}

} // namespace noc
