/**
 * @file
 * The one JSON emitter, and the one file sink exports are written to.
 *
 * JsonWriter streams a document into a caller-owned string, placing
 * commas and escaping keys and strings itself. The compact layout has
 * no whitespace but the '\n's lineBreak() asks for; the indented one
 * puts each member on its own line (two spaces per level, `"key": `).
 * Doubles print as `%.<precision>g` with a per-writer precision (10 in
 * report tables, 17 in BENCH_*.json). Misuse is not diagnosed.
 */

#ifndef NOC_SIM_JSON_HH
#define NOC_SIM_JSON_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace noc
{

class JsonWriter
{
  public:
    enum class Layout : std::uint8_t { Compact, Indented };

    explicit JsonWriter(std::string &out, Layout layout = Layout::Compact,
                        int precision = 17)
        : out_(out), layout_(layout), precision_(precision)
    {
    }

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** The next value is member @p k of the open object. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool b) { return rawValue(b ? "true" : "false"); }
    JsonWriter &value(double d);

    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    JsonWriter &
    value(T v)
    {
        char buf[24];
        const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
        return rawValue(std::string_view(buf, end - buf));
    }

    /** Append already-rendered JSON as the next value (or, with
     *  commas inside it, as the next several array elements). */
    JsonWriter &rawValue(std::string_view json);

    template <typename T>
    JsonWriter &
    field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

    /** Start the next element on a new line: the '\n' follows its
     *  comma (or the bracket, for a first element). A break with no
     *  element after it in the container is dropped. */
    JsonWriter &lineBreak() { pendingBreak_ = true; return *this; }

  private:
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);
    /** Separator and layout whitespace owed before the next element. */
    void beginElement();
    /** Append @p s as an escaped, quoted JSON string. */
    void appendQuoted(std::string_view s);

    std::string &out_;
    Layout layout_;
    int precision_;
    unsigned depth_ = 0;
    /** Bit d set: the container at depth d already has an element. */
    std::uint64_t nonEmpty_ = 0;
    bool afterKey_ = false;
    bool pendingBreak_ = false;
};

/** Write @p content to @p path, replacing the file. False when it
 *  cannot be opened or the content is not fully written. */
bool writeTextFile(const std::string &path, std::string_view content);

} // namespace noc

#endif // NOC_SIM_JSON_HH
