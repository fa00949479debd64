#include "util/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "util/logging.hh"

namespace ramp {
namespace util {

namespace {

/** Shortest decimal form that parses back to exactly @p v. Integral
 *  values within the double-exact range print as plain integers so
 *  counters stay readable. */
void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[40];
    const auto res =
        v == std::floor(v) && std::abs(v) < 9.007199254740992e15
            ? std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(v))
            : std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general);
    out.append(buf, res.ptr);
}

/** @p s as a quoted JSON string: the escapes parseJson decodes. */
void
appendEscapedJson(std::string &out, std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    out += '"';
    std::size_t run = 0; // Start of the pending unescaped run.
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

/** Serialize @p value onto the end of @p out (see writeJson). */
void
appendJson(std::string &out, const JsonValue &value)
{
    switch (value.type) {
      case JsonValue::Type::Null:
        out += "null";
        break;
      case JsonValue::Type::Bool:
        out += value.boolean ? "true" : "false";
        break;
      case JsonValue::Type::Number:
        appendNumber(out, value.number);
        break;
      case JsonValue::Type::String:
        appendEscapedJson(out, value.str);
        break;
      case JsonValue::Type::Array: {
        out += '[';
        bool first = true;
        for (const JsonValue &v : value.array) {
            if (!first)
                out += ',';
            first = false;
            appendJson(out, v);
        }
        out += ']';
        break;
      }
      case JsonValue::Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[k, v] : value.object) {
            if (!first)
                out += ',';
            first = false;
            appendEscapedJson(out, k);
            out += ':';
            appendJson(out, v);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

JsonWriter::JsonWriter(std::ostream &os) : os_(os) {}

void
JsonWriter::separator()
{
    if (root_done_)
        panic("JsonWriter: writing past a complete root value");
    if (!stack_.empty() && stack_.back() == 'O')
        panic("JsonWriter: value emitted where a key is expected");
    if (need_comma_)
        os_ << ',';
}

void
JsonWriter::writeEscaped(std::string_view s)
{
    std::string out;
    appendEscapedJson(out, s);
    os_ << out;
}

namespace {

/** After emitting a value, an enclosing object flips back to
 *  expecting a key; arrays stay arrays. */
void
afterValue(std::vector<char> &stack, bool &need_comma,
           bool &root_done)
{
    if (stack.empty()) {
        root_done = true;
    } else if (stack.back() == 'V') {
        stack.back() = 'O';
    }
    need_comma = true;
}

} // namespace

JsonWriter &
JsonWriter::beginObject()
{
    separator();
    os_ << '{';
    stack_.push_back('O');
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != 'O')
        panic("JsonWriter: endObject outside an object");
    stack_.pop_back();
    os_ << '}';
    afterValue(stack_, need_comma_, root_done_);
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separator();
    os_ << '[';
    stack_.push_back('A');
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != 'A')
        panic("JsonWriter: endArray outside an array");
    stack_.pop_back();
    os_ << ']';
    afterValue(stack_, need_comma_, root_done_);
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    if (stack_.empty() || stack_.back() != 'O')
        panic("JsonWriter: key outside an object");
    if (need_comma_)
        os_ << ',';
    writeEscaped(name);
    os_ << ':';
    stack_.back() = 'V';
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separator();
    writeEscaped(v);
    afterValue(stack_, need_comma_, root_done_);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    if (!std::isfinite(v))
        return null();
    separator();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    os_ << buf;
    afterValue(stack_, need_comma_, root_done_);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separator();
    os_ << v;
    afterValue(stack_, need_comma_, root_done_);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separator();
    os_ << v;
    afterValue(stack_, need_comma_, root_done_);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separator();
    os_ << (v ? "true" : "false");
    afterValue(stack_, need_comma_, root_done_);
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separator();
    os_ << "null";
    afterValue(stack_, need_comma_, root_done_);
    return *this;
}

bool
JsonWriter::complete() const
{
    return root_done_ && stack_.empty();
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::at(std::string_view key) const
{
    const JsonValue *v = find(key);
    if (!v)
        panic(cat("JsonValue: missing key '", std::string(key), "'"));
    return *v;
}

std::optional<std::uint64_t>
JsonValue::asUint() const
{
    constexpr double max_exact = 9007199254740992.0; // 2^53
    if (!isNumber() || !(number >= 0.0) || number > max_exact ||
        number != std::floor(number))
        return std::nullopt;
    return static_cast<std::uint64_t>(number);
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out.type = Type::Bool;
    out.boolean = v;
    return out;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue out;
    out.type = Type::Number;
    out.number = v;
    return out;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue out;
    out.type = Type::String;
    out.str = std::move(v);
    return out;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue out;
    out.type = Type::Array;
    return out;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue out;
    out.type = Type::Object;
    return out;
}

JsonValue &
JsonValue::set(std::string key, JsonValue v)
{
    if (type != Type::Object)
        panic("JsonValue::set on a non-object");
    object.emplace_back(std::move(key), std::move(v));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    if (type != Type::Array)
        panic("JsonValue::push on a non-array");
    array.push_back(std::move(v));
    return *this;
}

void
writeJson(std::ostream &os, const JsonValue &value)
{
    os << writeJson(value);
}

std::string
writeJson(const JsonValue &value)
{
    std::string out;
    appendJson(out, value);
    return out;
}

Result<void>
saveJson(const std::string &path, const JsonValue &value)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return RampError{
                ErrorCode::IoFailure,
                cat("cannot open '", tmp, "' for writing")};
        writeJson(os, value);
        os << '\n';
        os.flush();
        if (!os)
            return RampError{ErrorCode::IoFailure,
                             cat("write to '", tmp, "' failed")};
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return RampError{ErrorCode::IoFailure,
                         cat("cannot rename '", tmp, "' to '", path,
                             "'")};
    return {};
}

namespace {

/** Recursive-descent JSON parser over a string_view. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::optional<JsonValue>
    parseDocument()
    {
        JsonValue root;
        if (!parseValue(root, 0))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after the root value");
            return std::nullopt;
        }
        return root;
    }

  private:
    /** Deep enough for any machine output we emit; bounds the C++
     *  call stack against adversarial nesting. */
    static constexpr std::size_t max_depth = 128;

    bool
    fail(const std::string &msg)
    {
        if (error_ && error_->empty())
            *error_ = cat(msg, " at byte ", pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > max_depth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.type = JsonValue::Type::String;
            return parseString(out.str);
          case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true") || fail("bad literal");
          case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false") || fail("bad literal");
          case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null") || fail("bad literal");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out, std::size_t depth)
    {
        out.type = JsonValue::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.object.emplace_back(std::move(key),
                                    std::move(value));
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue &out, std::size_t depth)
    {
        out.type = JsonValue::Type::Array;
        ++pos_; // '['
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.array.push_back(std::move(value));
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
    }

    /** Append a code point as UTF-8. */
    static void
    appendUtf8(std::string &s, std::uint32_t cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xF0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parseHex4(std::uint32_t &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        for (;;) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("truncated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                std::uint32_t cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: a \uXXXX low half must follow.
                    if (!literal("\\u"))
                        return fail("lone high surrogate");
                    std::uint32_t lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("lone low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        (void)consume('-');
        if (pos_ >= text_.size() ||
            !(text_[pos_] >= '0' && text_[pos_] <= '9'))
            return fail("expected a value");
        if (!consume('0'))
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        if (consume('.')) {
            if (pos_ >= text_.size() ||
                !(text_[pos_] >= '0' && text_[pos_] <= '9'))
                return fail("digits required after decimal point");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !(text_[pos_] >= '0' && text_[pos_] <= '9'))
                return fail("digits required in exponent");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        out.type = JsonValue::Type::Number;
        // The slice is a valid JSON number by construction, which is
        // also a valid strtod input.
        out.number = std::strtod(
            std::string(text_.substr(start, pos_ - start)).c_str(),
            nullptr);
        return true;
    }

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    Parser parser(text, error);
    return parser.parseDocument();
}

} // namespace util
} // namespace ramp
