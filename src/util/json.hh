/**
 * @file
 * Minimal streaming JSON writer for machine-readable experiment
 * output (plotting scripts, CI diffing) plus a small recursive-
 * descent parser used to validate emitted files (telemetry metrics
 * and trace-event output) in tests and tooling. The writer handles
 * nesting, commas, string escaping, and non-finite numbers (emitted
 * as null, since JSON has no NaN/Inf).
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hh"

namespace ramp {
namespace util {

/** Streaming JSON writer over an ostream. */
class JsonWriter
{
  public:
    /** Write to the stream; the stream must outlive the writer. */
    explicit JsonWriter(std::ostream &os);

    /** Start the root (or a nested) object. */
    JsonWriter &beginObject();

    /** Close the innermost object. */
    JsonWriter &endObject();

    /** Start an array (as a value or root). */
    JsonWriter &beginArray();

    /** Close the innermost array. */
    JsonWriter &endArray();

    /** Emit an object key; must be followed by exactly one value. */
    JsonWriter &key(std::string_view name);

    /** Emit a string value. */
    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v);

    /** Emit a number (null when not finite). */
    JsonWriter &value(double v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);

    /** Emit a boolean. */
    JsonWriter &value(bool v);

    /** Emit null. */
    JsonWriter &null();

    /** Shorthand: key + value. */
    template <typename T>
    JsonWriter &
    kv(std::string_view name, T v)
    {
        key(name);
        return value(v);
    }

    /** True once the root value is complete and balanced. */
    bool complete() const;

  private:
    void separator();
    void writeEscaped(std::string_view s);

    std::ostream &os_;
    /** Stack: 'O' in object (expecting key), 'V' in object
     *  (expecting value), 'A' in array. */
    std::vector<char> stack_;
    bool need_comma_ = false;
    bool root_done_ = false;
};

/** A parsed JSON document node. */
struct JsonValue
{
    enum class Type {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Insertion-ordered; duplicate keys are kept as parsed. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** find() that dies (panic) when the key is missing. */
    const JsonValue &at(std::string_view key) const;

    /**
     * The number as a non-negative integer (ids, indexes, versions,
     * seeds). nullopt when it is not a number, negative, fractional,
     * or above 2^53, past which a double no longer holds every
     * integer -- so the conversion can never overflow.
     */
    std::optional<std::uint64_t> asUint() const;

    // --- Construction helpers (building documents to serialize) ---

    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray();
    static JsonValue makeObject();

    /** Append an object member (no duplicate-key check) and return
     *  *this for chaining. Panics when this is not an object. */
    JsonValue &set(std::string key, JsonValue v);

    /** Append an array element; panics when this is not an array. */
    JsonValue &push(JsonValue v);
};

/**
 * Serialize a document tree. Exact round-trip with parseJson: string
 * escaping matches the parser's decoding, and numbers are printed
 * with the shortest representation that parses back to the same
 * double (integral values in range print without an exponent or
 * fraction). Non-finite numbers cannot be represented and are
 * emitted as null, as JsonWriter does.
 */
void writeJson(std::ostream &os, const JsonValue &value);

/** writeJson into a string (protocol messages, tests). */
std::string writeJson(const JsonValue &value);

/**
 * Write @p value plus a newline to @p path atomically: it goes to
 * `path.tmp` first, which is then renamed over @p path, so a reader
 * sees the old file or the new one, never a torn one. IoFailure when
 * the temp file cannot be opened, written or renamed.
 */
[[nodiscard]] Result<void> saveJson(const std::string &path,
                                    const JsonValue &value);

/**
 * Parse a complete JSON document. Strict: one root value, no trailing
 * garbage, no comments, no trailing commas. \uXXXX escapes are
 * decoded to UTF-8 (surrogate pairs included).
 *
 * @param text The document.
 * @param error When non-null, receives a message with the byte
 *        offset on failure.
 * @return The root value, or nullopt on malformed input.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

} // namespace util
} // namespace ramp

