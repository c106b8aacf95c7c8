/**
 * @file
 * Minimal JSON value model + recursive-descent parser.
 *
 * The observability layer emits several machine-readable formats (metric
 * snapshots, per-frame telemetry journals, bench reports) and a growing set
 * of consumers needs to read them back: the trend comparator diffs bench
 * reports, tests parse-back journals to prove conservation, and tools load
 * committed baselines. This is the one shared reader. It parses standard
 * JSON (RFC 8259 minus \uXXXX surrogate pairs, which our writers never
 * emit) into a small value tree. Writers build their documents as plain
 * strings but render every string through escape() and every double
 * through number(), so all artifacts share one escaping and number rule.
 */

#ifndef RPX_COMMON_JSON_HPP
#define RPX_COMMON_JSON_HPP

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rpx::json {

/** One parsed JSON value (tagged union over the seven JSON kinds). */
class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Value>;
    using Object = std::map<std::string, Value>;

    Value() = default;

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; throw std::runtime_error on kind mismatch. */
    bool boolean() const;
    double number() const;
    const std::string &str() const;
    const Array &array() const;
    const Object &object() const;

    /** Object member lookup; null when absent or not an object. */
    const Value *find(const std::string &key) const;

    /**
     * Member lookup with a required kind: throws std::runtime_error naming
     * the missing/mistyped key — the error surface trend tooling relies on
     * to reject malformed reports loudly instead of comparing garbage.
     */
    const Value &at(const std::string &key) const;

    /** Convenience: member as number/string with a default when absent. */
    double numberOr(const std::string &key, double fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    // Construction (used by the parser; handy for tests).
    static Value makeNull();
    static Value makeBool(bool b);
    static Value makeNumber(double n);
    static Value makeString(std::string s);
    static Value makeArray(Array a);
    static Value makeObject(Object o);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/**
 * Parse one JSON document. Throws std::runtime_error with position
 * information on malformed input (including trailing garbage).
 */
Value parse(const std::string &text);

/**
 * Parse one JSON value per non-empty line (JSONL). Throws on the first
 * malformed line, reporting its 1-based line number.
 */
std::vector<Value> parseLines(const std::string &text);

/** Escape a string for embedding in a JSON string literal. */
std::string escape(const std::string &s);

/**
 * Render a double as a JSON number that parses back to the same value:
 * integral values below 2^53 print as integers, other finite values at
 * max_digits10, and non-finite values (which JSON cannot express) as 0.
 */
std::string number(double v);

} // namespace rpx::json

#endif // RPX_COMMON_JSON_HPP
