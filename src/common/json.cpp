#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace rpx::json {

bool
Value::boolean() const
{
    if (type_ != Type::Bool)
        throwRuntime("json: value is not a bool");
    return bool_;
}

double
Value::number() const
{
    if (type_ != Type::Number)
        throwRuntime("json: value is not a number");
    return number_;
}

const std::string &
Value::str() const
{
    if (type_ != Type::String)
        throwRuntime("json: value is not a string");
    return string_;
}

const Value::Array &
Value::array() const
{
    if (type_ != Type::Array)
        throwRuntime("json: value is not an array");
    return array_;
}

const Value::Object &
Value::object() const
{
    if (type_ != Type::Object)
        throwRuntime("json: value is not an object");
    return object_;
}

const Value *
Value::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    const auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (!v)
        throwRuntime("json: missing key '", key, "'");
    return *v;
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->number() : fallback;
}

std::string
Value::stringOr(const std::string &key, const std::string &fallback) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->str() : fallback;
}

Value
Value::makeNull()
{
    return Value{};
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double n)
{
    Value v;
    v.type_ = Type::Number;
    v.number_ = n;
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.type_ = Type::String;
    v.string_ = std::move(s);
    return v;
}

Value
Value::makeArray(Array a)
{
    Value v;
    v.type_ = Type::Array;
    v.array_ = std::move(a);
    return v;
}

Value
Value::makeObject(Object o)
{
    Value v;
    v.type_ = Type::Object;
    v.object_ = std::move(o);
    return v;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        throwRuntime("json: ", what, " at offset ", pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLiteral(const char *word)
    {
        const size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    Value
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return Value::makeString(parseString());
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return Value::makeBool(true);
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return Value::makeBool(false);
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return Value::makeNull();
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    fail("unterminated escape");
                const char esc = text_[pos_ + 1];
                pos_ += 2;
                switch (esc) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
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
                    // Basic-plane escapes only; our writers never emit
                    // surrogate pairs, and foreign input with them fails
                    // loudly rather than silently mis-decoding.
                    if (pos_ + 4 > text_.size())
                        fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_ + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad \\u escape");
                    }
                    if (code >= 0xD800 && code <= 0xDFFF)
                        fail("surrogate \\u escapes unsupported");
                    pos_ += 4;
                    // UTF-8 encode the code point.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail("unknown escape");
                }
            } else {
                out += c;
                ++pos_;
            }
        }
        expect('"');
        return out;
    }

    Value
    parseNumber()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0')
            fail("malformed number");
        return Value::makeNumber(v);
    }

    Value
    parseArray()
    {
        expect('[');
        Value::Array items;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Value::makeArray(std::move(items));
        }
        while (true) {
            items.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value::makeArray(std::move(items));
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Value::Object members;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Value::makeObject(std::move(members));
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            members.emplace(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value::makeObject(std::move(members));
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

std::vector<Value>
parseLines(const std::string &text)
{
    std::vector<Value> out;
    std::istringstream is(text);
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        bool blank = true;
        for (char c : line) {
            if (c != ' ' && c != '\t' && c != '\r') {
                blank = false;
                break;
            }
        }
        if (blank)
            continue;
        try {
            out.push_back(parse(line));
        } catch (const std::exception &e) {
            throwRuntime("jsonl line ", lineno, ": ", e.what());
        }
    }
    return out;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
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
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (std::nearbyint(v) == v && std::abs(v) < 9.007199254740992e15)
        return std::to_string(static_cast<long long>(v));
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

} // namespace rpx::json
