#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace xed::json
{

double
Value::asDouble() const
{
    switch (rep_) {
      case NumRep::Dbl: return dbl_;
      case NumRep::Int: return static_cast<double>(int_);
      case NumRep::Uint: return static_cast<double>(uint_);
    }
    return 0;
}

std::uint64_t
Value::asUint() const
{
    if (rep_ == NumRep::Uint)
        return uint_;
    if (rep_ == NumRep::Int && int_ >= 0)
        return static_cast<std::uint64_t>(int_);
    return 0;
}

std::int64_t
Value::asInt() const
{
    if (rep_ == NumRep::Int)
        return int_;
    if (rep_ == NumRep::Uint &&
        uint_ <= static_cast<std::uint64_t>(INT64_MAX))
        return static_cast<std::int64_t>(uint_);
    return 0;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[name, value] : members_)
        if (name == key)
            return &value;
    return nullptr;
}

void
Value::set(std::string key, Value v)
{
    kind_ = Kind::Object;
    for (auto &[name, value] : members_) {
        if (name == key) {
            value = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
}

bool
operator==(const Value &a, const Value &b)
{
    if (a.kind_ != b.kind_)
        return false;
    switch (a.kind_) {
      case Value::Kind::Null: return true;
      case Value::Kind::Bool: return a.bool_ == b.bool_;
      case Value::Kind::Number:
        // Exact integers compare exactly; anything involving a double
        // compares as doubles (2.0 == 2).
        if (a.rep_ != Value::NumRep::Dbl && b.rep_ != Value::NumRep::Dbl) {
            if (a.rep_ == b.rep_) {
                return a.rep_ == Value::NumRep::Int ? a.int_ == b.int_
                                                    : a.uint_ == b.uint_;
            }
            const auto &i = a.rep_ == Value::NumRep::Int ? a : b;
            const auto &u = a.rep_ == Value::NumRep::Int ? b : a;
            return i.int_ >= 0 &&
                   static_cast<std::uint64_t>(i.int_) == u.uint_;
        }
        return a.asDouble() == b.asDouble();
      case Value::Kind::String: return a.str_ == b.str_;
      case Value::Kind::Array: return a.arr_ == b.arr_;
      case Value::Kind::Object: return a.members_ == b.members_;
    }
    return false;
}

namespace
{

constexpr int maxDepth = 64;

/**
 * strtod's value of the number text [first, last). from_chars rounds
 * exactly as strtod does wherever it returns a value. A token whose
 * value underflows to zero or overflows to infinity makes it report
 * result_out_of_range instead, so strtod decides those: 1e-400 reads
 * as 0 and 1e309 as inf.
 */
double
toDouble(const char *first, const char *last)
{
    double d = 0;
    if (std::from_chars(first, last, d).ec == std::errc::result_out_of_range)
        return std::strtod(std::string(first, last).c_str(), nullptr);
    return d;
}

/** Room for any formatDoubleTo() text, "-2.2250738585072014e-308". */
constexpr std::size_t doubleChars = 32;

/** formatDouble() into @p buf (doubleChars bytes); returns the end. */
char *
formatDoubleTo(char *buf, double d)
{
    char *const end = buf + doubleChars;
    // Integral values print as plain integers ("10", not "1e+01");
    // below 2^53 the decimal form is exact, so it still round-trips.
    if (std::abs(d) < 0x1.0p53 && d == std::floor(d))
        return std::to_chars(buf, end, d, std::chars_format::fixed, 0).ptr;
    // The shortest round-tripping decimal has n significant digits, so
    // no "%.{P}g" with P < n round-trips: the search starts at n.
    char *last =
        std::to_chars(buf, end, d, std::chars_format::scientific).ptr;
    if (!std::isfinite(d))
        return last; // "inf", "-nan", ...: printf's spelling too
    int precision = 0;
    for (const char *c = buf; c != last && *c != 'e'; ++c)
        precision += *c >= '0' && *c <= '9';
    // "%.{P}g" (to_chars general with precision P) is the P-digit
    // decimal nearest d. The shortest form can be a farther one, on the
    // wide side of a power of two's lopsided rounding interval, so P = n
    // can miss. "%.17g" always round-trips, so the loop ends there.
    for (;; ++precision) {
        last = std::to_chars(buf, end, d, std::chars_format::general,
                             precision)
                   .ptr;
        if (precision >= 17 || toDouble(buf, last) == d)
            return last;
    }
}

/** Recursive-descent parser over a string_view with offset tracking. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Value>
    run(std::string *error)
    {
        std::optional<Value> value = parseValue(0);
        if (value) {
            skipWs();
            if (pos_ != text_.size()) {
                fail("trailing characters after JSON document");
                value.reset();
            }
        }
        if (!value && error)
            *error = error_;
        return value;
    }

  private:
    void
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at offset " + std::to_string(pos_);
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

    bool
    consume(char expected)
    {
        if (pos_ < text_.size() && text_[pos_] == expected) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::optional<Value>
    parseValue(int depth)
    {
        if (depth > maxDepth) {
            fail("nesting deeper than " + std::to_string(maxDepth));
            return std::nullopt;
        }
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return std::nullopt;
        }
        switch (text_[pos_]) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': {
              std::string s;
              if (!parseString(s))
                  return std::nullopt;
              return Value(std::move(s));
          }
          case 't': return parseLiteral("true", Value(true));
          case 'f': return parseLiteral("false", Value(false));
          case 'n': return parseLiteral("null", Value(nullptr));
          default: return parseNumber();
        }
    }

    std::optional<Value>
    parseLiteral(const char *word, Value value)
    {
        const std::size_t n = std::strlen(word);
        if (text_.substr(pos_, n) != word) {
            fail("invalid literal");
            return std::nullopt;
        }
        pos_ += n;
        return value;
    }

    std::optional<Value>
    parseObject(int depth)
    {
        ++pos_; // '{'
        Value object = Value::object();
        skipWs();
        if (consume('}'))
            return object;
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key string");
                return std::nullopt;
            }
            std::string key;
            if (!parseString(key))
                return std::nullopt;
            if (object.find(key)) {
                fail("duplicate object key \"" + key + "\"");
                return std::nullopt;
            }
            skipWs();
            if (!consume(':')) {
                fail("expected ':' after object key");
                return std::nullopt;
            }
            auto value = parseValue(depth + 1);
            if (!value)
                return std::nullopt;
            object.set(std::move(key), std::move(*value));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return object;
            fail("expected ',' or '}' in object");
            return std::nullopt;
        }
    }

    std::optional<Value>
    parseArray(int depth)
    {
        ++pos_; // '['
        Value array = Value::array();
        skipWs();
        if (consume(']'))
            return array;
        while (true) {
            auto value = parseValue(depth + 1);
            if (!value)
                return std::nullopt;
            array.push(std::move(*value));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return array;
            fail("expected ',' or ']' in array");
            return std::nullopt;
        }
    }

    bool
    parseHex4(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            unsigned digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                digit = c - 'A' + 10;
            else
                return false;
            out = out << 4 | digit;
        }
        pos_ += 4;
        return true;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | cp >> 6);
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | cp >> 12);
            out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | cp >> 18);
            out += static_cast<char>(0x80 | (cp >> 12 & 0x3F));
            out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    /** Decode the string at pos_ into @p out; false on malformed input. */
    bool
    parseString(std::string &out)
    {
        ++pos_; // '"'
        while (true) {
            // Copy each run of bytes that need no decoding in one go.
            const std::size_t run = pos_;
            while (pos_ < text_.size()) {
                const unsigned char c = text_[pos_];
                if (c == '"' || c == '\\' || c < 0x20)
                    break;
                ++pos_;
            }
            out.append(text_, run, pos_ - run);
            if (pos_ >= text_.size()) {
                fail("unterminated string");
                return false;
            }
            const unsigned char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20) {
                fail("unescaped control character in string");
                return false;
            }
            ++pos_; // '\'
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
                return false;
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  unsigned cp;
                  if (!parseHex4(cp)) {
                      fail("invalid \\u escape");
                      return false;
                  }
                  if (cp >= 0xD800 && cp < 0xDC00) {
                      // High surrogate: a \uXXXX low surrogate must
                      // follow.
                      if (!(consume('\\') && consume('u'))) {
                          fail("unpaired high surrogate");
                          return false;
                      }
                      unsigned low;
                      if (!parseHex4(low) || low < 0xDC00 || low > 0xDFFF) {
                          fail("invalid low surrogate");
                          return false;
                      }
                      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                  } else if (cp >= 0xDC00 && cp < 0xE000) {
                      fail("unpaired low surrogate");
                      return false;
                  }
                  appendUtf8(out, cp);
                  break;
              }
              default:
                fail("invalid escape character");
                return false;
            }
        }
    }

    std::optional<Value>
    parseNumber()
    {
        const std::size_t start = pos_;
        bool negative = false;
        if (consume('-'))
            negative = true;
        // Integer part: "0" or nonzero digit followed by digits.
        if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
            fail("invalid number");
            return std::nullopt;
        }
        if (text_[pos_] == '0')
            ++pos_;
        else
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        bool integral = true;
        if (consume('.')) {
            integral = false;
            if (pos_ >= text_.size() || text_[pos_] < '0' ||
                text_[pos_] > '9') {
                fail("digits required after decimal point");
                return std::nullopt;
            }
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' ||
                text_[pos_] > '9') {
                fail("digits required in exponent");
                return std::nullopt;
            }
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        // The token is valid JSON number syntax, which from_chars
        // accepts whole.
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (integral) {
            // Keep counts exact: parse into uint64 / int64 when they
            // fit, falling back to double only on overflow.
            if (!negative) {
                std::uint64_t u = 0;
                if (std::from_chars(first, last, u).ec == std::errc())
                    return Value(u);
            } else {
                std::int64_t i = 0;
                if (std::from_chars(first, last, i).ec == std::errc())
                    return Value(i);
            }
        }
        const double d = toDouble(first, last);
        if (!std::isfinite(d)) {
            fail("number out of range");
            return std::nullopt;
        }
        return Value(d);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, const Value &v)
{
    char buf[doubleChars];
    if (v.isIntegral()) {
        // asInt()/asUint() both reproduce the exact stored value for
        // in-range integers; pick by sign.
        const std::to_chars_result digits =
            v.asDouble() < 0 ? std::to_chars(buf, std::end(buf), v.asInt())
                             : std::to_chars(buf, std::end(buf), v.asUint());
        out.append(buf, digits.ptr);
        return;
    }
    const double d = v.asDouble();
    if (!std::isfinite(d)) {
        out += "null"; // JSON cannot represent inf/nan
        return;
    }
    out.append(buf, formatDoubleTo(buf, d));
}

void
dumpTo(std::string &out, const Value &v, int indent, int depth)
{
    const bool pretty = indent > 0;
    const auto newline = [&](int d) {
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (v.kind()) {
      case Value::Kind::Null: out += "null"; break;
      case Value::Kind::Bool: out += v.asBool() ? "true" : "false"; break;
      case Value::Kind::Number: appendNumber(out, v); break;
      case Value::Kind::String: appendEscaped(out, v.asString()); break;
      case Value::Kind::Array:
        out += '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            dumpTo(out, v.at(i), indent, depth + 1);
        }
        if (v.size())
            newline(depth);
        out += ']';
        break;
      case Value::Kind::Object:
        out += '{';
        for (std::size_t i = 0; i < v.members().size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            appendEscaped(out, v.members()[i].first);
            out += pretty ? ": " : ":";
            dumpTo(out, v.members()[i].second, indent, depth + 1);
        }
        if (v.members().size())
            newline(depth);
        out += '}';
        break;
    }
}

} // namespace

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    return Parser(text).run(error);
}

std::string
dump(const Value &value)
{
    std::string out;
    dumpTo(out, value, 0, 0);
    return out;
}

std::string
dumpPretty(const Value &value)
{
    std::string out;
    dumpTo(out, value, 2, 0);
    return out;
}

std::string
formatDouble(double d)
{
    char buf[doubleChars];
    return std::string(buf, formatDoubleTo(buf, d));
}

} // namespace xed::json
