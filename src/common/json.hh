/**
 * @file
 * A small hand-rolled JSON value type, strict parser and deterministic
 * writer for the campaign subsystem (specs, JSONL result stores,
 * telemetry lines).
 *
 * Design constraints, in priority order:
 *  1. Deterministic output: dumping the same Value always yields the
 *     same bytes. Object members keep insertion order, integers print
 *     exactly, and doubles print as formatDouble() spells them. This
 *     is what makes a resumed campaign's JSONL file byte-identical to
 *     an uninterrupted run.
 *  2. Exact integers: Monte-Carlo trial/success counts are uint64 and
 *     must survive a round-trip without drifting through a double.
 *  3. Strict parsing: malformed input (truncated documents, trailing
 *     garbage, duplicate keys, bad escapes) is rejected with a
 *     position-bearing error, never silently repaired -- a campaign
 *     spec typo should fail --dry-run, not simulate the wrong thing.
 */

#ifndef XED_COMMON_JSON_HH
#define XED_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xed::json
{

class Value;

/** Insertion-ordered object member (determinism requires no sorting). */
using Member = std::pair<std::string, Value>;

class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Value() = default;
    Value(std::nullptr_t) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Number), rep_(NumRep::Dbl), dbl_(d) {}
    Value(std::int64_t i) : kind_(Kind::Number), rep_(NumRep::Int), int_(i) {}
    Value(std::uint64_t u) : kind_(Kind::Number), rep_(NumRep::Uint), uint_(u)
    {}
    Value(int i) : Value(static_cast<std::int64_t>(i)) {}
    Value(unsigned u) : Value(static_cast<std::uint64_t>(u)) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(const char *s) : Value(std::string(s)) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }
    /** Number that was written without '.', 'e' and fits an integer. */
    bool isIntegral() const
    {
        return kind_ == Kind::Number && rep_ != NumRep::Dbl;
    }

    /** Accessors: the caller must have checked the kind. */
    bool asBool() const { return bool_; }
    double asDouble() const;
    /** Exact unsigned value; requires isIntegral() and >= 0. */
    std::uint64_t asUint() const;
    /** Exact signed value; requires isIntegral() and fitting int64. */
    std::int64_t asInt() const;
    const std::string &asString() const { return str_; }

    // -- Array interface ------------------------------------------------
    std::size_t size() const
    {
        return kind_ == Kind::Array ? arr_.size() : members_.size();
    }
    const Value &at(std::size_t i) const { return arr_[i]; }
    const std::vector<Value> &items() const { return arr_; }
    void push(Value v) { arr_.push_back(std::move(v)); }

    // -- Object interface -----------------------------------------------
    const std::vector<Member> &members() const { return members_; }
    /** Lookup; nullptr when absent (or not an object). */
    const Value *find(std::string_view key) const;
    /** Insert-or-overwrite, preserving first-insertion order. */
    void set(std::string key, Value v);

    friend bool operator==(const Value &a, const Value &b);

  private:
    enum class NumRep { Dbl, Int, Uint };

    Kind kind_ = Kind::Null;
    NumRep rep_ = NumRep::Dbl;
    bool bool_ = false;
    double dbl_ = 0;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<Member> members_;
};

/**
 * Parse a complete JSON document. The whole input must be consumed
 * (trailing whitespace allowed). On failure returns std::nullopt and,
 * when @p error is non-null, stores a message with the byte offset.
 */
std::optional<Value> parse(std::string_view text,
                           std::string *error = nullptr);

/**
 * Serialize compactly (no whitespace) and deterministically: members
 * in insertion order, integral numbers as exact integers, doubles as
 * formatDouble() prints them. Non-finite doubles (which JSON cannot
 * represent) become null.
 */
std::string dump(const Value &value);

/** Serialize with 2-space indentation for human consumption. */
std::string dumpPretty(const Value &value);

/**
 * Decimal form of a finite double that strtod reads back to the same
 * bits. Integral values of magnitude below 2^53 print as integers
 * ("%.0f": "10", "-0"). Any other value prints as printf's "%.{P}g" at
 * the smallest precision P in 1..17 that round-trips: 0.0001 stays
 * "0.0001" where the shortest round-trip form would be "1e-04", and
 * 2^60 prints as "1.152921504606847e+18". Stores and specs pin these
 * bytes.
 */
std::string formatDouble(double d);

} // namespace xed::json

#endif // XED_COMMON_JSON_HH
