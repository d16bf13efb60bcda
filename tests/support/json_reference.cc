#include "tests/support/json_reference.hh"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace xed::json::reference
{

std::string
formatDouble(double d)
{
    char buf[40];
    // Integral values print as plain integers ("10", not "1e+01");
    // below 2^53 the decimal form is exact, so it still round-trips.
    if (std::abs(d) < 0x1.0p53 && d == std::floor(d)) {
        std::snprintf(buf, sizeof buf, "%.0f", d);
        return buf;
    }
    // Shortest decimal form that strtod parses back to the same bits;
    // %.17g always round-trips, so the loop terminates.
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, d);
        if (std::strtod(buf, nullptr) == d)
            break;
    }
    return buf;
}

std::optional<Value>
parseNumberToken(const std::string &token)
{
    const bool negative = !token.empty() && token[0] == '-';
    const bool integral =
        token.find_first_of(".eE") == std::string::npos;
    if (integral) {
        // Keep counts exact: parse into uint64 / int64 when they
        // fit, falling back to double only on overflow.
        errno = 0;
        char *end = nullptr;
        if (!negative) {
            const std::uint64_t u =
                std::strtoull(token.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return Value(u);
        } else {
            const std::int64_t i =
                std::strtoll(token.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return Value(i);
        }
    }
    errno = 0;
    char *end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0' || !std::isfinite(d))
        return std::nullopt;
    return Value(d);
}

} // namespace xed::json::reference
