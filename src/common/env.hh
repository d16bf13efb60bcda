/**
 * @file
 * Strict environment-variable parsing shared by the engine, the
 * campaign runner, the perfsim run matrix and the bench harnesses.
 *
 * The knobs (XED_MC_SYSTEMS, XED_MC_THREADS, XED_MC_SEED, XED_TRIALS,
 * ...) gate multi-hour simulation campaigns, so a typo must fail
 * loudly instead of silently running with a default: std::strtoul
 * maps garbage to 0 and wraps on overflow, which is exactly the
 * failure mode these helpers replace.
 */

#ifndef XED_COMMON_ENV_HH
#define XED_COMMON_ENV_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

namespace xed
{

/**
 * Parse a full string as a base-10 unsigned 64-bit integer. Returns
 * nullopt for anything else: empty input, signs, whitespace, trailing
 * junk, or a value that overflows. No silent truncation.
 */
inline std::optional<std::uint64_t>
parseU64(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return std::nullopt; // overflow
        value = value * 10 + digit;
    }
    return value;
}

/**
 * Parse a full string as a finite base-10 double. Returns nullopt for
 * anything else: empty input, leading/trailing junk or whitespace,
 * hex floats, inf/nan. The CLI routes every fractional option
 * (--progress-interval, --lease-seconds, ...) through this so
 * "--progress-interval abc" is a usage error instead of silently
 * becoming 0.0 the way a bare strtod would make it.
 */
inline std::optional<double>
parseF64(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    // strtod accepts leading whitespace, "0x..." hex floats and
    // "inf"/"nan"; none of those are sane knob values, so pre-screen
    // to digits, sign, decimal point and exponent characters only.
    for (const char c : text) {
        const bool ok = (c >= '0' && c <= '9') || c == '+' ||
                        c == '-' || c == '.' || c == 'e' || c == 'E';
        if (!ok)
            return std::nullopt;
    }
    const std::string owned(text);
    char *end = nullptr;
    const double value = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size())
        return std::nullopt;
    if (!(value == value) ||
        value > std::numeric_limits<double>::max() ||
        value < -std::numeric_limits<double>::max())
        return std::nullopt; // nan or overflow to +-inf
    return value;
}

/**
 * Read an environment variable as a strict u64. Unset returns
 * nullopt; a set-but-invalid value throws std::runtime_error naming
 * the variable, so a mistyped XED_MC_THREADS aborts the run instead
 * of silently resolving to some default.
 */
inline std::optional<std::uint64_t>
envU64(const char *name)
{
    const char *value = std::getenv(name);
    if (!value)
        return std::nullopt;
    const auto parsed = parseU64(value);
    if (!parsed)
        throw std::runtime_error(
            std::string(name) + ": expected an unsigned base-10 " +
            "integer, got \"" + value + "\"");
    return parsed;
}

/**
 * Resolve a worker-thread count, the one rule behind every pool in the
 * repo (Monte-Carlo engine, campaign runner, perfsim run matrix): a
 * nonzero @p requested wins, else XED_MC_THREADS, else
 * std::thread::hardware_concurrency(), else 1. The result is capped at
 * max(@p tasks, 1) so no worker starts without work. A malformed or
 * absurd XED_MC_THREADS throws instead of silently resolving to
 * "auto"; an explicit 0 keeps its documented "auto" meaning.
 */
inline unsigned
resolveWorkerThreads(unsigned requested, std::uint64_t tasks)
{
    std::uint64_t threads = requested;
    if (threads == 0) {
        if (const auto env = envU64("XED_MC_THREADS")) {
            if (*env > std::numeric_limits<unsigned>::max())
                throw std::runtime_error(
                    "XED_MC_THREADS: " + std::to_string(*env) +
                    " is not a sane worker-thread count");
            threads = *env;
        }
        if (threads == 0)
            threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    return static_cast<unsigned>(std::min<std::uint64_t>(
        threads, std::max<std::uint64_t>(tasks, 1)));
}

} // namespace xed

#endif // XED_COMMON_ENV_HH
