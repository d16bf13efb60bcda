/**
 * @file
 * json.cc's number I/O against the frozen printf/strtod code in
 * tests/support/json_reference: formatDouble() must return the same
 * bytes on over a million seeded doubles, and parse() must read every
 * number token to the same value (same integer or double
 * representation, doubles compared as bit patterns) or reject it the
 * same way. Stores, sidecars and specs pin these bytes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include "common/json.hh"
#include "tests/support/json_reference.hh"

using namespace xed;

namespace
{

std::uint64_t
bitsOf(double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

double
fromBits(std::uint64_t bits)
{
    double d = 0;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

/** Expect formatDouble() to match the reference on every value, with
 *  the first few mismatches listed by bit pattern. */
void
expectSameFormat(const std::vector<double> &values)
{
    std::size_t mismatches = 0;
    for (const double d : values) {
        const std::string want = json::reference::formatDouble(d);
        const std::string got = json::formatDouble(d);
        if (got == want)
            continue;
        if (++mismatches <= 10)
            ADD_FAILURE() << "bits 0x" << std::hex << bitsOf(d)
                          << std::dec << ": got " << got << ", reference "
                          << want;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

/** Uniform double in [0, 1) from the top 53 bits of a draw. */
double
unit(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/**
 * Values [begin, begin + 100k) of a seeded class of doubles. Each
 * slice regenerates the class's whole stream up to its end and keeps
 * its own range, so a class's slices hold exactly its values while
 * ctest -j runs them side by side.
 */
template <class Draw>
std::vector<double>
slice(std::uint64_t seed, std::size_t begin, Draw draw)
{
    std::mt19937_64 rng(seed);
    std::vector<double> values;
    for (std::size_t i = 0; i < begin + 100'000; ++i) {
        const double d = draw(rng);
        if (i >= begin)
            values.push_back(d);
    }
    return values;
}

double
uniformBitPattern(std::mt19937_64 &rng)
{
    return fromBits(rng());
}

double
subnormal(std::mt19937_64 &rng)
{
    // Zero exponent, random mantissa and sign.
    const std::uint64_t mantissa = rng() & ((1ull << 52) - 1);
    return fromBits((rng() & (1ull << 63)) | (mantissa ? mantissa : 1));
}

double
timeHoursLike(std::mt19937_64 &rng)
{
    // Autopsy failure times: hours within a 7-year lifetime, the bulk
    // of every forensics sidecar's numbers.
    return unit(rng) * 61320.0;
}

} // namespace

// 400k uniform bit patterns, in four slices.
TEST(JsonEquivalence, FormatDoubleUniformBitPatternsSlice0)
{
    expectSameFormat(slice(0x5eed0001, 0, uniformBitPattern));
}

TEST(JsonEquivalence, FormatDoubleUniformBitPatternsSlice1)
{
    expectSameFormat(slice(0x5eed0001, 100'000, uniformBitPattern));
}

TEST(JsonEquivalence, FormatDoubleUniformBitPatternsSlice2)
{
    expectSameFormat(slice(0x5eed0001, 200'000, uniformBitPattern));
}

TEST(JsonEquivalence, FormatDoubleUniformBitPatternsSlice3)
{
    expectSameFormat(slice(0x5eed0001, 300'000, uniformBitPattern));
}

TEST(JsonEquivalence, FormatDoublePowersOfTwoAndNeighbours)
{
    // Every power of two from the smallest subnormal to the largest
    // normal, one ulp either side, both signs: the lopsided rounding
    // intervals where the nearest P-digit decimal and the shortest
    // round-trip form part ways.
    std::vector<double> values;
    for (int e = -1074; e <= 1023; ++e) {
        const double p = std::ldexp(1.0, e);
        for (const double d :
             {p, std::nextafter(p, 0.0), std::nextafter(p, INFINITY)}) {
            values.push_back(d);
            values.push_back(-d);
        }
    }
    EXPECT_GT(values.size(), 12'000u);
    expectSameFormat(values);
}

// 200k subnormals, in two slices.
TEST(JsonEquivalence, FormatDoubleSubnormalsSlice0)
{
    expectSameFormat(slice(0x5eed0002, 0, subnormal));
}

TEST(JsonEquivalence, FormatDoubleSubnormalsSlice1)
{
    expectSameFormat(slice(0x5eed0002, 100'000, subnormal));
}

TEST(JsonEquivalence, FormatDoubleIntegersNearTwoTo53)
{
    // 2^53 is where formatDouble() leaves its "%.0f" integer path.
    std::vector<double> values;
    const double top = 0x1.0p53;
    double up = top;
    double down = top;
    for (int k = 0; k < 75'000; ++k) {
        values.push_back(up);
        values.push_back(-down);
        up = std::nextafter(up, INFINITY);
        down = std::nextafter(down, 0.0);
    }
    expectSameFormat(values);
}

// 300k hour-like values, in three slices.
TEST(JsonEquivalence, FormatDoubleTimeHoursLikeValuesSlice0)
{
    expectSameFormat(slice(0x5eed0003, 0, timeHoursLike));
}

TEST(JsonEquivalence, FormatDoubleTimeHoursLikeValuesSlice1)
{
    expectSameFormat(slice(0x5eed0003, 100'000, timeHoursLike));
}

TEST(JsonEquivalence, FormatDoubleTimeHoursLikeValuesSlice2)
{
    expectSameFormat(slice(0x5eed0003, 200'000, timeHoursLike));
}

TEST(JsonEquivalence, FormatDoubleKeepsPrintfSpellings)
{
    // Plain shortest to_chars would print "1e-04" for 1e-4 and
    // "1152921504606846976" for 2^60.
    EXPECT_EQ(json::formatDouble(1e-4), "0.0001");
    EXPECT_EQ(json::formatDouble(1e16), "1e+16");
    EXPECT_EQ(json::formatDouble(-0.0), "-0");
    EXPECT_EQ(json::formatDouble(0x1.0p60), "1.152921504606847e+18");
    for (const double d : {INFINITY, -INFINITY, NAN, -NAN})
        EXPECT_EQ(json::formatDouble(d), json::reference::formatDouble(d));
}

TEST(JsonEquivalence, NumberTokensParseLikeReference)
{
    std::vector<std::string> tokens = {
        "0", "-0", "7", "-7", "0.5", "-0.0", "1e5", "1E+5", "1e-5",
        "0.0001", "9007199254740993", "-9007199254740993",
        "18446744073709551615", "18446744073709551616",
        "-9223372036854775808", "-9223372036854775809",
        "123456789012345678901234567890", "1e-400", "-1e-400", "4e-320",
        "2.2250738585072011e-308", "2.2250738585072014e-308",
        "4.9406564584124654e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "1.7976931348623157e308",
        "1.7976931348623158e308", "1.7976931348623159e308", "1e309",
        "-1e309", "0.1234567890123456789012345678901234567890",
    };
    // Random mantissas across the exponent range, the underflow and
    // overflow edges included.
    std::mt19937_64 rng(0x5eed0004);
    for (int k = 0; k < 20'000; ++k) {
        std::string token = rng() & 1 ? "-" : "";
        token += std::to_string(1 + rng() % 9) + ".";
        for (int digits = 1 + rng() % 20; digits > 0; --digits)
            token += static_cast<char>('0' + rng() % 10);
        token += "e" + std::to_string(static_cast<int>(rng() % 660) - 335);
        tokens.push_back(std::move(token));
    }

    std::size_t mismatches = 0;
    for (const std::string &token : tokens) {
        const auto want = json::reference::parseNumberToken(token);
        std::string error;
        const auto got = json::parse(token, &error);
        bool same = want.has_value() == got.has_value();
        if (same && want) {
            same = got->isIntegral() == want->isIntegral();
            if (same && want->isIntegral())
                same = got->asInt() == want->asInt() &&
                       got->asUint() == want->asUint() &&
                       (got->asDouble() < 0) == (want->asDouble() < 0);
            else if (same)
                same = bitsOf(got->asDouble()) == bitsOf(want->asDouble());
        } else if (same) {
            same = error == "number out of range at offset " +
                                std::to_string(token.size());
        }
        if (!same && ++mismatches <= 10)
            ADD_FAILURE() << "token " << token << ": got "
                          << (got ? json::dump(*got) : error)
                          << ", reference "
                          << (want ? json::dump(*want) : "rejected");
    }
    EXPECT_EQ(mismatches, 0u) << "of " << tokens.size() << " tokens";
}
