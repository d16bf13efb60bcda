/**
 * Property-style sweep over error weights comparing the two SECDED
 * candidates, mirroring Table II of the paper in miniature. The full
 * harness lives in bench/table2_detection_rates.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.hh"
#include "ecc/crc8atm.hh"
#include "ecc/hamming7264.hh"
#include "tests/support/pattern_reference.hh"

namespace xed::ecc
{
namespace
{

enum class CodeKind { Hamming, Crc8Atm };
enum class PatternKind { Random, SolidBurst };

using Param = std::tuple<CodeKind, PatternKind, unsigned /*weight*/>;

class DetectionSweep : public ::testing::TestWithParam<Param>
{
  protected:
    static std::unique_ptr<Secded7264>
    makeCode(CodeKind kind)
    {
        if (kind == CodeKind::Hamming)
            return std::make_unique<Hamming7264>();
        return std::make_unique<Crc8Atm>();
    }

    /** Fraction of injected patterns flagged as invalid codewords. */
    static double
    detectionRate(const Secded7264 &code, PatternKind pattern,
                  unsigned weight, int trials)
    {
        Rng rng(0xC0FFEE + weight);
        const Word72 clean = code.encode(0x0123456789ABCDEFull);
        int detected = 0;
        for (int i = 0; i < trials; ++i) {
            const Word72 err =
                pattern == PatternKind::Random
                    ? reference::randomPattern(rng, weight)
                    : reference::solidBurstPattern(rng, weight);
            if (!code.isValidCodeword(clean ^ err))
                ++detected;
        }
        return static_cast<double>(detected) / trials;
    }
};

TEST_P(DetectionSweep, MatchesTable2Band)
{
    const auto [kind, pattern, weight] = GetParam();
    const auto code = makeCode(kind);
    const double rate = detectionRate(*code, pattern, weight, 20000);

    // Table II expectations:
    //  - weights 1..3 and odd weights: 100% for both codes.
    //  - CRC8-ATM bursts: 100% for any length <= 8.
    //  - CRC8-ATM even random weights: ~99.2%.
    //  - Hamming solid bursts of 4/8: ~50.7%.
    //  - Hamming even random weights: >= 98%.
    if (weight <= 3 || weight % 2 == 1) {
        EXPECT_DOUBLE_EQ(rate, 1.0);
        return;
    }
    if (kind == CodeKind::Crc8Atm) {
        if (pattern == PatternKind::SolidBurst) {
            EXPECT_DOUBLE_EQ(rate, 1.0);
        } else {
            EXPECT_NEAR(rate, 0.9922, 0.005);
        }
        return;
    }
    // Hamming, even weight >= 4.
    if (pattern == PatternKind::SolidBurst) {
        // Table II: bursts of 4 and 8 alias to codewords about half the
        // time with natural column ordering; bursts of 6 never do.
        if (weight == 6) {
            EXPECT_DOUBLE_EQ(rate, 1.0);
        } else {
            EXPECT_NEAR(rate, 0.507, 0.03);
        }
    } else {
        EXPECT_GT(rate, 0.97);
        EXPECT_LT(rate, 1.0);
    }
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    std::string name =
        std::get<0>(info.param) == CodeKind::Hamming ? "Hamming"
                                                     : "Crc8Atm";
    name += std::get<1>(info.param) == PatternKind::Random ? "Random"
                                                           : "Burst";
    name += std::to_string(std::get<2>(info.param));
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Table2, DetectionSweep,
    ::testing::Combine(
        ::testing::Values(CodeKind::Hamming, CodeKind::Crc8Atm),
        ::testing::Values(PatternKind::Random, PatternKind::SolidBurst),
        ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)),
    paramName);

} // namespace
} // namespace xed::ecc
