/**
 * Parameterized Reed-Solomon sweep: correction capacity across code
 * shapes. For every (n, k) and every (errors, erasures) load, decoding
 * must succeed iff 2*errors + erasures <= n - k, and a claimed success
 * must restore the exact codeword.
 *
 * RS(255,223) lies beyond RsScratch, where ReedSolomon::decode()
 * throws; its row checks that, and holds the frozen reference decoder
 * (tests/support/codec_reference) to the same capacity boundary.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "ecc/reed_solomon.hh"
#include "tests/support/codec_reference.hh"

namespace xed::ecc
{
namespace
{

using Shape = std::pair<unsigned, unsigned>;
using Param = std::tuple<Shape, unsigned /*errors*/, unsigned /*erasures*/>;

class RsSweep : public ::testing::TestWithParam<Param>
{
};

TEST_P(RsSweep, CapacityBoundaryHolds)
{
    const auto [shape, errors, erasures] = GetParam();
    const auto [n, k] = shape;
    if (errors + erasures > n - k + 2)
        GTEST_SKIP() << "load not meaningful for this shape";

    ReedSolomon rs(n, k);
    const legacy::ReedSolomon reference(n, k);
    const auto decode = [&](std::vector<std::uint8_t> &word,
                            const std::vector<unsigned> &declared) {
        if (rs.fitsScratch())
            return rs.decode(word, declared);
        EXPECT_THROW(rs.decode(word, declared), std::invalid_argument);
        return reference.decode(word, declared);
    };
    Rng rng(0x525 + n * 1000 + errors * 10 + erasures);
    const bool withinCapacity =
        2 * errors + erasures <= rs.numCheck();

    int failures = 0;
    int wrongCorrections = 0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
        std::vector<std::uint8_t> data(k);
        for (auto &d : data)
            d = static_cast<std::uint8_t>(rng.below(256));
        const auto clean = rs.encode(data);
        auto word = clean;

        // Choose distinct positions; the first `erasures` of them are
        // declared, the rest are silent errors.
        std::vector<unsigned> positions;
        while (positions.size() < errors + erasures) {
            const auto p = static_cast<unsigned>(rng.below(n));
            bool dup = false;
            for (const auto q : positions)
                dup |= (q == p);
            if (!dup)
                positions.push_back(p);
        }
        for (const auto p : positions)
            word[p] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        const std::vector<unsigned> declared(
            positions.begin(), positions.begin() + erasures);

        const auto result = decode(word, declared);
        if (withinCapacity) {
            ASSERT_NE(result.status, RsStatus::Failure)
                << "n=" << n << " k=" << k << " e=" << errors
                << " s=" << erasures;
            EXPECT_EQ(word, clean);
        } else {
            if (result.status == RsStatus::Failure)
                ++failures;
            else if (word != clean)
                ++wrongCorrections;
        }
    }
    if (!withinCapacity) {
        if (erasures > rs.numCheck()) {
            // More declared erasures than check symbols: the decoder
            // must refuse outright.
            EXPECT_EQ(failures, trials);
        } else if (erasures == rs.numCheck()) {
            // Full erasure budget leaves no residual syndrome: silent
            // excess errors are *always* mapped onto some (wrong)
            // codeword -- the fundamental reason XED must bound the
            // number of catch-words it trusts (Section IX).
            EXPECT_EQ(wrongCorrections + failures, trials);
            EXPECT_GT(wrongCorrections, 0);
        } else {
            // With syndrome slack, the decoder must mostly *detect*
            // failure; mis-corrections are information-theoretically
            // unavoidable but must be a small minority.
            EXPECT_GT(failures, trials / 2)
                << "errors=" << errors << " erasures=" << erasures;
            EXPECT_LT(wrongCorrections, trials / 3);
        }
    }
}

std::string
sweepName(const ::testing::TestParamInfo<Param> &info)
{
    const auto shape = std::get<0>(info.param);
    return "n" + std::to_string(shape.first) + "k" +
           std::to_string(shape.second) + "e" +
           std::to_string(std::get<1>(info.param)) + "s" +
           std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RsSweep,
    ::testing::Combine(
        ::testing::Values(Shape{18, 16}, Shape{36, 32}, Shape{15, 11},
                          Shape{255, 223}),
        ::testing::Values(0u, 1u, 2u, 3u),
        ::testing::Values(0u, 1u, 2u, 3u, 4u)),
    sweepName);

} // namespace
} // namespace xed::ecc
