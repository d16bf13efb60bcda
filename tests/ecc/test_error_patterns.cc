#include <gtest/gtest.h>

#include "common/rng.hh"
#include "tests/support/pattern_reference.hh"

namespace xed::ecc
{
namespace
{

TEST(ErrorPatterns, RandomPatternHasExactWeight)
{
    Rng rng(1);
    for (unsigned w = 1; w <= 8; ++w)
        for (int i = 0; i < 200; ++i)
            EXPECT_EQ(reference::randomPattern(rng, w).weight(),
                      static_cast<int>(w));
}

TEST(ErrorPatterns, RandomPatternCoversAllPositions)
{
    Rng rng(2);
    bool seen[codeLength] = {};
    for (int i = 0; i < 5000; ++i) {
        const auto p = reference::randomPattern(rng, 1);
        for (unsigned pos = 0; pos < codeLength; ++pos)
            if (p.bit(pos))
                seen[pos] = true;
    }
    for (unsigned pos = 0; pos < codeLength; ++pos)
        EXPECT_TRUE(seen[pos]) << pos;
}

TEST(ErrorPatterns, SolidBurstShape)
{
    Rng rng(3);
    for (unsigned len = 1; len <= 8; ++len) {
        for (int i = 0; i < 200; ++i) {
            const auto p = reference::solidBurstPattern(rng, len);
            EXPECT_EQ(p.weight(), static_cast<int>(len));
            // All set bits must be consecutive.
            unsigned first = codeLength, last = 0;
            for (unsigned pos = 0; pos < codeLength; ++pos) {
                if (p.bit(pos)) {
                    first = std::min(first, pos);
                    last = std::max(last, pos);
                }
            }
            EXPECT_EQ(last - first + 1, len);
        }
    }
}

TEST(ErrorPatterns, BurstSpanIsExact)
{
    Rng rng(4);
    for (unsigned len = 2; len <= 8; ++len) {
        for (int i = 0; i < 200; ++i) {
            const auto p = reference::burstPattern(rng, len);
            unsigned first = codeLength, last = 0;
            for (unsigned pos = 0; pos < codeLength; ++pos) {
                if (p.bit(pos)) {
                    first = std::min(first, pos);
                    last = std::max(last, pos);
                }
            }
            EXPECT_EQ(last - first + 1, len);
            EXPECT_GE(p.weight(), 2);
            EXPECT_LE(p.weight(), static_cast<int>(len));
        }
    }
}

TEST(ErrorPatterns, BurstLengthOne)
{
    Rng rng(5);
    const auto p = reference::burstPattern(rng, 1);
    EXPECT_EQ(p.weight(), 1);
}

} // namespace
} // namespace xed::ecc
