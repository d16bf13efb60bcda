#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/rng.hh"

namespace xed
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.below(72);
        EXPECT_LT(v, 72u);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    bool seen[9] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.below(9)] = true;
    for (const bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(5);
    const double rate = 4.0;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, StreamIsDeterministicPerIndex)
{
    // The counter-based derivation depends only on (seed, index); it
    // must not matter in which order or how often streams are made.
    Rng late = Rng::stream(0xFA517, 1000);
    Rng early = Rng::stream(0xFA517, 3);
    Rng earlyAgain = Rng::stream(0xFA517, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(early.next(), earlyAgain.next());
    (void)late;
}

TEST(Rng, StreamsWithDifferentIndicesAreIndependent)
{
    Rng a = Rng::stream(0xFA517, 0);
    Rng b = Rng::stream(0xFA517, 1);
    Rng c = Rng::stream(0xFA518, 0); // different seed, same index
    int sameAb = 0, sameAc = 0;
    for (int i = 0; i < 64; ++i) {
        const auto va = a.next();
        sameAb += (va == b.next()) ? 1 : 0;
        sameAc += (va == c.next()) ? 1 : 0;
    }
    EXPECT_LT(sameAb, 2);
    EXPECT_LT(sameAc, 2);
}

TEST(Rng, StreamIndexZeroIsNotTheRawSeed)
{
    // stream(seed, 0) must be a distinct stream, not Rng(seed) itself,
    // or the serial engine's historical stream would alias system 0.
    Rng raw(0xFA517);
    Rng stream0 = Rng::stream(0xFA517, 0);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (raw.next() == stream0.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, FromStateResumesTheStream)
{
    Rng rng = Rng::stream(0xF5, 9);
    for (int i = 0; i < 3; ++i)
        rng.next();
    Rng resumed = Rng::fromState(rng.state());
    EXPECT_EQ(resumed.state(), rng.state());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(resumed.next(), rng.next());
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(123);
    Rng child = a.fork();
    // The forked stream must not replay the parent stream.
    Rng b(123);
    b.next(); // advance as the fork did
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (child.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

/** Expect @p a and @p b to continue with the same draws. */
void
expectSameStream(Rng a, Rng b)
{
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, JumpEqualsThatManyDraws)
{
    std::vector<std::uint64_t> counts = {
        0, 1, 2, 63, 64, 65, (1 << 20) - 1, 1 << 20, (1 << 22) + 12345};
    std::mt19937_64 pick(0x1A3E);
    counts.push_back(pick() % (std::uint64_t{1} << 26));
    std::sort(counts.begin(), counts.end());

    const Rng start(0xC0117);
    Rng stepped = start;
    std::uint64_t steps = 0;
    for (const std::uint64_t n : counts) {
        SCOPED_TRACE(n);
        for (; steps < n; ++steps)
            stepped.next();
        Rng jumped = start;
        jumped.jump(n);
        expectSameStream(jumped, stepped);
    }
}

TEST(Rng, JumpsCompose)
{
    const std::uint64_t big = std::uint64_t{1} << 63;
    for (const auto &[a, b] :
         {std::pair<std::uint64_t, std::uint64_t>{0, 5}, {300, 1 << 20},
          {(1ull << 40) + 7, 123456789}, {big - 1, big}}) {
        SCOPED_TRACE(a);
        Rng twice(0x7AB3), once(0x7AB3);
        twice.jump(a);
        twice.jump(b);
        once.jump(a + b);
        expectSameStream(twice, once);
    }
}

} // namespace
} // namespace xed
