/**
 * Regression tests for the parallel Monte-Carlo engine: sharding the
 * system loop over worker threads must not change the result by a
 * single count, because every system draws from its own counter-based
 * RNG stream (seed, s) regardless of which shard runs it.
 */

#include <gtest/gtest.h>

#include "faultsim/engine.hh"
#include "tests/support/engine_reference.hh"

namespace xed::faultsim
{
namespace
{

McConfig
configWithThreads(unsigned threads, std::uint64_t systems = 60000)
{
    McConfig cfg;
    cfg.systems = systems;
    cfg.seed = 0xDE7;
    cfg.threads = threads;
    return cfg;
}

void
expectIdentical(const McResult &a, const McResult &b)
{
    for (unsigned y = 0; y < a.failByYear.size(); ++y) {
        EXPECT_EQ(a.failByYear[y].successes(),
                  b.failByYear[y].successes())
            << "year " << y;
        EXPECT_EQ(a.failByYear[y].trials(), b.failByYear[y].trials())
            << "year " << y;
    }
    EXPECT_EQ(a.failureTypes.all(), b.failureTypes.all());
}

TEST(EngineParallel, ResultIsThreadCountInvariant)
{
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const auto serial = runMonteCarlo(*scheme, configWithThreads(1));
    const auto two = runMonteCarlo(*scheme, configWithThreads(2));
    const auto eight = runMonteCarlo(*scheme, configWithThreads(8));
    expectIdentical(serial, two);
    expectIdentical(serial, eight);
    EXPECT_GT(serial.probFailure(), 0.0);
}

TEST(EngineParallel, ThreadCountInvariantWithRngHeavySchemes)
{
    // XED + scaling faults exercises the per-event Bernoulli draws in
    // the scheme evaluator, which also come from the per-system stream.
    OnDieOptions onDie;
    onDie.scalingRate = 1e-4;
    const auto scheme = makeScheme(SchemeKind::Xed, onDie);
    const auto serial =
        runMonteCarlo(*scheme, configWithThreads(1, 40000));
    const auto sharded =
        runMonteCarlo(*scheme, configWithThreads(7, 40000));
    expectIdentical(serial, sharded);
}

TEST(EngineParallel, MoreThreadsThanSystems)
{
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const auto serial = runMonteCarlo(*scheme, configWithThreads(1, 5));
    const auto absurd =
        runMonteCarlo(*scheme, configWithThreads(64, 5));
    expectIdentical(serial, absurd);
    EXPECT_EQ(absurd.failByYear[7].trials(), 5u);
}

TEST(EngineParallel, ChunksWithARaggedTailMatchTheReference)
{
    // Workers take mcWorkerChunk systems at a time from a shared
    // index; a count that is no multiple of the chunk (nor of the
    // 64-system block) leaves a short last chunk. Every field of the
    // result, autopsy exemplars included, must match one worker and
    // the per-system reference.
    const std::uint64_t systems = 9 * mcWorkerChunk + 777;
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const McResult want = referenceMonteCarloShard(
        *scheme, configWithThreads(1, systems), 0, systems);
    ASSERT_EQ(want.autopsy.size(), McResult::maxAutopsyRecords);
    for (const unsigned threads : {1u, 3u, 4u})
        EXPECT_EQ(mcResultDifference(
                      runMonteCarlo(*scheme,
                                    configWithThreads(threads, systems)),
                      want),
                  "")
            << threads << " threads";
}

TEST(EngineParallel, FailureTypeBreakdownMatchesTotals)
{
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const auto result = runMonteCarlo(*scheme, configWithThreads(4));
    std::uint64_t byType = 0;
    for (const auto &[type, count] : result.failureTypes.all())
        byType += count;
    // Every failed system is counted under exactly one type; the
    // year-7 failure count is the total number of failed systems.
    EXPECT_EQ(byType, result.failByYear[7].successes());
}

TEST(EngineParallel, MergeReducesPartials)
{
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    // Two disjoint half-runs merged by hand equal one full run when
    // their seeds make the per-system streams line up; here we simply
    // check the arithmetic of merge() itself.
    McResult a = runMonteCarlo(*scheme, configWithThreads(1, 30000));
    const McResult b = runMonteCarlo(*scheme, configWithThreads(2));
    const std::uint64_t trialsA = a.failByYear[7].trials();
    const std::uint64_t failsA = a.failByYear[7].successes();
    a.merge(b);
    EXPECT_EQ(a.failByYear[7].trials(),
              trialsA + b.failByYear[7].trials());
    EXPECT_EQ(a.failByYear[7].successes(),
              failsA + b.failByYear[7].successes());
    for (const auto &[type, count] : b.failureTypes.all())
        EXPECT_GE(a.failureTypes.get(type), count);
}

TEST(EngineParallel, FractionalLifetimeCreditsNoUnfinishedYear)
{
    // years = 0.5 simulates half a year: no full year completed, so no
    // year bucket may report trials (the old engine rounded 0.5 up and
    // credited a full year of exposure to failByYear[1]).
    auto cfg = configWithThreads(2, 20000);
    cfg.years = 0.5;
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const auto result = runMonteCarlo(*scheme, cfg);
    for (unsigned y = 1; y <= 7; ++y)
        EXPECT_EQ(result.failByYear[y].trials(), 0u) << "year " << y;
    EXPECT_DOUBLE_EQ(result.probFailure(), 0.0);
}

TEST(EngineParallel, FractionalLifetimeCountsOnlyCompletedYears)
{
    // years = 2.5: years 1 and 2 completed, year 3 only half-exposed.
    auto cfg = configWithThreads(3, 30000);
    cfg.years = 2.5;
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const auto result = runMonteCarlo(*scheme, cfg);
    EXPECT_EQ(result.failByYear[1].trials(), cfg.systems);
    EXPECT_EQ(result.failByYear[2].trials(), cfg.systems);
    EXPECT_EQ(result.failByYear[3].trials(), 0u);
    EXPECT_DOUBLE_EQ(result.probFailure(), result.failByYear[2].value());
}

} // namespace
} // namespace xed::faultsim
