/**
 * @file
 * Tests for the shard-level Monte-Carlo entry point the campaign
 * runner builds on: range concatenation must reproduce runMonteCarlo
 * bit-for-bit, a 0-system shard must be a merge identity, FIT
 * overrides in McConfig must take effect, and the progress hook must
 * account for every simulated system.
 */

#include <gtest/gtest.h>

#include "faultsim/engine.hh"

using namespace xed;
using namespace xed::faultsim;

namespace
{

McConfig
smallConfig()
{
    McConfig cfg;
    cfg.systems = 4000;
    cfg.seed = 0x5A4D;
    cfg.threads = 1;
    return cfg;
}

void
expectSameResult(const McResult &a, const McResult &b)
{
    for (unsigned y = 1; y <= 7; ++y) {
        EXPECT_EQ(a.failByYear[y].successes(), b.failByYear[y].successes())
            << "year " << y;
        EXPECT_EQ(a.failByYear[y].trials(), b.failByYear[y].trials())
            << "year " << y;
    }
    EXPECT_EQ(a.failureTypes.all(), b.failureTypes.all());
}

/** expectSameResult plus attribution and the autopsy exemplars: the
 *  full McResult, byte for byte. */
void
expectIdenticalResult(const McResult &a, const McResult &b)
{
    expectSameResult(a, b);
    EXPECT_EQ(a.attribution.byClassKinds, b.attribution.byClassKinds);
    EXPECT_EQ(a.attribution.byOutcome, b.attribution.byOutcome);
    ASSERT_EQ(a.autopsy.size(), b.autopsy.size());
    for (std::size_t i = 0; i < a.autopsy.size(); ++i) {
        EXPECT_EQ(a.autopsy[i].system, b.autopsy[i].system) << i;
        EXPECT_EQ(a.autopsy[i].timeHours, b.autopsy[i].timeHours) << i;
        EXPECT_STREQ(a.autopsy[i].type, b.autopsy[i].type) << i;
        EXPECT_EQ(a.autopsy[i].kindsMask, b.autopsy[i].kindsMask) << i;
        EXPECT_EQ(static_cast<int>(a.autopsy[i].cls),
                  static_cast<int>(b.autopsy[i].cls))
            << i;
        EXPECT_EQ(static_cast<int>(a.autopsy[i].outcome),
                  static_cast<int>(b.autopsy[i].outcome))
            << i;
    }
}

} // namespace

TEST(EngineShard, ConcatenatedShardsMatchFullRun)
{
    const McConfig cfg = smallConfig();
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const McResult full = runMonteCarlo(*scheme, cfg);

    // Uneven cuts, including a degenerate 1-system shard.
    const std::uint64_t cuts[] = {0, 1, 1000, 1003, 2500, 4000};
    McResult merged;
    for (unsigned i = 0; i + 1 < std::size(cuts); ++i)
        merged.merge(
            runMonteCarloShard(*scheme, cfg, cuts[i], cuts[i + 1]));
    // Shard cuts move the survivor-batch boundaries (DESIGN.md section
    // 4j), so this also pins batch-boundary invariance, autopsy
    // exemplars included.
    expectIdenticalResult(merged, full);
}

TEST(EngineShard, EmptyShardIsMergeIdentity)
{
    const McConfig cfg = smallConfig();
    const auto scheme = makeScheme(SchemeKind::Xed, OnDieOptions{});

    const McResult empty = runMonteCarloShard(*scheme, cfg, 100, 100);
    for (unsigned y = 0; y < 8; ++y)
        EXPECT_EQ(empty.failByYear[y].trials(), 0u);
    EXPECT_TRUE(empty.failureTypes.all().empty());
    EXPECT_EQ(empty.probFailure(), 0.0);

    // Merging the identity in either direction changes nothing.
    const McResult base = runMonteCarloShard(*scheme, cfg, 0, 500);
    McResult left = empty;
    left.merge(base);
    expectSameResult(left, base);
    McResult right = base;
    right.merge(empty);
    expectSameResult(right, base);
}

TEST(EngineShard, ZeroSystemsRunIsEmpty)
{
    McConfig cfg = smallConfig();
    cfg.systems = 0;
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const McResult result = runMonteCarlo(*scheme, cfg);
    for (unsigned y = 0; y < 8; ++y)
        EXPECT_EQ(result.failByYear[y].trials(), 0u);
    EXPECT_EQ(result.probFailure(), 0.0);
}

TEST(EngineShard, FitOverrideTakesEffect)
{
    McConfig cfg = smallConfig();
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const McResult baseline = runMonteCarlo(*scheme, cfg);
    ASSERT_GT(baseline.failByYear[7].successes(), 0u);

    // All-zero FIT rates: no faults can arrive, so nothing fails.
    for (auto &entry : cfg.fit.rates)
        entry = FitEntry{};
    const McResult silent = runMonteCarlo(*scheme, cfg);
    EXPECT_EQ(silent.failByYear[7].successes(), 0u);
    EXPECT_EQ(silent.failByYear[7].trials(), cfg.systems);
}

TEST(EngineShard, ProgressHookCountsEverySystem)
{
    McConfig cfg = smallConfig();
    cfg.systems = 3000; // not a multiple of the flush batch
    McProgress progress;
    cfg.progress = &progress;
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});
    const McResult result = runMonteCarlo(*scheme, cfg);
    EXPECT_EQ(progress.systemsDone.load(), cfg.systems);
    EXPECT_EQ(progress.failedSystems.load(),
              result.failByYear[7].successes());

    // The shard entry point accumulates into the same sink.
    runMonteCarloShard(*scheme, cfg, 0, 100);
    EXPECT_EQ(progress.systemsDone.load(), cfg.systems + 100);
}
