/**
 * @file
 * Golden-value regression fixtures for the Monte-Carlo engine: exact
 * per-year failure counts and failure-type counters at a small pinned
 * workload (2000 systems, seed 61799, the fig07 seed).
 *
 * These pin the BIT-IDENTICALITY contract of the sampling kernel: the
 * Knuth draw path must consume the same RNG draws in the same order as
 * the original per-call implementation, for any thread count. Any
 * change that alters the draw sequence -- reordering draws, changing a
 * floating-point expression, replacing the Poisson sampler -- fails
 * here with the exact counter diff. The expected values were captured
 * from the pre-SampleContext engine; see DESIGN.md (sampling kernel)
 * for the determinism contract and when regenerating them is
 * legitimate.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "faultsim/engine.hh"

namespace xed::faultsim
{
namespace
{

struct GoldenCase
{
    const char *label;
    SchemeKind kind;
    double scrubIntervalHours;
    double scalingRate;
    /** failByYear[y].successes() for y = 1..7. */
    std::array<std::uint64_t, 7> failuresByYear;
    const char *dominantType;
    std::uint64_t dominantCount;
};

constexpr std::uint64_t goldenSystems = 2000;
constexpr std::uint64_t goldenSeed = 61799;

const GoldenCase goldenCases[] = {
    {"secded", SchemeKind::Secded, 0, 0,
     {40, 80, 114, 150, 187, 214, 239}, "dimm-uncorrectable", 239},
    {"xed", SchemeKind::Xed, 0, 0,
     {0, 0, 0, 1, 1, 1, 2}, "multi-chip-data-loss", 2},
    {"chipkill", SchemeKind::Chipkill, 0, 0,
     {0, 0, 0, 1, 2, 2, 4}, "double-chip", 4},
    {"secded-scaling", SchemeKind::Secded, 0, 1e-4,
     {47, 95, 145, 185, 225, 264, 292}, "dimm-uncorrectable", 231},
    {"xed-scrub", SchemeKind::Xed, 168, 0,
     {0, 0, 0, 1, 1, 1, 2}, "multi-chip-data-loss", 2},
    {"dck-lockstep", SchemeKind::DoubleChipkillLockstep, 0, 0,
     {0, 0, 0, 1, 2, 2, 3}, "triple-chip", 3},
};

McResult
runGolden(const GoldenCase &c, unsigned threads)
{
    McConfig cfg;
    cfg.systems = goldenSystems;
    cfg.seed = goldenSeed;
    cfg.threads = threads;
    cfg.scrubIntervalHours = c.scrubIntervalHours;
    OnDieOptions onDie;
    onDie.scalingRate = c.scalingRate;
    return runMonteCarlo(*makeScheme(c.kind, onDie), cfg);
}

void
expectGolden(const GoldenCase &c, const McResult &result)
{
    for (unsigned y = 1; y <= 7; ++y) {
        EXPECT_EQ(result.failByYear[y].successes(),
                  c.failuresByYear[y - 1])
            << c.label << " year " << y;
        EXPECT_EQ(result.failByYear[y].trials(), goldenSystems)
            << c.label << " year " << y;
    }
    EXPECT_EQ(result.failureTypes.get(c.dominantType), c.dominantCount)
        << c.label << " type " << c.dominantType;
}

TEST(EngineGolden, ExactCountersSingleThread)
{
    for (const GoldenCase &c : goldenCases)
        expectGolden(c, runGolden(c, 1));
}

TEST(EngineGolden, ExactCountersFourThreads)
{
    // Identical counters for any worker count: per-system RNG streams
    // make sharding invisible.
    for (const GoldenCase &c : goldenCases)
        expectGolden(c, runGolden(c, 4));
}

TEST(EngineGolden, ScalingInteractionCounterIsExact)
{
    // The scaling case splits its failures across two causes; pin the
    // secondary counter too so the cause attribution can't drift.
    const auto result = runGolden(goldenCases[3], 1);
    EXPECT_EQ(result.failureTypes.get("due-scaling-interaction"), 61u);
}

TEST(EngineGolden, ShardMergeReproducesSingleThread)
{
    // Merging arbitrary shard cuts must be byte-equal to one pass.
    const GoldenCase &c = goldenCases[0];
    McConfig cfg;
    cfg.systems = goldenSystems;
    cfg.seed = goldenSeed;
    cfg.scrubIntervalHours = c.scrubIntervalHours;
    const auto scheme = makeScheme(c.kind, OnDieOptions{});
    McResult merged;
    const std::uint64_t cuts[] = {0, 7, 512, 1999, 2000};
    for (unsigned i = 0; i + 1 < 5; ++i)
        merged.merge(runMonteCarloShard(*scheme, cfg, cuts[i],
                                        cuts[i + 1]));
    expectGolden(c, merged);
}

} // namespace
} // namespace xed::faultsim
