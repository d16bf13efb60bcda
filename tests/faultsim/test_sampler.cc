/**
 * @file
 * The Poisson fault-count sampler and the SampleContext prefix-CDF
 * kind picker: exactness of the hoisted tables against the original
 * per-call code paths, and the sampled counts against the analytic
 * Poisson pmf.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/units.hh"
#include "dram/geometry.hh"
#include "faultsim/fault_model.hh"
#include "tests/support/sample_poisson.hh"

namespace xed::faultsim
{
namespace
{

SampleContext
contextFor(double hours = evaluationHours)
{
    const dram::ChipGeometry geometry{};
    const AddressLayout layout(geometry);
    return SampleContext(FitTable{}, layout, DimmShape{}, hours);
}

TEST(PoissonSampler, KnuthContextPathMatchesFreeFunction)
{
    // The hoisted exp(-lambda) + integer zero-draw fast path must
    // consume the same draws and return the same counts as
    // samplePoisson() on an identical stream.
    const SampleContext ctx = contextFor();
    Rng a = Rng::stream(99, 7);
    Rng b = Rng::stream(99, 7);
    for (int i = 0; i < 50000; ++i) {
        ASSERT_EQ(ctx.sampleFaultCount(a),
                  samplePoisson(b, ctx.lambda()));
        ASSERT_EQ(a.next(), b.next()) << "draw sequences diverged";
    }
}

TEST(PoissonSampler, PrefixCdfPickKindMatchesLinearScan)
{
    // Randomized FIT tables (zero entries included): the prefix-sum
    // pickKind must agree with pickFaultKind for every draw in
    // [0, totalFit), boundary rule included.
    const dram::ChipGeometry geometry{};
    const AddressLayout layout(geometry);
    Rng rng(0xF17);
    for (int table = 0; table < 200; ++table) {
        FitTable fit{};
        for (unsigned i = 0; i < numFaultKinds; ++i) {
            // ~1/3 of entries exactly zero to exercise empty brackets.
            fit.rates[i].transient =
                rng.uniform() < 0.3 ? 0.0 : rng.uniform() * 20.0;
            fit.rates[i].permanent =
                rng.uniform() < 0.3 ? 0.0 : rng.uniform() * 20.0;
        }
        if (fit.totalFit() <= 0)
            continue;
        const SampleContext ctx(fit, layout, DimmShape{}, 1000.0);
        ASSERT_DOUBLE_EQ(ctx.totalFit(), fit.totalFit());
        for (int d = 0; d < 500; ++d) {
            const double draw = rng.uniform() * fit.totalFit();
            ASSERT_EQ(ctx.pickKind(draw), pickFaultKind(fit, draw))
                << "table " << table << " draw " << draw;
        }
        // Bracket boundaries are the interesting edge: a draw exactly
        // on a cumulative sum belongs to the NEXT kind.
        double cumulative = 0;
        for (unsigned i = 0; i + 1 < numFaultKinds; ++i) {
            cumulative += fit.rates[i].total();
            if (cumulative < fit.totalFit()) {
                ASSERT_EQ(ctx.pickKind(cumulative),
                          pickFaultKind(fit, cumulative));
            }
        }
        ASSERT_EQ(ctx.pickKind(0.0), pickFaultKind(fit, 0.0));
    }
}

/** Empirical count histogram over n draws. */
std::vector<std::uint64_t>
histogram(const SampleContext &ctx, std::uint64_t seed, int n)
{
    std::vector<std::uint64_t> bins(16, 0);
    Rng rng = Rng::stream(seed, 0);
    for (int i = 0; i < n; ++i) {
        const unsigned k = ctx.sampleFaultCount(rng);
        bins[std::min<unsigned>(k, bins.size() - 1)]++;
    }
    return bins;
}

void
expectMatchesPoissonPmf(const SampleContext &ctx, std::uint64_t seed)
{
    const int n = 400000;
    const auto bins = histogram(ctx, seed, n);
    const double lambda = ctx.lambda();
    double p = std::exp(-lambda);
    for (unsigned k = 0; k + 1 < bins.size(); ++k) {
        const double expected = n * p;
        // 5-sigma binomial band; the test is deterministic (fixed
        // seed), the width just keeps it robust across operating points.
        const double slack = 5.0 * std::sqrt(n * p * (1 - p)) + 1.0;
        EXPECT_NEAR(static_cast<double>(bins[k]), expected, slack)
            << "lambda " << lambda << " count " << k;
        p *= lambda / (k + 1);
    }
}

TEST(PoissonSampler, KnuthMatchesAnalyticPmf)
{
    // Lambda is controlled through the lifetime: lambda =
    // totalFit * 1e-9 * hours * chips, with Table I totalFit = 66.1
    // and 18 chips. Spot-check the Table I operating point and a
    // couple of stress points.
    for (const double hours : {8400.0, evaluationHours, 420000.0})
        expectMatchesPoissonPmf(contextFor(hours), 0xABC);
}

TEST(PoissonSampler, ContextInvariantsMatchFitTable)
{
    const SampleContext ctx = contextFor();
    const FitTable fit{};
    EXPECT_DOUBLE_EQ(ctx.totalFit(), fit.totalFit());
    EXPECT_DOUBLE_EQ(ctx.lambda(),
                     fit.totalFit() * 1e-9 * evaluationHours * 18);
    EXPECT_DOUBLE_EQ(ctx.expNegLambda(), std::exp(-ctx.lambda()));
    for (unsigned i = 0; i < numFaultKinds; ++i) {
        const auto kind = static_cast<FaultKind>(i);
        EXPECT_DOUBLE_EQ(ctx.kindTotal(kind), fit.rates[i].total());
        EXPECT_DOUBLE_EQ(ctx.kindTransient(kind),
                         fit.rates[i].transient);
    }
}

} // namespace
} // namespace xed::faultsim
