#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hh"
#include "faultsim/fault_model.hh"
#include "tests/support/sample_poisson.hh"

namespace xed::faultsim
{
namespace
{

class FaultModelTest : public ::testing::Test
{
  protected:
    dram::ChipGeometry g;
    AddressLayout layout{g};
    FitTable fit;
    Rng rng{0xFEED};
};

TEST_F(FaultModelTest, TableIRatesAreAsPublished)
{
    EXPECT_DOUBLE_EQ(fit.entry(FaultKind::Bit).transient, 14.2);
    EXPECT_DOUBLE_EQ(fit.entry(FaultKind::Bit).permanent, 18.6);
    EXPECT_DOUBLE_EQ(fit.entry(FaultKind::Word).transient, 1.4);
    EXPECT_DOUBLE_EQ(fit.entry(FaultKind::Column).permanent, 5.6);
    EXPECT_DOUBLE_EQ(fit.entry(FaultKind::Row).permanent, 8.2);
    EXPECT_DOUBLE_EQ(fit.entry(FaultKind::Bank).permanent, 10.0);
    EXPECT_DOUBLE_EQ(fit.entry(FaultKind::MultiBank).transient, 0.3);
    EXPECT_DOUBLE_EQ(fit.entry(FaultKind::MultiRank).permanent, 2.8);
    EXPECT_NEAR(fit.totalFit(), 66.1, 1e-9);
}

TEST_F(FaultModelTest, PoissonMeanMatches)
{
    const double lambda = 0.25;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += samplePoisson(rng, lambda);
    EXPECT_NEAR(sum / n, lambda, 0.01);
}

TEST_F(FaultModelTest, EventCountMatchesExpectation)
{
    const DimmShape shape{2, 9};
    const double hours = evaluationHours;
    const double expected =
        fit.totalFit() * 1e-9 * hours * shape.chips();
    double total = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += sampleDimmFaults(rng, fit, layout, shape, hours).size();
    // Multi-rank events expand into 2 FaultEvents each; correct for it.
    const double multiRankShare =
        fit.entry(FaultKind::MultiRank).total() / fit.totalFit();
    const double expectedExpanded = expected * (1.0 + multiRankShare);
    EXPECT_NEAR(total / n, expectedExpanded, expectedExpanded * 0.05);
}

TEST_F(FaultModelTest, EventsAreWellFormed)
{
    const DimmShape shape{2, 9};
    for (int i = 0; i < 20000; ++i) {
        for (const auto &e :
             sampleDimmFaults(rng, fit, layout, shape, evaluationHours)) {
            EXPECT_LT(e.rank, 2u);
            EXPECT_LT(e.chip, 9u);
            EXPECT_GE(e.timeHours, 0.0);
            EXPECT_LE(e.timeHours, evaluationHours);
            EXPECT_EQ(e.range.addr & e.range.mask, 0u);
        }
    }
}

TEST_F(FaultModelTest, MultiRankEventsComeInPairs)
{
    const DimmShape shape{2, 9};
    bool sawMultiRank = false;
    for (int i = 0; i < 300000 && !sawMultiRank; ++i) {
        const auto events =
            sampleDimmFaults(rng, fit, layout, shape, evaluationHours);
        for (std::size_t j = 0; j < events.size(); ++j) {
            if (events[j].kind != FaultKind::MultiRank)
                continue;
            sawMultiRank = true;
            // Find the twin on the other rank, same chip and time.
            bool twin = false;
            for (std::size_t k = 0; k < events.size(); ++k) {
                if (k == j)
                    continue;
                if (events[k].kind == FaultKind::MultiRank &&
                    events[k].chip == events[j].chip &&
                    events[k].rank != events[j].rank &&
                    events[k].timeHours == events[j].timeHours) {
                    twin = true;
                }
            }
            EXPECT_TRUE(twin);
        }
    }
    EXPECT_TRUE(sawMultiRank);
}

TEST_F(FaultModelTest, ZeroRateKindsAreUnreachable)
{
    // Regression: a draw landing exactly on a cumulative boundary used
    // to select the kind *before* the boundary, so kindDraw == 0 with
    // a zero-rate first entry produced impossible Bit faults.
    FitTable zeroBit;
    zeroBit.entry(FaultKind::Bit) = {0.0, 0.0};
    zeroBit.entry(FaultKind::Word) = {0.0, 0.0};

    EXPECT_NE(pickFaultKind(zeroBit, 0.0), FaultKind::Bit);
    EXPECT_NE(pickFaultKind(zeroBit, 0.0), FaultKind::Word);
    EXPECT_EQ(pickFaultKind(zeroBit, 0.0), FaultKind::Column);

    // Interior zero-rate bracket: the boundary draw skips it too.
    FitTable zeroRow;
    zeroRow.entry(FaultKind::Row) = {0.0, 0.0};
    double boundary = 0;
    for (auto kind : {FaultKind::Bit, FaultKind::Word, FaultKind::Column})
        boundary += zeroRow.entry(kind).total();
    EXPECT_EQ(pickFaultKind(zeroRow, boundary), FaultKind::Bank);

    // And the sampled stream never materializes a zero-rate kind.
    const DimmShape shape{2, 9};
    for (int i = 0; i < 50000; ++i) {
        for (const auto &e : sampleDimmFaults(rng, zeroBit, layout,
                                              shape, evaluationHours)) {
            EXPECT_NE(e.kind, FaultKind::Bit);
            EXPECT_NE(e.kind, FaultKind::Word);
        }
    }
}

TEST_F(FaultModelTest, PickFaultKindMatchesBrackets)
{
    // Draws strictly inside each nonzero bracket map to that kind.
    double low = 0;
    for (unsigned k = 0; k < numFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        const double width = fit.entry(kind).total();
        ASSERT_GT(width, 0.0);
        EXPECT_EQ(pickFaultKind(fit, low), kind);
        EXPECT_EQ(pickFaultKind(fit, low + width / 2), kind);
        low += width;
    }
}

TEST_F(FaultModelTest, KindDistributionRoughlyMatchesRates)
{
    const DimmShape shape{2, 9};
    std::array<unsigned, numFaultKinds> counts{};
    unsigned total = 0;
    for (int i = 0; i < 400000; ++i) {
        for (const auto &e :
             sampleDimmFaults(rng, fit, layout, shape, evaluationHours)) {
            if (e.kind == FaultKind::MultiRank)
                continue; // expanded twice; skip for distribution check
            ++counts[static_cast<unsigned>(e.kind)];
            ++total;
        }
    }
    ASSERT_GT(total, 10000u);
    const double nonMultiRankFit =
        fit.totalFit() - fit.entry(FaultKind::MultiRank).total();
    for (unsigned k = 0; k < numFaultKinds - 1; ++k) {
        const double expected =
            fit.rates[k].total() / nonMultiRankFit;
        const double observed = static_cast<double>(counts[k]) / total;
        EXPECT_NEAR(observed, expected, 0.015)
            << faultKindName(static_cast<FaultKind>(k));
    }
}

} // namespace
} // namespace xed::faultsim
