#include <gtest/gtest.h>

#include "faultsim/scheme.hh"
#include "tests/support/random_range.hh"

namespace xed::faultsim
{
namespace
{

class SchemeTest : public ::testing::Test
{
  protected:
    FaultEvent
    event(unsigned rank, unsigned chip, FaultKind kind, bool transient,
          double time, FaultRange range)
    {
        FaultEvent e;
        e.rank = rank;
        e.chip = chip;
        e.kind = kind;
        e.transient = transient;
        e.timeHours = time;
        e.range = range;
        return e;
    }

    FaultRange
    chipRange()
    {
        return {0, layout.allMask()};
    }

    FaultRange
    bankRange(unsigned bank)
    {
        return {static_cast<std::uint64_t>(bank) << 28,
                layout.rowMask() | layout.colMask() | layout.bitMask()};
    }

    FaultRange
    wordRange(std::uint64_t word)
    {
        return {word << 6, layout.bitMask()};
    }

    FaultRange
    bitRange(std::uint64_t word, unsigned bit)
    {
        return {(word << 6) | bit, 0};
    }

    dram::ChipGeometry g;
    AddressLayout layout{g};
    Rng rng{7};
    OnDieOptions onDie{}; // present, no scaling
};

TEST_F(SchemeTest, NonEccWithoutOnDieFailsOnAnything)
{
    OnDieOptions none;
    none.present = false;
    const auto scheme = makeScheme(SchemeKind::NonEcc, none);
    const std::vector<FaultEvent> events = {
        event(0, 0, FaultKind::Bit, true, 100, bitRange(1, 1))};
    const auto f = scheme->evaluateDimm(events, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_DOUBLE_EQ(f->timeHours, 100);
}

TEST_F(SchemeTest, NonEccWithOnDieSurvivesBitFaults)
{
    const auto scheme = makeScheme(SchemeKind::NonEcc, onDie);
    const std::vector<FaultEvent> events = {
        event(0, 0, FaultKind::Bit, true, 100, bitRange(1, 1)),
        event(1, 3, FaultKind::Column, false, 200,
              {3, layout.rowMask()})};
    EXPECT_FALSE(scheme->evaluateDimm(events, layout, rng).has_value());
}

TEST_F(SchemeTest, NonEccWithOnDieFailsOnLargeFault)
{
    const auto scheme = makeScheme(SchemeKind::NonEcc, onDie);
    const std::vector<FaultEvent> events = {
        event(0, 2, FaultKind::Row, false, 500,
              {7ull << 13, layout.colMask() | layout.bitMask()})};
    const auto f = scheme->evaluateDimm(events, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_DOUBLE_EQ(f->timeHours, 500);
}

TEST_F(SchemeTest, SecdedWithOnDieFailsOnLargeFaultOnly)
{
    // The Figure 1 punchline: with On-Die ECC, the 9th chip's SECDED
    // adds nothing -- both it and Non-ECC fail exactly on
    // large-granularity faults.
    const auto scheme = makeScheme(SchemeKind::Secded, onDie);
    const std::vector<FaultEvent> bitOnly = {
        event(0, 0, FaultKind::Bit, true, 10, bitRange(4, 2))};
    EXPECT_FALSE(scheme->evaluateDimm(bitOnly, layout, rng).has_value());

    const std::vector<FaultEvent> withBank = {
        event(0, 0, FaultKind::Bank, false, 300, bankRange(1))};
    const auto f = scheme->evaluateDimm(withBank, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_STREQ(f->type, "dimm-uncorrectable");
}

TEST_F(SchemeTest, SecdedWithoutOnDieDoubleBitSameBeat)
{
    OnDieOptions none;
    none.present = false;
    const auto scheme = makeScheme(SchemeKind::Secded, none);
    // Two bit faults in the same word and same beat, different chips.
    const std::vector<FaultEvent> sameBeat = {
        event(0, 1, FaultKind::Bit, true, 100, bitRange(9, 10)),
        event(0, 5, FaultKind::Bit, true, 400, bitRange(9, 12))};
    const auto f = scheme->evaluateDimm(sameBeat, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_DOUBLE_EQ(f->timeHours, 400); // fails when the second lands

    // Same word but different beats: both bits are individually
    // correctable at the DIMM level.
    const std::vector<FaultEvent> diffBeat = {
        event(0, 1, FaultKind::Bit, true, 100, bitRange(9, 10)),
        event(0, 5, FaultKind::Bit, true, 400, bitRange(9, 60))};
    EXPECT_FALSE(scheme->evaluateDimm(diffBeat, layout, rng).has_value());
}

TEST_F(SchemeTest, XedSurvivesAnySingleChipFault)
{
    const auto scheme = makeScheme(SchemeKind::Xed, onDie);
    for (const auto kind :
         {FaultKind::Bit, FaultKind::Column, FaultKind::Row,
          FaultKind::Bank, FaultKind::MultiBank}) {
        const std::vector<FaultEvent> events = {
            event(0, 4, kind, false, 100,
                  randomRange(rng, layout, kind))};
        EXPECT_FALSE(scheme->evaluateDimm(events, layout, rng).has_value())
            << faultKindName(kind);
    }
}

TEST_F(SchemeTest, XedSurvivesMultiRankFault)
{
    // The multi-rank fault lands one chip per rank; each rank rebuilds
    // its own chip -- a key advantage over lockstep Chipkill.
    const auto scheme = makeScheme(SchemeKind::Xed, onDie);
    const std::vector<FaultEvent> events = {
        event(0, 4, FaultKind::MultiRank, false, 100, chipRange()),
        event(1, 4, FaultKind::MultiRank, false, 100, chipRange())};
    EXPECT_FALSE(scheme->evaluateDimm(events, layout, rng).has_value());
}

TEST_F(SchemeTest, XedFailsOnTwoOverlappingChipFaultsInOneRank)
{
    const auto scheme = makeScheme(SchemeKind::Xed, onDie);
    const std::vector<FaultEvent> events = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange()),
        event(0, 6, FaultKind::Bank, false, 900, bankRange(0))};
    const auto f = scheme->evaluateDimm(events, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_STREQ(f->type, "multi-chip-data-loss");
    EXPECT_DOUBLE_EQ(f->timeHours, 900);
}

TEST_F(SchemeTest, XedSurvivesTwoChipFaultsInDifferentRanks)
{
    const auto scheme = makeScheme(SchemeKind::Xed, onDie);
    const std::vector<FaultEvent> events = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange()),
        event(1, 6, FaultKind::Bank, false, 900, bankRange(0))};
    EXPECT_FALSE(scheme->evaluateDimm(events, layout, rng).has_value());
}

TEST_F(SchemeTest, XedSurvivesChipFaultPlusBitFault)
{
    // Serial mode: the bit fault is corrected on-die, the chip fault is
    // rebuilt from parity (Section VII-C).
    const auto scheme = makeScheme(SchemeKind::Xed, onDie);
    const std::vector<FaultEvent> events = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange()),
        event(0, 6, FaultKind::Bit, false, 900, bitRange(77, 3))};
    EXPECT_FALSE(scheme->evaluateDimm(events, layout, rng).has_value());
}

TEST_F(SchemeTest, XedTransientWordEscapeIsDue)
{
    OnDieOptions alwaysEscape = onDie;
    alwaysEscape.detectionEscapeProb = 1.0;
    const auto scheme = makeScheme(SchemeKind::Xed, alwaysEscape);
    const std::vector<FaultEvent> events = {
        event(0, 3, FaultKind::Word, true, 42, wordRange(5))};
    const auto f = scheme->evaluateDimm(events, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_STREQ(f->type, "due-word-fault");

    // Permanent word faults are located by Intra-Line diagnosis.
    const std::vector<FaultEvent> permanent = {
        event(0, 3, FaultKind::Word, false, 42, wordRange(5))};
    EXPECT_FALSE(
        scheme->evaluateDimm(permanent, layout, rng).has_value());
}

TEST_F(SchemeTest, ChipkillSurvivesSingleChipFailsOnPair)
{
    const auto scheme = makeScheme(SchemeKind::Chipkill, onDie);
    const std::vector<FaultEvent> single = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange())};
    EXPECT_FALSE(scheme->evaluateDimm(single, layout, rng).has_value());

    // Two chip failures in the same 18-chip codeword group are
    // uncorrectable for single-symbol-correct Chipkill.
    const std::vector<FaultEvent> pair = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange()),
        event(0, 6, FaultKind::MultiBank, false, 800, chipRange())};
    const auto f = scheme->evaluateDimm(pair, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_STREQ(f->type, "double-chip");
}

TEST_F(SchemeTest, X8LockstepChipkillFailsOnMultiRankFault)
{
    // The lockstep ablation: a multi-rank fault puts two chips into the
    // same spanning codeword -- commodity-x8 Chipkill loses exactly
    // where XED does not.
    const auto scheme =
        makeScheme(SchemeKind::ChipkillX8Lockstep, onDie);
    const std::vector<FaultEvent> events = {
        event(0, 4, FaultKind::MultiRank, false, 100, chipRange()),
        event(1, 4, FaultKind::MultiRank, false, 100, chipRange())};
    const auto f = scheme->evaluateDimm(events, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_STREQ(f->type, "double-chip");

    // The paper's 18-chip Chipkill group instead sees one chip per
    // group and survives.
    const auto x4 = makeScheme(SchemeKind::Chipkill, onDie);
    const std::vector<FaultEvent> perGroup = {
        event(0, 4, FaultKind::MultiRank, false, 100, chipRange()),
        event(1, 4, FaultKind::MultiRank, false, 100, chipRange())};
    EXPECT_FALSE(x4->evaluateDimm(perGroup, layout, rng).has_value());
}

TEST_F(SchemeTest, DoubleChipkillNeedsThreeChips)
{
    const auto scheme = makeScheme(SchemeKind::DoubleChipkill, onDie);
    const std::vector<FaultEvent> two = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange()),
        event(1, 6, FaultKind::MultiBank, false, 800, chipRange())};
    EXPECT_FALSE(scheme->evaluateDimm(two, layout, rng).has_value());

    const std::vector<FaultEvent> three = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange()),
        event(1, 6, FaultKind::MultiBank, false, 800, chipRange()),
        event(0, 9, FaultKind::Bank, false, 1200, bankRange(0))};
    const auto f = scheme->evaluateDimm(three, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_STREQ(f->type, "triple-chip");
    EXPECT_DOUBLE_EQ(f->timeHours, 1200);
}

TEST_F(SchemeTest, DoubleChipkillThreeChipsDisjointWordsSurvive)
{
    const auto scheme = makeScheme(SchemeKind::DoubleChipkill, onDie);
    // Three row faults in different banks never share a word.
    const std::vector<FaultEvent> events = {
        event(0, 2, FaultKind::Row, false, 100,
              {0ull << 28 | (5ull << 13),
               layout.colMask() | layout.bitMask()}),
        event(0, 6, FaultKind::Row, false, 800,
              {1ull << 28 | (5ull << 13),
               layout.colMask() | layout.bitMask()}),
        event(1, 9, FaultKind::Row, false, 1200,
              {2ull << 28 | (5ull << 13),
               layout.colMask() | layout.bitMask()})};
    EXPECT_FALSE(scheme->evaluateDimm(events, layout, rng).has_value());
}

TEST_F(SchemeTest, XedChipkillCorrectsTwoChipsPerRank)
{
    const auto scheme = makeScheme(SchemeKind::XedChipkill, onDie);
    const std::vector<FaultEvent> two = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange()),
        event(0, 6, FaultKind::MultiBank, false, 800, chipRange())};
    EXPECT_FALSE(scheme->evaluateDimm(two, layout, rng).has_value());

    const std::vector<FaultEvent> three = {
        event(0, 2, FaultKind::MultiBank, false, 100, chipRange()),
        event(0, 6, FaultKind::MultiBank, false, 800, chipRange()),
        event(0, 9, FaultKind::MultiBank, false, 1500, chipRange())};
    const auto f = scheme->evaluateDimm(three, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_STREQ(f->type, "triple-chip");
}

TEST_F(SchemeTest, XedChipkillEscapePlusErasureIsDue)
{
    OnDieOptions alwaysEscape = onDie;
    alwaysEscape.detectionEscapeProb = 1.0;
    const auto scheme = makeScheme(SchemeKind::XedChipkill, alwaysEscape);
    const std::vector<FaultEvent> events = {
        event(0, 3, FaultKind::Word, true, 42, wordRange(5)),
        event(0, 9, FaultKind::MultiBank, false, 900, chipRange())};
    const auto f = scheme->evaluateDimm(events, layout, rng);
    ASSERT_TRUE(f.has_value());
    EXPECT_STREQ(f->type, "due-escape-plus-erasure");
}

TEST_F(SchemeTest, LockstepFamilyAbsorbsOrDiesOnMultiRank)
{
    // The Figure 9/10 configuration: a multi-rank fault lands two
    // chips inside the codeword group. Single-symbol-correct Chipkill
    // dies; the 2-erasure XED+Chipkill and Double-Chipkill absorb it.
    const std::vector<FaultEvent> multiRank = {
        event(0, 4, FaultKind::MultiRank, false, 100, chipRange()),
        event(1, 4, FaultKind::MultiRank, false, 100, chipRange())};

    const auto sck = makeScheme(SchemeKind::ChipkillX8Lockstep, onDie);
    EXPECT_TRUE(sck->evaluateDimm(multiRank, layout, rng).has_value());

    const auto xck = makeScheme(SchemeKind::XedChipkillLockstep, onDie);
    EXPECT_FALSE(xck->evaluateDimm(multiRank, layout, rng).has_value());

    const auto dck =
        makeScheme(SchemeKind::DoubleChipkillLockstep, onDie);
    EXPECT_FALSE(dck->evaluateDimm(multiRank, layout, rng).has_value());

    // ...but a third overlapping chip defeats both 2-chip correctors.
    auto triple = multiRank;
    triple.push_back(
        event(0, 7, FaultKind::MultiBank, false, 500, chipRange()));
    EXPECT_TRUE(xck->evaluateDimm(triple, layout, rng).has_value());
    EXPECT_TRUE(dck->evaluateDimm(triple, layout, rng).has_value());
}

TEST_F(SchemeTest, LockstepShapes)
{
    EXPECT_EQ(makeScheme(SchemeKind::XedChipkillLockstep, onDie)
                  ->dimmShape()
                  .chips(),
              18u);
    EXPECT_EQ(makeScheme(SchemeKind::DoubleChipkillLockstep, onDie)
                  ->dimmShape()
                  .chips(),
              36u);
    EXPECT_TRUE(makeScheme(SchemeKind::DoubleChipkillLockstep, onDie)
                    ->dimmShape()
                    .twinMultiRank);
    EXPECT_FALSE(makeScheme(SchemeKind::DoubleChipkill, onDie)
                     ->dimmShape()
                     .twinMultiRank);
}

TEST_F(SchemeTest, SchemeNamesAndShapes)
{
    EXPECT_EQ(makeScheme(SchemeKind::Xed, onDie)->dimmShape().chips(),
              18u);
    EXPECT_EQ(makeScheme(SchemeKind::NonEcc, onDie)->dimmShape().chips(),
              16u);
    EXPECT_EQ(
        makeScheme(SchemeKind::DoubleChipkill, onDie)->dimmShape().chips(),
        36u);
    EXPECT_FALSE(makeScheme(SchemeKind::Chipkill, onDie)->name().empty());
    EXPECT_STREQ(schemeKindName(SchemeKind::XedChipkill), "xed-chipkill");
}

} // namespace
} // namespace xed::faultsim
