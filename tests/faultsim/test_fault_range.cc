#include <gtest/gtest.h>

#include "faultsim/fault_range.hh"
#include "tests/support/random_range.hh"

namespace xed::faultsim
{
namespace
{

class FaultRangeTest : public ::testing::Test
{
  protected:
    dram::ChipGeometry g;
    AddressLayout layout{g};
    Rng rng{1};
};

TEST_F(FaultRangeTest, LayoutMasksPartitionAddressSpace)
{
    EXPECT_EQ(layout.bitMask(), 0x3Fu);
    EXPECT_EQ(layout.colMask(), 0x7Fu << 6);
    EXPECT_EQ(layout.rowMask(), 0x7FFFull << 13);
    EXPECT_EQ(layout.bankMask(), 0x7ull << 28);
    EXPECT_EQ(layout.bitMask() | layout.colMask() | layout.rowMask() |
                  layout.bankMask(),
              layout.allMask());
    EXPECT_EQ(layout.allMask(), (1ull << 31) - 1);
}

TEST_F(FaultRangeTest, RangeShapesMatchGranularity)
{
    EXPECT_EQ(randomRange(rng, layout, FaultKind::Bit).mask, 0u);
    EXPECT_EQ(randomRange(rng, layout, FaultKind::Word).mask,
              layout.bitMask());
    EXPECT_EQ(randomRange(rng, layout, FaultKind::Column).mask,
              layout.rowMask());
    EXPECT_EQ(randomRange(rng, layout, FaultKind::Row).mask,
              layout.colMask() | layout.bitMask());
    EXPECT_EQ(randomRange(rng, layout, FaultKind::Bank).mask,
              layout.rowMask() | layout.colMask() | layout.bitMask());
    EXPECT_EQ(randomRange(rng, layout, FaultKind::MultiBank).mask,
              layout.allMask());
}

TEST_F(FaultRangeTest, RangeSizes)
{
    EXPECT_EQ(rangeSize(randomRange(rng, layout, FaultKind::Bit)), 1u);
    EXPECT_EQ(rangeSize(randomRange(rng, layout, FaultKind::Word)), 64u);
    EXPECT_EQ(rangeSize(randomRange(rng, layout, FaultKind::Column)),
              32768u);
    EXPECT_EQ(rangeSize(randomRange(rng, layout, FaultKind::Row)),
              128u * 64u);
    EXPECT_EQ(rangeSize(randomRange(rng, layout, FaultKind::MultiBank)),
              1ull << 31);
}

TEST_F(FaultRangeTest, AddrHasNoWildcardBitsSet)
{
    for (int i = 0; i < 100; ++i) {
        for (const auto kind :
             {FaultKind::Word, FaultKind::Column, FaultKind::Row,
              FaultKind::Bank, FaultKind::MultiBank}) {
            const auto r = randomRange(rng, layout, kind);
            EXPECT_EQ(r.addr & r.mask, 0u);
            EXPECT_EQ(r.addr & ~layout.allMask(), 0u);
        }
    }
}

TEST_F(FaultRangeTest, BitFaultsSameWordDifferentBitIntersectAtWord)
{
    // Word granularity ignores the bit field: two bit faults in the
    // same 64-bit word but different cells share a codeword.
    FaultRange a{0x1000ull << 6 | 5, 0};
    FaultRange b{0x1000ull << 6 | 17, 0};
    EXPECT_TRUE(intersectAtWord(a, b, layout));
    EXPECT_FALSE(intersectExact(a, b));
}

TEST_F(FaultRangeTest, DifferentWordsDoNotIntersect)
{
    FaultRange a{0x1000ull << 6 | 5, 0};
    FaultRange b{0x1001ull << 6 | 5, 0};
    EXPECT_FALSE(intersectAtWord(a, b, layout));
}

TEST_F(FaultRangeTest, ChipRangeIntersectsEverything)
{
    FaultRange chip{0, layout.allMask()};
    for (int i = 0; i < 50; ++i) {
        const auto r = randomRange(
            rng, layout,
            static_cast<FaultKind>(rng.below(5)));
        EXPECT_TRUE(intersectAtWord(chip, r, layout));
    }
}

TEST_F(FaultRangeTest, BankRangesIntersectOnlyIfSameBank)
{
    const auto bankMask =
        layout.rowMask() | layout.colMask() | layout.bitMask();
    FaultRange bank0{0, bankMask};
    FaultRange bank1{1ull << 28, bankMask};
    FaultRange alsoBank0{0, bankMask};
    EXPECT_FALSE(intersectAtWord(bank0, bank1, layout));
    EXPECT_TRUE(intersectAtWord(bank0, alsoBank0, layout));
}

TEST_F(FaultRangeTest, RowAndColumnIntersectWhenCrossing)
{
    // A row failure and a column failure in the same bank always cross
    // at exactly one word.
    FaultRange row{/*bank 2, row 7*/ (2ull << 28) | (7ull << 13),
                   layout.colMask() | layout.bitMask()};
    FaultRange col{/*bank 2, col 9, bit 3*/ (2ull << 28) | (9ull << 6) | 3,
                   layout.rowMask()};
    EXPECT_TRUE(intersectAtWord(row, col, layout));

    FaultRange colOtherBank{(3ull << 28) | (9ull << 6) | 3,
                            layout.rowMask()};
    EXPECT_FALSE(intersectAtWord(row, colOtherBank, layout));
}

TEST_F(FaultRangeTest, IntersectRangeRefines)
{
    FaultRange row{(2ull << 28) | (7ull << 13),
                   layout.colMask() | layout.bitMask()};
    FaultRange col{(2ull << 28) | (9ull << 6) | 3, layout.rowMask()};
    const auto meet = intersectRange(row, col, layout);
    ASSERT_TRUE(meet.has_value());
    // The meet is the single word (bank 2, row 7, col 9).
    EXPECT_EQ(meet->mask, layout.bitMask());
    EXPECT_EQ(meet->addr, (2ull << 28) | (7ull << 13) | (9ull << 6));
}

TEST_F(FaultRangeTest, TripleIntersectionViaRefinement)
{
    // bank fault, row fault, column fault in the same bank: the three
    // share the word where row and column cross.
    const auto bankMask =
        layout.rowMask() | layout.colMask() | layout.bitMask();
    FaultRange bank{2ull << 28, bankMask};
    FaultRange row{(2ull << 28) | (7ull << 13),
                   layout.colMask() | layout.bitMask()};
    FaultRange col{(2ull << 28) | (9ull << 6), layout.rowMask()};
    auto meet = intersectRange(bank, row, layout);
    ASSERT_TRUE(meet.has_value());
    EXPECT_TRUE(intersectRange(*meet, col, layout).has_value());

    // Rows in different banks never meet.
    FaultRange rowOther{(3ull << 28) | (7ull << 13),
                        layout.colMask() | layout.bitMask()};
    EXPECT_FALSE(intersectRange(row, rowOther, layout).has_value());
}

TEST_F(FaultRangeTest, KindNames)
{
    EXPECT_STREQ(faultKindName(FaultKind::Bit), "single-bit");
    EXPECT_STREQ(faultKindName(FaultKind::MultiRank), "multi-rank");
}

TEST_F(FaultRangeTest, MultiBitPerWordClassification)
{
    EXPECT_FALSE(multiBitPerWord(FaultKind::Bit));
    EXPECT_FALSE(multiBitPerWord(FaultKind::Column));
    EXPECT_TRUE(multiBitPerWord(FaultKind::Word));
    EXPECT_TRUE(multiBitPerWord(FaultKind::Row));
    EXPECT_TRUE(multiBitPerWord(FaultKind::Bank));
    EXPECT_TRUE(multiBitPerWord(FaultKind::MultiBank));
    EXPECT_TRUE(multiBitPerWord(FaultKind::MultiRank));
}

} // namespace
} // namespace xed::faultsim
