#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/inline_vec.hh"
#include "common/rng.hh"
#include "common/table.hh"

namespace xed
{
namespace
{

TEST(EdgeCases, EmptyTableStillPrintsHeaders)
{
    Table t({"a", "b"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("a"), std::string::npos);
    EXPECT_EQ(t.rows(), 0u);
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "a,b\n");
}

TEST(EdgeCases, RngBelowZeroAndOne)
{
    Rng rng(1);
    EXPECT_EQ(rng.below(0), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(EdgeCases, RngBelowLargeBound)
{
    Rng rng(2);
    const std::uint64_t bound = 1ull << 62;
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(bound), bound);
}

TEST(EdgeCases, BernoulliExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(EdgeCases, InlineVecEraseKeepsOrder)
{
    InlineVec<int, 5> v{10, 11, 12, 13, 14};
    v.erase(0);
    EXPECT_EQ(v, (std::vector<int>{11, 12, 13, 14}));
    v.erase(2);
    EXPECT_EQ(v, (std::vector<int>{11, 12, 14}));
    v.erase(2);
    EXPECT_EQ(v, (std::vector<int>{11, 12}));
    v.push_back(15);
    v.erase(1);
    v.erase(0);
    EXPECT_EQ(v, (std::vector<int>{15}));
    v.erase(0);
    EXPECT_TRUE(v.empty());
}

} // namespace
} // namespace xed
