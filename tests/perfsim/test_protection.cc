#include <gtest/gtest.h>

#include <string>

#include "perfsim/protection.hh"

namespace xed::perfsim
{
namespace
{

constexpr ProtectionMode allModes[] = {
    ProtectionMode::SecdedBaseline,
    ProtectionMode::Xed,
    ProtectionMode::Chipkill,
    ProtectionMode::XedChipkill,
    ProtectionMode::DoubleChipkill,
    ProtectionMode::ChipkillExtraBurst,
    ProtectionMode::DoubleChipkillExtraBurst,
    ProtectionMode::ChipkillExtraTransaction,
    ProtectionMode::DoubleChipkillExtraTransaction,
    ProtectionMode::LotEcc,
};

TEST(Protection, BaselineAndXedAreIdenticalInShape)
{
    const auto base = modeEffects(ProtectionMode::SecdedBaseline);
    const auto xed = modeEffects(ProtectionMode::Xed);
    EXPECT_EQ(base.effectiveChannels, xed.effectiveChannels);
    EXPECT_EQ(base.effectiveRanks, xed.effectiveRanks);
    EXPECT_EQ(base.readBurstCycles, xed.readBurstCycles);
    EXPECT_EQ(base.ranksPerAccess, xed.ranksPerAccess);
    EXPECT_EQ(base.extraWriteProb, xed.extraWriteProb);
    EXPECT_STRNE(modeLabel(ProtectionMode::SecdedBaseline),
                 modeLabel(ProtectionMode::Xed));
}

TEST(Protection, ChipkillLocksteps)
{
    const auto fx = modeEffects(ProtectionMode::Chipkill);
    EXPECT_EQ(fx.effectiveChannels, 4u);
    EXPECT_EQ(fx.effectiveRanks, 1u);
    EXPECT_EQ(fx.ranksPerAccess, 2u);
    EXPECT_EQ(fx.readBurstCycles, 8u); // 100% overfetch
}

TEST(Protection, XedChipkillMatchesChipkillCosts)
{
    // Section IX/XI: XED on Chipkill has exactly Chipkill's overheads.
    const auto ck = modeEffects(ProtectionMode::Chipkill);
    const auto xck = modeEffects(ProtectionMode::XedChipkill);
    EXPECT_EQ(ck.effectiveRanks, xck.effectiveRanks);
    EXPECT_EQ(ck.readBurstCycles, xck.readBurstCycles);
    EXPECT_EQ(ck.ranksPerAccess, xck.ranksPerAccess);
}

TEST(Protection, DoubleChipkillGangsChannels)
{
    const auto fx = modeEffects(ProtectionMode::DoubleChipkill);
    EXPECT_EQ(fx.effectiveChannels, 2u);
    EXPECT_EQ(fx.ranksPerAccess, 4u);
    EXPECT_EQ(fx.gangedBuses, 2u);
    EXPECT_DOUBLE_EQ(fx.activateRankEquivalents, 2.0);
}

TEST(Protection, AlternativesStretchBursts)
{
    EXPECT_EQ(modeEffects(ProtectionMode::ChipkillExtraBurst)
                  .readBurstCycles,
              10u);
    EXPECT_EQ(modeEffects(ProtectionMode::ChipkillExtraTransaction)
                  .readBurstCycles,
              12u);
    EXPECT_GT(
        modeEffects(ProtectionMode::ChipkillExtraBurst).ioEnergyScale,
        1.0);
    EXPECT_GT(modeEffects(ProtectionMode::ChipkillExtraTransaction)
                  .ioEnergyScale,
              modeEffects(ProtectionMode::ChipkillExtraBurst)
                  .ioEnergyScale);
}

TEST(Protection, LotEccAddsWrites)
{
    const auto fx = modeEffects(ProtectionMode::LotEcc);
    EXPECT_GT(fx.extraWriteProb, 0.0);
    EXPECT_EQ(fx.effectiveRanks, 2u); // single-rank accesses preserved
}

TEST(Protection, NamesAreUnique)
{
    const auto &all = allModes;
    for (std::size_t i = 0; i < std::size(all); ++i)
        for (std::size_t j = i + 1; j < std::size(all); ++j) {
            EXPECT_STRNE(protectionModeName(all[i]),
                         protectionModeName(all[j]));
            EXPECT_STRNE(modeLabel(all[i]), modeLabel(all[j]));
        }
}

TEST(Protection, OnlyTheXedTwinsShareEffects)
{
    // simulateAll runs one simulation for modes with equal effects, so
    // the twins must compare equal as whole structs -- XED changes
    // neither the protocol nor the bandwidth (Section XI-A) -- and
    // every other pair must differ.
    EXPECT_EQ(modeEffects(ProtectionMode::Xed),
              modeEffects(ProtectionMode::SecdedBaseline));
    EXPECT_EQ(modeEffects(ProtectionMode::XedChipkill),
              modeEffects(ProtectionMode::Chipkill));
    const auto twins = [](ProtectionMode a, ProtectionMode b) {
        const auto is = [&](ProtectionMode x, ProtectionMode y) {
            return (a == x && b == y) || (a == y && b == x);
        };
        return is(ProtectionMode::Xed, ProtectionMode::SecdedBaseline) ||
               is(ProtectionMode::XedChipkill, ProtectionMode::Chipkill);
    };
    const auto &all = allModes;
    for (std::size_t i = 0; i < std::size(all); ++i)
        for (std::size_t j = i + 1; j < std::size(all); ++j) {
            SCOPED_TRACE(std::string(protectionModeName(all[i])) + " vs " +
                         protectionModeName(all[j]));
            EXPECT_EQ(modeEffects(all[i]) == modeEffects(all[j]),
                      twins(all[i], all[j]));
        }
}

} // namespace
} // namespace xed::perfsim
