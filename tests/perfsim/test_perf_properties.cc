/**
 * Parameterized properties across all protection modes: runs finish,
 * conserve work, never beat the unprotected baseline, produce
 * physically sensible power numbers, and match the per-cycle reference
 * loop bit for bit.
 */

#include <gtest/gtest.h>

#include "perfsim/system.hh"
#include "tests/support/perfsim_reference.hh"

namespace xed::perfsim
{
namespace
{

const ProtectionMode allModes[] = {
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

class ModeProperty : public ::testing::TestWithParam<ProtectionMode>
{
  protected:
    PerfConfig
    quick() const
    {
        PerfConfig cfg;
        cfg.memOpsPerCore = 3000;
        return cfg;
    }
};

TEST_P(ModeProperty, RunsFinishAndConserveWork)
{
    const auto cfg = quick();
    const auto r = simulate(workloadByName("milc"), GetParam(), cfg);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_LT(r.cycles, cfg.maxCycles);
    // Every op issued by the cores is serviced exactly once (LOT-ECC
    // adds parity writes on top).
    const auto issued = 8 * cfg.memOpsPerCore;
    EXPECT_EQ(r.stats.reads + r.stats.writes - r.stats.extraWrites,
              issued);
}

TEST_P(ModeProperty, NeverFasterThanBaseline)
{
    const auto cfg = quick();
    const auto &w = workloadByName("soplex");
    const auto baseline =
        simulate(w, ProtectionMode::SecdedBaseline, cfg);
    const auto run = simulate(w, GetParam(), cfg);
    // A protection mode can only add constraints; allow 1% noise from
    // scheduling divergence.
    EXPECT_GE(run.cycles * 101, baseline.cycles * 100)
        << protectionModeName(GetParam());
}

TEST_P(ModeProperty, PowerIsPhysicallyBounded)
{
    const auto r =
        simulate(workloadByName("stream"), GetParam(), quick());
    // 72+ chips: between deep idle (~3W) and absolute burst roof.
    EXPECT_GT(r.memoryPowerWatts(), 3.0);
    EXPECT_LT(r.memoryPowerWatts(), 120.0);
    EXPECT_GT(r.power.background, 0.0);
    EXPECT_GE(r.power.refresh, 0.0);
}

TEST_P(ModeProperty, RefreshKeepsFiring)
{
    const auto r =
        simulate(workloadByName("gcc"), GetParam(), quick());
    // All 8 physical ranks refresh roughly every tREFI.
    const double expected =
        8.0 * static_cast<double>(r.cycles) / 6240.0;
    EXPECT_NEAR(static_cast<double>(r.stats.refreshes), expected,
                expected * 0.25 + 16.0)
        << protectionModeName(GetParam());
}

TEST_P(ModeProperty, MatchesPerCycleReferenceOnEveryWorkload)
{
    // The figure stdout rounds to 2-3 decimals and cannot see a
    // one-cycle drift of the wake-up loop; every field can.
    PerfConfig cfg;
    cfg.memOpsPerCore = 300;
    for (const auto &w : paperWorkloads()) {
        SCOPED_TRACE(w.name);
        reference::expectBitIdentical(
            simulate(w, GetParam(), cfg),
            reference::simulate(w, GetParam(), cfg));
    }
}

TEST_P(ModeProperty, MatchesPerCycleReferenceUnderStress)
{
    // Corners the paper matrix never reaches: a cycle cap that ends the
    // run, one core, a one-read window, and cores fast enough to stay
    // queue-bound.
    PerfConfig base;
    base.memOpsPerCore = 300;
    PerfConfig oneCore = base;
    oneCore.cores = 1;
    PerfConfig oneRead = base;
    oneRead.coreParams.maxMlp = 1;
    PerfConfig fastCores = base;
    fastCores.coreParams.nonMemIpc = 4.0;
    for (const char *name : {"mcf", "libquantum", "black", "comm1"}) {
        SCOPED_TRACE(name);
        const auto &w = workloadByName(name);
        PerfConfig capped = base;
        capped.maxCycles =
            reference::simulate(w, GetParam(), base).cycles / 2;
        const auto cut = simulate(w, GetParam(), capped);
        EXPECT_EQ(cut.cycles, capped.maxCycles);
        reference::expectBitIdentical(
            cut, reference::simulate(w, GetParam(), capped));
        for (const PerfConfig &cfg : {oneCore, oneRead, fastCores})
            reference::expectBitIdentical(
                simulate(w, GetParam(), cfg),
                reference::simulate(w, GetParam(), cfg));
    }
}

std::string
modeName(const ::testing::TestParamInfo<ProtectionMode> &info)
{
    std::string name = protectionModeName(info.param);
    for (auto &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeProperty,
                         ::testing::ValuesIn(allModes), modeName);

} // namespace
} // namespace xed::perfsim
