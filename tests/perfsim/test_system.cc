#include <gtest/gtest.h>

#include <stdexcept>

#include "perfsim/system.hh"
#include "tests/support/perfsim_reference.hh"
#include "tests/support/scoped_threads_env.hh"

namespace xed::perfsim
{
namespace
{

PerfConfig
quick(std::uint64_t ops = 4000)
{
    PerfConfig cfg;
    cfg.memOpsPerCore = ops;
    return cfg;
}

TEST(System, RunCompletesAndCountsWork)
{
    const auto r = simulate(workloadByName("gcc"),
                            ProtectionMode::SecdedBaseline, quick());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_LT(r.cycles, 100000000u);
    // 8 cores x ops, split into reads and writes.
    EXPECT_NEAR(static_cast<double>(r.stats.reads + r.stats.writes),
                8.0 * 4000.0, 8.0 * 4000.0 * 0.02);
    EXPECT_GT(r.memoryPowerWatts(), 1.0);
    EXPECT_LT(r.memoryPowerWatts(), 100.0);
}

TEST(System, DeterministicForSeed)
{
    const auto a = simulate(workloadByName("milc"),
                            ProtectionMode::Chipkill, quick());
    const auto b = simulate(workloadByName("milc"),
                            ProtectionMode::Chipkill, quick());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.reads, b.stats.reads);
}

TEST(System, XedMatchesBaselinePerformance)
{
    // Section XI-A: XED has < 0.01% overhead vs the SECDED baseline.
    const auto n = normalizedAgainstBaseline(workloadByName("lbm"),
                                             ProtectionMode::Xed,
                                             quick());
    EXPECT_NEAR(n.execTime, 1.0, 0.005);
    EXPECT_NEAR(n.memoryPower, 1.0, 0.01);
}

TEST(System, ChipkillSlowsMemoryIntensiveWorkloads)
{
    const auto n = normalizedAgainstBaseline(
        workloadByName("libquantum"), ProtectionMode::Chipkill,
        quick(8000));
    // Paper: libquantum +63.5%; our band: clearly bandwidth-bound.
    EXPECT_GT(n.execTime, 1.25);
    EXPECT_LT(n.execTime, 1.8);
    // Figure 12: Chipkill power *drops* for memory-bound workloads.
    EXPECT_LT(n.memoryPower, 1.0);
}

TEST(System, ChipkillBarelyAffectsComputeBoundWorkloads)
{
    const auto n = normalizedAgainstBaseline(workloadByName("black"),
                                             ProtectionMode::Chipkill,
                                             quick());
    EXPECT_LT(n.execTime, 1.1);
}

TEST(System, DoubleChipkillWorseThanChipkill)
{
    const auto &w = workloadByName("milc");
    const auto ck = normalizedAgainstBaseline(
        w, ProtectionMode::Chipkill, quick(8000));
    const auto dck = normalizedAgainstBaseline(
        w, ProtectionMode::DoubleChipkill, quick(8000));
    EXPECT_GT(dck.execTime, ck.execTime * 1.2);
}

TEST(System, XedChipkillCostsSameAsChipkill)
{
    const auto &w = workloadByName("soplex");
    const auto ck = normalizedAgainstBaseline(
        w, ProtectionMode::Chipkill, quick(8000));
    const auto xck = normalizedAgainstBaseline(
        w, ProtectionMode::XedChipkill, quick(8000));
    EXPECT_NEAR(xck.execTime, ck.execTime, 0.02);
}

TEST(System, AlternativesCostMoreThanXedChipkill)
{
    // Figure 13: extra burst / extra transaction are strictly worse
    // than the catch-word approach, and the transaction is worse than
    // the burst.
    const auto &w = workloadByName("bwaves");
    const auto xck =
        simulate(w, ProtectionMode::XedChipkill, quick(8000));
    const auto burst =
        simulate(w, ProtectionMode::ChipkillExtraBurst, quick(8000));
    const auto txn = simulate(
        w, ProtectionMode::ChipkillExtraTransaction, quick(8000));
    EXPECT_GT(burst.cycles, xck.cycles);
    EXPECT_GT(txn.cycles, burst.cycles);
    EXPECT_GT(burst.memoryPowerWatts(), xck.memoryPowerWatts() * 0.99);
}

TEST(System, LotEccSlowerThanXed)
{
    // Figure 14: LOT-ECC trails XED by ~6.6% due to extra writes.
    const auto &w = workloadByName("comm1");
    const auto xed = simulate(w, ProtectionMode::Xed, quick(8000));
    const auto lot = simulate(w, ProtectionMode::LotEcc, quick(8000));
    EXPECT_GT(lot.cycles, xed.cycles);
    EXPECT_LT(static_cast<double>(lot.cycles) / xed.cycles, 1.35);
    EXPECT_GT(lot.stats.extraWrites, 0u);
}

TEST(System, MlpDrivesLatencySensitivity)
{
    // mcf (MLP 2) suffers under Chipkill despite moderate bandwidth:
    // its stalls scale with loaded latency.
    const auto n = normalizedAgainstBaseline(workloadByName("mcf"),
                                             ProtectionMode::Chipkill,
                                             quick(8000));
    EXPECT_GT(n.execTime, 1.15);
}

TEST(System, ZeroMlpCapIsRejected)
{
    // No read could ever be outstanding, so no read could issue.
    PerfConfig cfg = quick(100);
    cfg.coreParams.maxMlp = 0;
    EXPECT_THROW(simulate(workloadByName("mcf"),
                          ProtectionMode::SecdedBaseline, cfg),
                 std::invalid_argument);
}

std::vector<RunCell>
smallMatrix()
{
    std::vector<RunCell> cells;
    for (const char *name : {"mcf", "lbm", "black"})
        for (const auto mode :
             {ProtectionMode::SecdedBaseline,
              ProtectionMode::DoubleChipkill, ProtectionMode::LotEcc})
            cells.push_back({workloadByName(name), mode});
    return cells;
}

TEST(SimulateAll, MatchesSerialSimulateAtAnyThreadCount)
{
    const auto cfg = quick(300);
    const auto cells = smallMatrix();
    std::vector<RunResult> serial;
    for (const auto &cell : cells)
        serial.push_back(simulate(cell.workload, cell.mode, cfg));
    for (const char *threads : {"0", "1", "2", "4"}) {
        SCOPED_TRACE(threads);
        const ScopedThreadsEnv env(threads);
        const auto runs = simulateAll(cells, cfg);
        ASSERT_EQ(runs.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            reference::expectBitIdentical(runs[i], serial[i]);
    }
}

TEST(SimulateAll, DuplicateCellsShareOneRunInRequestOrder)
{
    const auto m = smallMatrix();
    const std::vector<RunCell> cells{m[0], m[4], m[0], m[8], m[4], m[0]};
    const ScopedThreadsEnv env("4");
    const auto runs = simulateAll(cells, quick(300));
    ASSERT_EQ(runs.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(runs[i].workload, cells[i].workload.name);
        EXPECT_EQ(runs[i].mode, modeEffects(cells[i].mode).label);
    }
    reference::expectBitIdentical(runs[2], runs[0]);
    reference::expectBitIdentical(runs[5], runs[0]);
    reference::expectBitIdentical(runs[4], runs[1]);
}

TEST(SimulateAll, EmptyMatrixHasNoResults)
{
    const ScopedThreadsEnv env("4");
    EXPECT_TRUE(simulateAll({}, quick(300)).empty());
}

} // namespace
} // namespace xed::perfsim
