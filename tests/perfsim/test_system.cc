#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "common/json.hh"
#include "obs/trace.hh"
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
    // The XED twins share the baseline's and Chipkill's runs, and each
    // result must still carry its own cell's label.
    auto cells = smallMatrix();
    for (const char *name : {"mcf", "lbm"})
        for (const auto mode :
             {ProtectionMode::Xed, ProtectionMode::Chipkill,
              ProtectionMode::XedChipkill})
            cells.push_back({workloadByName(name), mode});
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
        EXPECT_EQ(runs[i].mode, modeLabel(cells[i].mode));
    }
    reference::expectBitIdentical(runs[2], runs[0]);
    reference::expectBitIdentical(runs[5], runs[0]);
    reference::expectBitIdentical(runs[4], runs[1]);
}

/** perfsim.simulate spans that simulateAll(cells) records. */
std::size_t
simulateSpans(const std::vector<RunCell> &cells)
{
    auto &recorder = obs::TraceRecorder::instance();
    recorder.clear();
    recorder.setEnabled(true);
    simulateAll(cells, quick(10));
    recorder.setEnabled(false);
    std::size_t spans = 0;
    const auto doc = recorder.toJson();
    const json::Value &events = *doc.find("traceEvents");
    for (std::size_t i = 0; i < events.size(); ++i)
        spans += events.at(i).find("name")->asString() == "perfsim.simulate";
    recorder.clear();
    return spans;
}

TEST(SimulateAll, FigureMatricesSimulateEachDistinctBehaviourOnce)
{
    if (!XED_TRACE)
        GTEST_SKIP() << "trace spans compiled out (-DXED_TRACE=OFF)";
    const ScopedThreadsEnv env("4");
    // The matrices of bench/fig11_exec_time.cc (fig12 uses the same),
    // fig13_alternatives.cc and fig14_lotecc.cc.
    std::vector<RunCell> fig11, fig13, fig14;
    for (const auto &w : paperWorkloads()) {
        for (const auto mode :
             {ProtectionMode::SecdedBaseline, ProtectionMode::Xed,
              ProtectionMode::Chipkill, ProtectionMode::XedChipkill,
              ProtectionMode::DoubleChipkill})
            fig11.push_back({w, mode});
        for (const auto &[reference, mode] :
             {std::pair{ProtectionMode::XedChipkill,
                        ProtectionMode::ChipkillExtraBurst},
              std::pair{ProtectionMode::XedChipkill,
                        ProtectionMode::ChipkillExtraTransaction},
              std::pair{ProtectionMode::DoubleChipkill,
                        ProtectionMode::DoubleChipkillExtraBurst},
              std::pair{ProtectionMode::DoubleChipkill,
                        ProtectionMode::DoubleChipkillExtraTransaction}}) {
            fig13.push_back({w, reference});
            fig13.push_back({w, mode});
        }
        fig14.push_back({w, ProtectionMode::Xed});
        fig14.push_back({w, ProtectionMode::LotEcc});
    }
    ASSERT_EQ(paperWorkloads().size(), 31u);
    EXPECT_EQ(simulateSpans(fig11), 93u);  // of 155 cells
    EXPECT_EQ(simulateSpans(fig13), 186u); // of 248 cells
    EXPECT_EQ(simulateSpans(fig14), 62u);
}

TEST(SimulateAll, AFailingRunIsRethrownAtAnyThreadCount)
{
    // Every run of the matrix throws; the first in cell order reaches
    // the caller once the workers have joined.
    PerfConfig cfg = quick(100);
    cfg.coreParams.maxMlp = 0;
    for (const char *threads : {"1", "2", "4"}) {
        SCOPED_TRACE(threads);
        const ScopedThreadsEnv env(threads);
        EXPECT_THROW(simulateAll(smallMatrix(), cfg), std::invalid_argument);
    }
}

TEST(SimulateAll, EmptyMatrixHasNoResults)
{
    const ScopedThreadsEnv env("4");
    EXPECT_TRUE(simulateAll({}, quick(300)).empty());
}

} // namespace
} // namespace xed::perfsim
