/**
 * Figure 12: normalized memory power (vs the ECC-DIMM SECDED baseline)
 * for XED, Chipkill, XED-on-Chipkill and Double-Chipkill. Chipkill's
 * longer execution time *lowers* its average power (~-8%);
 * Double-Chipkill's 36-chip activations raise it (~+8.4%).
 */

#include <cmath>
#include <iostream>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "perfsim/system.hh"

using namespace xed;
using namespace xed::perfsim;

int
main()
{
    PerfConfig cfg;
    cfg.memOpsPerCore = bench::perfOps();

    const ProtectionMode modes[] = {
        ProtectionMode::Xed, ProtectionMode::Chipkill,
        ProtectionMode::XedChipkill, ProtectionMode::DoubleChipkill};

    std::vector<RunCell> cells;
    for (const auto &w : paperWorkloads()) {
        cells.push_back({w, ProtectionMode::SecdedBaseline});
        for (const auto mode : modes)
            cells.push_back({w, mode});
    }
    const auto runs = simulateAll(cells, cfg);

    Table table({"Benchmark", "XED (9)", "Chipkill (18)",
                 "XED+CK (18)", "Double-CK (36)"});
    double logSum[4] = {0, 0, 0, 0};
    int count = 0;
    std::size_t next = 0;
    for (const auto &w : paperWorkloads()) {
        const auto &baseline = runs[next++];
        std::vector<std::string> row{w.name};
        for (int m = 0; m < 4; ++m) {
            const auto &run = runs[next++];
            const double norm =
                run.memoryPowerWatts() / baseline.memoryPowerWatts();
            logSum[m] += std::log(norm);
            row.push_back(Table::fmt(norm, 2));
        }
        table.addRow(row);
        ++count;
    }
    table.addRow({"Gmean", Table::fmt(std::exp(logSum[0] / count), 2),
                  Table::fmt(std::exp(logSum[1] / count), 2),
                  Table::fmt(std::exp(logSum[2] / count), 2),
                  Table::fmt(std::exp(logSum[3] / count), 2)});
    table.print(std::cout,
                "Figure 12: normalized memory power vs ECC-DIMM "
                "(8 cores, " + std::to_string(cfg.memOpsPerCore) +
                " memory ops/core)");
    std::cout << "\nPaper: Chipkill ~0.92 (power drops with longer "
                 "execution), XED ~1.00, XED+CK ~0.92, "
                 "Double-Chipkill ~1.084.\n";
    return 0;
}
