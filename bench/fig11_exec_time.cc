/**
 * Figure 11: normalized execution time (vs the ECC-DIMM SECDED
 * baseline) for XED, Chipkill, XED-on-Chipkill and Double-Chipkill
 * across the 31 evaluation workloads, 8-core rate mode.
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
            const double norm = static_cast<double>(run.cycles) /
                                static_cast<double>(baseline.cycles);
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
                "Figure 11: normalized execution time vs ECC-DIMM "
                "(8 cores, " + std::to_string(cfg.memOpsPerCore) +
                " memory ops/core)");
    std::cout << "\nPaper gmeans: XED ~1.00, Chipkill 1.21, XED+CK "
                 "1.21, Double-Chipkill 1.82;\n"
                 "libquantum: CK +63.5%, DCK +220%; mcf: CK +50.7%, "
                 "DCK +180%.\n";
    return 0;
}
