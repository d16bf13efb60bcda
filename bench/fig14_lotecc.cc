/**
 * Figure 14: execution time of LOT-ECC (with write coalescing) relative
 * to XED, per suite. LOT-ECC's second-tier ECC updates add write
 * traffic; the paper reports a 6.6% average slowdown.
 */

#include <cmath>
#include <iostream>
#include <map>

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

    std::vector<RunCell> cells;
    for (const auto &w : paperWorkloads()) {
        cells.push_back({w, ProtectionMode::Xed});
        cells.push_back({w, ProtectionMode::LotEcc});
    }
    const auto runs = simulateAll(cells, cfg);

    std::map<Suite, std::pair<double, int>> bySuite;
    double totalLog = 0;
    int total = 0;
    std::size_t next = 0;
    for (const auto &w : paperWorkloads()) {
        const auto &xed = runs[next++];
        const auto &lot = runs[next++];
        const double norm = static_cast<double>(lot.cycles) /
                            static_cast<double>(xed.cycles);
        bySuite[w.suite].first += std::log(norm);
        bySuite[w.suite].second += 1;
        totalLog += std::log(norm);
        ++total;
    }

    Table table({"Suite", "LOT-ECC / XED execution time"});
    for (const auto &[suite, acc] : bySuite)
        table.addRow({suiteName(suite),
                      Table::fmt(std::exp(acc.first / acc.second), 3)});
    table.addRow({"GMEAN", Table::fmt(std::exp(totalLog / total), 3)});
    table.print(std::cout,
                "Figure 14: LOT-ECC (write-coalescing) vs XED "
                "(normalized execution time)");
    std::cout << "\nPaper: LOT-ECC is 6.6% slower than XED on average "
                 "due to the extra ECC-update writes.\n";
    return 0;
}
