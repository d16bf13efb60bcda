/**
 * Figure 13: the cost of exposing On-Die ECC with an extra burst or an
 * additional transaction instead of catch-words, for Chipkill and
 * Double-Chipkill classes. Values are normalized to the corresponding
 * XED implementation (XED+Chipkill / plain Double-Chipkill hardware).
 */

#include <cmath>
#include <iostream>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "perfsim/system.hh"

using namespace xed;
using namespace xed::perfsim;

namespace
{

struct Alternative
{
    const char *label;
    ProtectionMode mode;
    ProtectionMode reference;
};

} // namespace

int
main()
{
    PerfConfig cfg;
    cfg.memOpsPerCore = bench::perfOps();

    const Alternative alts[] = {
        {"Chipkill + extra burst", ProtectionMode::ChipkillExtraBurst,
         ProtectionMode::XedChipkill},
        {"Chipkill + extra transaction",
         ProtectionMode::ChipkillExtraTransaction,
         ProtectionMode::XedChipkill},
        {"Double-CK + extra burst",
         ProtectionMode::DoubleChipkillExtraBurst,
         ProtectionMode::DoubleChipkill},
        {"Double-CK + extra transaction",
         ProtectionMode::DoubleChipkillExtraTransaction,
         ProtectionMode::DoubleChipkill},
    };

    // The references repeat across alternatives; simulateAll runs each
    // distinct cell once.
    std::vector<RunCell> cells;
    for (const auto &alt : alts) {
        for (const auto &w : paperWorkloads()) {
            cells.push_back({w, alt.reference});
            cells.push_back({w, alt.mode});
        }
    }
    const auto runs = simulateAll(cells, cfg);

    Table table({"Alternative (vs XED implementation)",
                 "Execution time", "Memory power"});
    std::size_t next = 0;
    for (const auto &alt : alts) {
        double execLog = 0, powerLog = 0;
        int count = 0;
        for (std::size_t w = 0; w < paperWorkloads().size(); ++w) {
            const auto &ref = runs[next++];
            const auto &run = runs[next++];
            execLog += std::log(static_cast<double>(run.cycles) /
                                static_cast<double>(ref.cycles));
            powerLog += std::log(run.memoryPowerWatts() /
                                 ref.memoryPowerWatts());
            ++count;
        }
        table.addRow({alt.label,
                      Table::fmt(std::exp(execLog / count), 3),
                      Table::fmt(std::exp(powerLog / count), 3)});
    }
    table.print(std::cout,
                "Figure 13: performance and power overheads of "
                "exposing On-Die ECC with extra bursts/transactions "
                "(gmean over all workloads)");
    std::cout << "\nPaper: both alternatives cost up to ~1.25x in "
                 "execution time and power relative to the XED "
                 "implementations; the extra transaction is the most "
                 "expensive.\n";
    return 0;
}
