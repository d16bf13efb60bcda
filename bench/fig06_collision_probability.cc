/**
 * Figure 6: probability of a catch-word/data collision over time.
 *
 * Prints three models: the paper's effective parameterization (mean
 * 3.2M years for x8), the x4 variant (mean 6.6 hours, Section IX-A),
 * and the literal write-every-4ns reading (mean ~2,339 years) -- the
 * deviation documented in EXPERIMENTS.md. A scaled-down Monte-Carlo
 * (16-bit catch-word) validates the exponential model.
 */

#include <iostream>

#include "analysis/catchword_mc.hh"
#include "analysis/collision.hh"
#include "bench/bench_util.hh"
#include "common/table.hh"

using namespace xed;
using namespace xed::analysis;

int
main()
{
    const auto paperX8 = paperX8Model();
    const auto raw = raw4nsX8Model();

    Table table({"Years", "P(collision) paper-x8", "P(collision) raw-4ns"});
    for (const double years :
         {1e3, 1e4, 1e5, 1e6, 3.2e6, 1e7, 1e8}) {
        table.addRow({Table::sci(years, 1),
                      Table::sci(paperX8.probCollisionWithinYears(years), 3),
                      Table::sci(raw.probCollisionWithinYears(years), 3)});
    }
    table.print(std::cout, "Figure 6: catch-word collision probability "
                           "over time (x8 devices, 64-bit catch-word)");

    std::cout << "\nMean time to collision:\n"
              << "  paper-effective x8 (5.48us/write): "
              << Table::sci(paperX8.meanYearsToCollision(), 3)
              << " years (paper: 3.2e6 years)\n"
              << "  x4 devices, 32-bit catch-word:     "
              << Table::fmt(paperX4Model().meanSecondsToCollision() /
                                3600.0,
                            2)
              << " hours (paper: 6.6 hours)\n"
              << "  literal 4ns writes:                "
              << Table::fmt(raw.meanYearsToCollision(), 0)
              << " years (see EXPERIMENTS.md)\n";

    // Monte-Carlo validation with a 16-bit catch-word so collisions are
    // observable: the empirical mean writes-to-collision must be 2^16.
    const std::uint64_t trials = bench::envScale("XED_TRIALS", 4000);
    const std::uint64_t writes = monteCarloWritesToCollision(0xC0117, trials);
    std::cout << "\nScaled-down Monte-Carlo (16-bit catch-word, "
              << trials << " trials): mean writes to collision = "
              << Table::fmt(static_cast<double>(writes) /
                                static_cast<double>(trials),
                            0)
              << " (model: 65536)\n";
    return 0;
}
