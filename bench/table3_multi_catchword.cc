/**
 * Table III: likelihood of receiving multiple catch-words in a single
 * access under scaling faults. Prints the paper's closed form
 * ((64r)^2/2), the exact 9-chip binomial, and a Monte-Carlo estimate
 * of the same binomial: per access, one Bernoulli draw per chip (does
 * its word hold a scaling fault, so that it sends a catch-word?) until
 * two chips do. No controller is built, so the column checks the
 * binomial's arithmetic, not the XED data path.
 */

#include <iostream>

#include "analysis/catchword_mc.hh"
#include "analysis/multi_catchword.hh"
#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "common/table.hh"

using namespace xed;
using namespace xed::analysis;

int
main()
{
    Table table({"Scaling-Fault Rate", "Paper formula",
                 "Exact binomial (9 chips)", "Monte-Carlo",
                 "Accesses between episodes"});

    Rng rng(0x7AB3);
    const std::uint64_t accesses = bench::envScale("XED_TRIALS", 2000000);
    for (const double rate : {1e-4, 1e-5, 1e-6}) {
        const std::uint64_t multi =
            monteCarloMultiCatchWordAccesses(rng, rate, accesses);
        const double mc = static_cast<double>(multi) /
                          static_cast<double>(accesses);
        table.addRow({Table::sci(rate, 0),
                      Table::sci(paperTable3Value(rate), 1),
                      Table::sci(probMultipleCatchWords(rate), 2),
                      multi ? Table::sci(mc, 2) : std::string("<1/trials"),
                      Table::sci(accessesBetweenMultiCatchWords(rate), 1)});
    }
    table.print(std::cout,
                "Table III: likelihood of multiple catch-words per "
                "access (" + std::to_string(accesses) + " MC accesses)");
    std::cout << "\nPaper values: 2e-5 / 2e-7 / 2e-9 -- the paper's "
                 "closed form is the per-pair probability (64r)^2/2;\n"
                 "the exact 9-chip binomial is C(9,2) = 36x/2 larger. "
                 "Both are shown (see EXPERIMENTS.md).\n";
    return 0;
}
