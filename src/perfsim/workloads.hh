/**
 * @file
 * The evaluation workloads (Section X): SPEC CPU2006, PARSEC, BioBench
 * and five commercial applications, run in 8-core rate mode. The paper
 * selected benchmarks with > 1 LLC miss per 1000 instructions.
 *
 * Pin traces are not redistributable, so each workload is characterized
 * by the statistics that determine memory-system behaviour -- LLC
 * misses per kilo-instruction, row-buffer locality, write fraction and
 * achievable memory-level parallelism -- taken from published
 * characterizations of these suites. The synthetic trace generator
 * reproduces those statistics (see DESIGN.md, substitution table).
 */

#ifndef XED_PERFSIM_WORKLOADS_HH
#define XED_PERFSIM_WORKLOADS_HH

#include <string>
#include <vector>

namespace xed::perfsim
{

enum class Suite
{
    Spec2006,
    Parsec,
    BioBench,
    Commercial,
};

const char *suiteName(Suite suite);

struct Workload
{
    std::string name;
    Suite suite;
    /** LLC misses (memory reads) per 1000 instructions. */
    double mpki;
    /** Row-buffer hit rate of the access stream. */
    double rowHitRate;
    /** Fraction of memory operations that are writebacks. */
    double writeFraction;
    /**
     * Achievable memory-level parallelism (outstanding reads). Low for
     * pointer-chasing codes (mcf), high for streaming codes
     * (libquantum, lbm).
     */
    unsigned mlp;

    bool operator==(const Workload &) const = default;
};

/** The paper's 31 workloads (Figure 11 x-axis). */
const std::vector<Workload> &paperWorkloads();

/** Lookup by name; throws std::out_of_range if unknown. */
const Workload &workloadByName(const std::string &name);

} // namespace xed::perfsim

#endif // XED_PERFSIM_WORKLOADS_HH
