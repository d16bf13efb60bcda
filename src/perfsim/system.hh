/**
 * @file
 * Top-level performance simulation: 8 cores in rate mode over the
 * DDR3 memory system (Table V), one run per (workload, protection
 * mode). Reports execution time and memory power, the quantities
 * Figures 11-14 plot normalized to the ECC-DIMM SECDED baseline.
 */

#ifndef XED_PERFSIM_SYSTEM_HH
#define XED_PERFSIM_SYSTEM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "perfsim/core.hh"
#include "perfsim/power.hh"
#include "perfsim/protection.hh"
#include "perfsim/workloads.hh"

namespace xed::perfsim
{

struct PerfConfig
{
    unsigned cores = 8; ///< Table V
    /** Memory operations simulated per core (trace length). */
    std::uint64_t memOpsPerCore = 30000;
    TimingParams timing{};
    CoreParams coreParams{};
    PowerParams currents{};
    std::uint64_t seed = 0x5EED;
    /** Hard cap to guarantee termination. */
    std::uint64_t maxCycles = 500000000;
};

struct RunResult
{
    std::string mode;
    std::string workload;
    std::uint64_t cycles = 0; ///< memory cycles to finish all cores
    double seconds = 0;
    MemStats stats{};
    PowerBreakdown power{};

    double memoryPowerWatts() const { return power.total(); }
};

/** Simulate one workload under one protection mode. */
RunResult simulate(const Workload &workload, ProtectionMode mode,
                   const PerfConfig &config = {});

/** One (workload, mode) cell of a figure's run matrix. */
struct RunCell
{
    Workload workload;
    ProtectionMode mode;
};

/**
 * simulate() every cell under @p config, one result per cell in
 * request order. Cells with the same workload and equal modeEffects()
 * are simulated once and share a result, except that each result
 * carries its own cell's modeLabel(). The distinct runs go to
 * XED_MC_THREADS workers (else the hardware's), as
 * resolveWorkerThreads resolves them, on runOrdered(); each run is
 * independently seeded, so results do not depend on the thread count.
 * A run that throws stops the pool, and the first failure in cell
 * order is rethrown once the workers have joined.
 */
std::vector<RunResult> simulateAll(const std::vector<RunCell> &cells,
                                   const PerfConfig &config = {});

/** Convenience: exec-time and power of @p mode normalized to SECDED. */
struct NormalizedResult
{
    double execTime = 1.0;
    double memoryPower = 1.0;
};

NormalizedResult normalizedAgainstBaseline(const Workload &workload,
                                           ProtectionMode mode,
                                           const PerfConfig &config = {});

} // namespace xed::perfsim

#endif // XED_PERFSIM_SYSTEM_HH
