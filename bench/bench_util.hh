/**
 * @file
 * Shared helpers for the reproduction harnesses: environment-variable
 * scaling knobs and common formatting.
 *
 * Every bench accepts:
 *   XED_MC_SYSTEMS  -- Monte-Carlo systems per scheme (reliability)
 *   XED_MC_THREADS  -- worker threads of the Monte-Carlo engine and of
 *                      the perfsim run matrix behind Figures 11-14
 *                      (default: hardware concurrency; every bench
 *                      prints the same bytes at any thread count)
 *   XED_PERF_OPS    -- memory ops per core (performance)
 * so the full-fidelity (paper-scale) runs are one env var away.
 *
 * XED_MC_THREADS needs no per-bench plumbing: McConfig::threads
 * defaults to 0 ("auto") and perfsim::simulateAll always sizes its
 * pool that way; resolveWorkerThreads (common/env.hh) turns "auto"
 * into XED_MC_THREADS and then std::thread::hardware_concurrency().
 */

#ifndef XED_BENCH_BENCH_UTIL_HH
#define XED_BENCH_BENCH_UTIL_HH

#include <cstdint>

#include "common/env.hh"
#include "faultsim/engine.hh"

namespace xed::bench
{

inline std::uint64_t
envScale(const char *name, std::uint64_t fallback)
{
    // Strict parse: a malformed value (garbage, sign, overflow) throws
    // instead of silently running the bench at the fallback scale. An
    // explicit 0 keeps the historical "use the default" meaning.
    if (const auto parsed = envU64(name); parsed && *parsed > 0)
        return *parsed;
    return fallback;
}

inline std::uint64_t
mcSystems(std::uint64_t fallback = 1000000)
{
    return envScale("XED_MC_SYSTEMS", fallback);
}

inline std::uint64_t
perfOps(std::uint64_t fallback = 8000)
{
    return envScale("XED_PERF_OPS", fallback);
}

/** Monte-Carlo seed: XED_MC_SEED, else the bench's pinned seed. */
inline std::uint64_t
mcSeed(std::uint64_t fallback)
{
    return envScale("XED_MC_SEED", fallback);
}

/**
 * The standard reliability-bench configuration: systems and seed
 * resolved from the environment with the bench's defaults.
 * Threads stay 0 ("auto"), which the engine resolves to
 * XED_MC_THREADS and then the hardware.
 */
inline faultsim::McConfig
mcConfig(std::uint64_t defaultSeed, std::uint64_t systemsFallback = 1000000)
{
    faultsim::McConfig cfg;
    cfg.systems = mcSystems(systemsFallback);
    cfg.seed = mcSeed(defaultSeed);
    return cfg;
}

} // namespace xed::bench

#endif // XED_BENCH_BENCH_UTIL_HH
