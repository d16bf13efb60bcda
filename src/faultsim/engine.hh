/**
 * @file
 * The Monte-Carlo reliability engine (Section III of the paper).
 *
 * For each simulated system (4 channels x 1 dual-rank DIMM each, Table
 * V), runtime faults are sampled per chip from the Table I FIT rates
 * over a 7-year lifetime and fed to a correction-scheme evaluator; the
 * system "fails" if the scheme is defeated at any time. The engine
 * reports the probability of system failure as a function of time,
 * which is exactly what Figures 1, 7, 8, 9 and 10 plot.
 */

#ifndef XED_FAULTSIM_ENGINE_HH
#define XED_FAULTSIM_ENGINE_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "faultsim/scheme.hh"
#include "obs/forensics.hh"

namespace xed::faultsim
{

/**
 * Live progress shared by the simulation workers and a sampling
 * thread (the campaign runner's telemetry). Workers flush in batches,
 * so the counters lag the truth by at most a few hundred systems;
 * reads are relaxed snapshots suitable for rate/ETA estimation only.
 */
struct McProgress
{
    std::atomic<std::uint64_t> systemsDone{0};
    std::atomic<std::uint64_t> failedSystems{0};
};

struct McConfig
{
    std::uint64_t systems = 200000;
    double years = evaluationYears;
    unsigned channels = 4; ///< one dual-rank DIMM per channel (Table V)
    std::uint64_t seed = 0xFA517;
    dram::ChipGeometry geometry{};
    /**
     * Patrol-scrub period in hours (repair model): transient faults
     * disappear at the next scrub boundary, so multi-chip combinations
     * must be concurrent. 0 (the paper's setting) disables scrubbing
     * and lets faults accumulate for the whole lifetime.
     */
    double scrubIntervalHours = 0;
    /**
     * Worker threads sharding the system loop. 0 (the default) means
     * "auto": the XED_MC_THREADS environment variable if set, else
     * std::thread::hardware_concurrency(). Because every system s
     * draws from its own counter-based RNG stream (seed, s), the
     * result is bit-identical for every thread count, including 1.
     */
    unsigned threads = 0;
    /**
     * Per-chip FIT rates. Defaults to Table I; campaign specs may
     * override individual entries (sensitivity studies, vendor data).
     */
    FitTable fit{};
    /**
     * Optional live progress sink; when non-null the workers add
     * completed systems / observed failures in batches. Purely
     * observational: never affects the sampled faults or the result.
     */
    McProgress *progress = nullptr;
};

/**
 * Forensic detail for one failed system: enough to reconstruct what
 * defeated the scheme without rerunning. The engine keeps only the
 * first few per result (McResult::maxAutopsyRecords) -- a capped,
 * deterministic exemplar set, not a full log.
 */
struct AutopsyRecord
{
    std::uint64_t system = 0; ///< global system index
    double timeHours = 0;     ///< earliest failure time
    const char *type = "";    ///< failure-type counter label
    std::uint8_t kindsMask = 0;
    obs::FailureClass cls = obs::FailureClass::Due;
    obs::DetectionOutcome outcome = obs::DetectionOutcome::None;
};

struct McResult
{
    /** Lowest-system-index exemplars kept across merges. */
    static constexpr std::size_t maxAutopsyRecords = 32;

    /** P(system failed by end of year y), y = 1..7 (index 0 unused). */
    std::array<Proportion, 8> failByYear{};
    /** Failure-cause breakdown (counts of failed systems by type). */
    CounterSet failureTypes;
    /** Class x kind-set x detection-outcome failure attribution. */
    obs::FailureAttribution attribution;
    /** Up to maxAutopsyRecords exemplar failures, system-index order. */
    std::vector<AutopsyRecord> autopsy;

    /** Final-lifetime probability of system failure (the last year
     *  that was actually simulated). */
    double
    probFailure() const
    {
        for (unsigned y = 7; y >= 1; --y)
            if (failByYear[y].trials() > 0)
                return failByYear[y].value();
        return 0.0;
    }

    /** Reduce another shard's partial result into this one. All counts
     *  are integers, so merging is exact; the autopsy exemplars keep
     *  the globally lowest system indices, so the reduction is
     *  order-insensitive too. */
    void
    merge(const McResult &other)
    {
        for (unsigned y = 0; y < failByYear.size(); ++y)
            failByYear[y].merge(other.failByYear[y]);
        failureTypes.merge(other.failureTypes);
        attribution.merge(other.attribution);
        if (!other.autopsy.empty()) {
            autopsy.insert(autopsy.end(), other.autopsy.begin(),
                           other.autopsy.end());
            std::sort(autopsy.begin(), autopsy.end(),
                      [](const AutopsyRecord &a, const AutopsyRecord &b) {
                          return a.system < b.system;
                      });
            if (autopsy.size() > maxAutopsyRecords)
                autopsy.resize(maxAutopsyRecords);
        }
    }
};

/**
 * Run the Monte-Carlo for one scheme, sharding the system loop over
 * config.threads workers (see McConfig::threads). System s derives its
 * RNG as Rng::stream(config.seed, s), so the returned McResult is
 * bit-identical for any thread count.
 */
McResult runMonteCarlo(const Scheme &scheme, const McConfig &config);

/**
 * Simulate only systems [begin, end) of the campaign described by
 * @p config, single-threaded, and return that shard's partial result.
 * System s still draws from Rng::stream(config.seed, s), so
 * concatenating (merging) adjacent shards reproduces runMonteCarlo
 * bit-for-bit regardless of how the range was cut -- the primitive the
 * campaign runner builds deterministic, resumable shards from. An
 * empty range (begin == end) returns the merge identity: a McResult
 * with zero trials everywhere.
 */
McResult runMonteCarloShard(const Scheme &scheme, const McConfig &config,
                            std::uint64_t begin, std::uint64_t end);

} // namespace xed::faultsim

#endif // XED_FAULTSIM_ENGINE_HH
