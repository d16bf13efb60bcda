/**
 * @file
 * The campaign runner: executes a CampaignSpec's shard plan through
 * the Monte-Carlo engine (or the on-die code detection kernel) on a
 * worker pool, streams completed shards to the JSONL store strictly
 * in plan order, and exposes live telemetry.
 *
 * Determinism contract: shard s of cell c simulates a fixed range of
 * RNG streams derived only from (spec.seed, range), so the merged
 * result -- and, with a store, the result file's bytes -- depend on
 * nothing but the spec. Thread count, interrupts and resumes are
 * invisible: a run killed after k shards and resumed produces a file
 * byte-identical to an uninterrupted run.
 */

#ifndef XED_CAMPAIGN_RUNNER_HH
#define XED_CAMPAIGN_RUNNER_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "campaign/store.hh"

namespace xed::campaign
{

struct RunOptions
{
    /** JSONL result file; empty runs in memory with no store. */
    std::string outPath;
    /** Replay completed shards from an existing store and continue;
     *  without a pre-existing file this behaves like a fresh run. */
    bool resume = false;
    /** Worker threads: 0 = spec.threads, then XED_MC_THREADS, then
     *  hardware concurrency. */
    unsigned threads = 0;
    /** Stop (cleanly, without a summary) once this many shard records
     *  exist; 0 = run to completion. Used by tests and the CLI to
     *  simulate interrupts at shard granularity. */
    std::uint64_t maxShards = 0;
    /** Progress sampling period; <= 0 disables the progress thread. */
    double progressIntervalSeconds = 0;
    /** Stream for live status lines (the CLI passes stderr). */
    std::ostream *progressOut = nullptr;
    /** Write `<outPath>.telemetry.jsonl` run/progress/done records. */
    bool telemetrySidecar = true;
    /** Write `<outPath>.forensics.jsonl` failure-attribution records
     *  (reliability campaigns with a store only). */
    bool forensicsSidecar = true;
    /** Force the trace recorder on for this run (the `trace` verb);
     *  otherwise recording follows the XED_TRACE environment knob. */
    bool trace = false;
    /** Chrome-trace JSON export path when recording is enabled; empty
     *  defaults to `<outPath>.trace.json` (no export without a store
     *  unless set explicitly). */
    std::string traceOut;
    /** fsync the result store and forensics sidecar once per commit:
     *  per batch of consecutive ready shards, and per manifest or
     *  summary record (see store.hh durableWritesEnabled()); benches
     *  that only measure throughput turn this off. */
    bool durableStore = true;
};

/** Merged result of one (sweep point, cell) after all its shards. */
struct CellSummary
{
    unsigned point = 0;
    unsigned cell = 0;
    std::string label;
    ShardResult result;
};

struct RunOutcome
{
    bool ok = false;
    std::string error;
    /** All shards done and (when a store is used) summary written. */
    bool complete = false;
    std::uint64_t shardsRun = 0;
    std::uint64_t shardsReplayed = 0;
    /** Where the trace was exported ("" when tracing was off). */
    std::string tracePath;
    /** Whether the forensics sidecar was written this run (resume
     *  disables it when the sidecar can't cover the replayed prefix). */
    bool forensicsWritten = false;
    /** points x cells summaries in point-major order. */
    std::vector<CellSummary> cells;

    /** The merged Monte-Carlo result for (point, cell). */
    const faultsim::McResult &
    mc(unsigned point, unsigned cell, unsigned cellsPerPoint) const
    {
        return cells[point * cellsPerPoint + cell].result.mc;
    }
};

RunOutcome runCampaign(const CampaignSpec &spec,
                       const RunOptions &options);

/**
 * Detection shard: trials [task.begin, task.end) of one
 * (code, pattern, weight) cell, runDetectionShards() for one task.
 * Exposed for the allocation and throughput tests.
 */
ShardResult runDetectionShard(const CampaignSpec &spec,
                              const ShardTask &task,
                              faultsim::McProgress *progress);

/**
 * Up to ecc::maxDetectLanes detection shards of one (point, cell) side
 * by side on the lane kernel (ecc/detect_lanes.hh); detected[k] is
 * tasks[k]'s count of detected patterns. Each shard draws its own
 * stream, keyed by (cell, shard ordinal), so its count depends on
 * nothing else: not the shards beside it, the thread count or an
 * interrupt. No steady-state allocation. One "detection-group" trace
 * span carries the first task's index and the shard count. Throws
 * std::invalid_argument on an empty, oversized or mixed-cell group.
 */
void runDetectionShards(const CampaignSpec &spec,
                        std::span<const ShardTask> tasks,
                        std::span<std::uint64_t> detected,
                        faultsim::McProgress *progress);

/**
 * Reliability shard: systems [task.begin, task.end) of one scheme
 * cell through runMonteCarloShard. System s draws Rng::stream(seed, s)
 * regardless of sharding, so any partition of the plan over any
 * number of threads merges to identical results.
 */
ShardResult runReliabilityShard(const CampaignSpec &spec,
                                const ShardTask &task,
                                faultsim::McProgress *progress);

/**
 * Fleet shard: slots [task.begin, task.end) of the fleet through
 * fleet::runFleetShard. Slot s draws Rng::stream(seed, s) and its
 * whole multi-year history (replacements included) runs in the shard
 * covering it, so any partition merges to identical results.
 */
ShardResult runFleetShard(const CampaignSpec &spec,
                          const ShardTask &task,
                          faultsim::McProgress *progress);

/** Kind dispatch over the shard executors above. */
ShardResult runShard(const CampaignSpec &spec, const ShardTask &task,
                     faultsim::McProgress *progress);

/** One result's failures by type: the reliability failure types,
 *  fleet "due" and "sdc" events, or detection "escape"s. */
std::map<std::string, std::uint64_t>
failuresByTypeOf(const CampaignSpec &spec, const ShardResult &result);

/** The sum of failuresByTypeOf(). Feeds the summary's failure map,
 *  the "failed.<label>" telemetry counters and the status totals. */
std::uint64_t failedSystemsOf(const CampaignSpec &spec,
                              const ShardResult &result);

/** The deterministic summary record appended after the last shard. */
json::Value summaryRecord(const CampaignSpec &spec,
                          const std::vector<CellSummary> &cells);

/** --dry-run: print the resolved spec, hash and shard plan. */
void printPlan(const CampaignSpec &spec, std::ostream &os);

/** Render a result store (complete or partial) as text tables, with
 *  the forensics of the store's shard prefix when it has a sidecar.
 *  @p threads: the loads' decoding threads (loadStore()). */
bool printReport(const std::string &storePath, std::ostream &os,
                 std::string *error, unsigned threads = 0);

} // namespace xed::campaign

#endif // XED_CAMPAIGN_RUNNER_HH
