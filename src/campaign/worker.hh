/**
 * @file
 * Distributed campaign execution: the worker loop and the merge.
 *
 * `runWorker` is one fleet member: it joins a ShardQueue, repeatedly
 * claims pending shards from the spec's deterministic plan, executes
 * them with the same per-shard engine entry points the single-process
 * runner uses (runner.hh runShard), and commits one fragment per
 * shard — the exact store record bytes, plus the forensics sidecar
 * record for reliability campaigns. A heartbeat thread renews the
 * lease on the shard being executed, so only dead (or pathologically
 * stalled) workers lose their claim. Workers are fully symmetric:
 * there is no coordinator process, and any number of them can join or
 * crash at any time.
 *
 * `mergeFragments` assembles a completed queue into the canonical
 * result store (and forensics sidecar): manifest record, every
 * fragment's lines appended verbatim in plan order, then the summary
 * records recomputed from the decoded shard results — the same code
 * path resume uses, so the merged file is byte-identical to what one
 * uninterrupted single-process run would have written (cmp-verified
 * by tests/campaign/test_worker.cc and scripts/dist_smoke.sh).
 *
 * Determinism rules the merge relies on:
 *  - shard execution is a pure function of (spec, shard index);
 *  - fragments carry pre-serialized record lines, appended verbatim;
 *  - summary records are derived from decoded shard payloads, which
 *    round-trip exactly (integer counters; shortest-round-trip
 *    doubles).
 */

#ifndef XED_CAMPAIGN_WORKER_HH
#define XED_CAMPAIGN_WORKER_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "campaign/queue.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"

namespace xed::campaign
{

struct WorkerOptions
{
    /** Shared queue directory (see queue.hh). */
    std::string queueDir;
    /** Worker identity; empty = ShardQueue::defaultWorkerId(). */
    std::string workerId;
    /** Lease lifetime before other workers may re-claim our shard. */
    double leaseSeconds = 60.0;
    /** Sleep between scans while every pending shard is leased out. */
    double pollSeconds = 0.2;
    /** Stop after committing this many shards; 0 = run until the
     *  queue is drained. Tests use this to simulate partial workers. */
    std::uint64_t maxShards = 0;
    /** Progress sampling period; <= 0 disables the progress thread. */
    double progressIntervalSeconds = 0;
    /** Stream for live status lines (the CLI passes stderr). */
    std::ostream *progressOut = nullptr;
    /** Write `<queueDir>/worker-<id>.telemetry.jsonl`. */
    bool telemetrySidecar = true;
    /** Include forensics lines in reliability fragments. All workers
     *  of one queue must agree (validated against the manifest). */
    bool forensics = true;
    /** fsync fragments and leases; see store.hh. */
    bool durable = true;
    /** Force the trace recorder on (the CLI's XED_TRACE also works);
     *  the export lands in `<queueDir>/worker-<id>.trace.json`. */
    bool trace = false;
};

struct WorkerOutcome
{
    bool ok = false;
    std::string error;
    /** Shards this worker executed and committed (duplicates incl.). */
    std::uint64_t shardsRun = 0;
    /** Commits that found a byte-identical fragment already present
     *  (this worker was a re-claimed straggler). */
    std::uint64_t duplicates = 0;
    /** Every fragment existed when the worker exited. */
    bool queueDrained = false;
    /** Where the trace was exported ("" when tracing was off). */
    std::string tracePath;
};

WorkerOutcome runWorker(const CampaignSpec &spec,
                        const WorkerOptions &options);

struct MergeOptions
{
    std::string queueDir;
    /** Result store path; the forensics sidecar derives from it. */
    std::string outPath;
    /** Poll until every fragment exists instead of failing fast. */
    bool waitForFragments = false;
    double pollSeconds = 0.5;
    /** Give up waiting after this long; 0 = wait forever. */
    double timeoutSeconds = 0;
    /** fsync the assembled store and sidecar. */
    bool durable = true;
};

struct MergeOutcome
{
    bool ok = false;
    std::string error;
    std::uint64_t shardsMerged = 0;
    /** Sidecar written (reliability campaigns with forensics). */
    bool forensicsWritten = false;
    /** points x cells summaries, as RunOutcome::cells. */
    std::vector<CellSummary> cells;
};

/** Assemble a queue's fragments into the canonical store bytes. */
MergeOutcome mergeFragments(const CampaignSpec &spec,
                            const MergeOptions &options);

/** A committed fragment decoded against its plan task. */
struct DecodedFragment
{
    /** With forensics, result.mc carries the forensics line's part. */
    ShardResult result;
    /** The record lines, verbatim and without their newlines; they
     *  view the decoded bytes, which must outlive them. */
    std::string_view shardLine;
    std::string_view forensicsLine;
};

/** The fragment decoder the merge and the status scan share: @p bytes
 *  must be one shard record line for @p task (decodeShardRecord) and,
 *  when @p forensics, its forensics line (decodeForensicsRecord). */
std::optional<DecodedFragment> decodeFragment(const CampaignSpec &spec,
                                              const ShardTask &task,
                                              std::string_view bytes,
                                              bool forensics,
                                              std::string *error);

} // namespace xed::campaign

#endif // XED_CAMPAIGN_WORKER_HH
