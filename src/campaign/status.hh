/**
 * @file
 * Read-only fleet observability over the distributed-queue protocol.
 *
 * A FleetStatus is one merged snapshot of a running (or finished)
 * campaign, assembled purely by READING what the queue protocol
 * already writes -- the scanner never creates, renames, touches or
 * deletes anything, so pointing `status`/`serve` at a live queue can
 * never perturb the run (DESIGN.md section 4k pins this contract,
 * and the smoke test cmp-verifies the queue bytes around a scan):
 *
 *   queue.json                    identity, shard count and the spec
 *                                 (readQueueManifest)
 *   shard-NNNNNN.jsonl            committed fragments, decoded by the
 *                                 merge's decodeFragment(): done counts,
 *                                 units, failures, detection outcomes
 *   lease-NNNNNN.json             live claims: mtime age vs the lease
 *                                 lifetime -> per-worker liveness
 *   worker-<id>.telemetry.jsonl   volatile per-worker progress: rates,
 *                                 counters and the exact histogram
 *                                 buckets (obs/telemetry.hh codec) that
 *                                 merge into fleet-wide p50/p90/p99
 *
 * scanStore reads a single-process run the same way: the store through
 * loadStore(), detection outcomes from the forensics sidecar's records
 * of the store's shards, and `<out>.telemetry.jsonl`. Failures go
 * through the runner's failedSystemsOf(), so both scans total exactly
 * what `merge` would write and `report --format=json` diffs cleanly
 * against a live `/status.json`.
 *
 * Status tolerates what the merge rejects: a fragment that does not
 * decode (or any fragment of a queue.json without a spec) counts as
 * done and damaged but adds nothing; torn telemetry tails are skipped
 * and counted; a worker whose lease has aged past the lifetime shows
 * as dead. A store follows loadStore()'s rules: corruption is an
 * error, a torn final line is not damage.
 */

#ifndef XED_CAMPAIGN_STATUS_HH
#define XED_CAMPAIGN_STATUS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"

namespace xed::campaign
{

/**
 * Liveness classes, derived from the newest heartbeat evidence a
 * worker left behind (lease mtime or telemetry sidecar mtime,
 * whichever is fresher) against the lease lifetime L:
 *
 *   live     age <= L/2   (workers renew at L/4: at most one missed
 *                          beat -- healthy)
 *   stale    age <= L     (several missed beats; the lease still
 *                          protects its shard, but something is wrong)
 *   dead     age >  L     (the lease is breakable; the worker is gone
 *                          or pathologically stalled)
 *   done     telemetry ended with a terminal "done" record
 *   aborted  telemetry ended with a terminal "aborted" record
 */
enum class WorkerLiveness { Live, Stale, Dead, Done, Aborted };

const char *workerLivenessName(WorkerLiveness liveness);

/** Merged exact histogram summary (common/metrics Histogram). */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    /** Bucket-midpoint approximation of the sample sum (feeds the
     *  Prometheus summary's `_sum` series). */
    double approxSum = 0;
};

struct WorkerStatus
{
    std::string id;
    WorkerLiveness liveness = WorkerLiveness::Dead;
    std::string host;           ///< from the run record; may be empty
    std::uint64_t shardsDone = 0;
    std::uint64_t unitsDone = 0;
    std::uint64_t failedUnits = 0;
    double unitsPerSec = 0;
    /** Seconds since the freshest heartbeat evidence; absent for a
     *  finished worker. */
    std::optional<double> heartbeatAgeSeconds;
    /** Shards this worker currently holds a lease on. */
    std::vector<std::uint64_t> leasedShards;
};

struct FleetStatus
{
    bool ok = false;
    std::string error;
    std::string source; ///< "queue" or "store"
    std::string path;   ///< the scanned queue dir / store file

    std::string name;
    std::string specHash;
    bool complete = false;

    std::uint64_t shardsTotal = 0;
    std::uint64_t shardsDone = 0;
    std::uint64_t shardsClaimed = 0; ///< leased, not yet committed
    std::uint64_t shardsPending = 0;

    /** Exact, from committed shard records: sum of [begin, end). */
    std::uint64_t unitsDone = 0;
    /** Campaign-wide planned units, from telemetry (absent when no
     *  sidecar has reported yet). */
    std::optional<std::uint64_t> unitsTotal;

    /** Exact failure totals from committed shard records (identical
     *  to the merged store's, byte-provenance and all). */
    std::uint64_t failedUnits = 0;
    std::map<std::string, std::uint64_t> failuresByCell;
    std::map<std::string, std::uint64_t> failuresByType;
    /** Detection-outcome counters aggregated from the forensics
     *  records (fragment second lines / the forensics sidecar). */
    std::map<std::string, std::uint64_t> outcomes;

    /** Sum of live/stale workers' last reported rates. */
    double unitsPerSec = 0;
    std::optional<double> etaSeconds;

    /** Exact cross-worker merges of the telemetry histograms. */
    HistogramSummary shardSeconds;
    HistogramSummary shardUnitsPerSec;

    std::vector<WorkerStatus> workers; ///< sorted by id

    std::uint64_t telemetryFiles = 0;
    /** Torn/unknown telemetry lines skipped across all sidecars. */
    std::uint64_t skippedTelemetryLines = 0;
    /** Fragments that do not decode (counted, never fatal:
     *  observability outlives corruption). */
    std::uint64_t damagedFragments = 0;
};

struct StatusOptions
{
    /** Lease lifetime used to classify worker liveness; must match
     *  the fleet's --lease-seconds for accurate live/stale/dead
     *  boundaries (the protocol does not record it in the queue). */
    double leaseSeconds = 60.0;
};

/** Snapshot a distributed queue directory. */
FleetStatus scanQueueDir(const std::string &dir,
                         const StatusOptions &options);

/** Snapshot a single-process run: the result store plus its
 *  `<out>.telemetry.jsonl` / `<out>.forensics.jsonl` sidecars. */
FleetStatus scanStore(const std::string &storePath,
                      const StatusOptions &options);

/** Dispatch on @p path: a directory scans as a queue, a file as a
 *  store (a `<out>.telemetry.jsonl` path is mapped to its store). */
FleetStatus scanStatusSource(const std::string &path,
                             const StatusOptions &options);

/** The canonical machine form (`status --json`, `/status.json`,
 *  `report --format=json`): one deterministic key order, exact
 *  integers, so two snapshots diff cleanly. */
json::Value statusJson(const FleetStatus &status);

/** Human rendering (`status` without --json). */
void printStatus(const FleetStatus &status, std::ostream &os);

/** Prometheus text exposition format (`/metrics`). Metric names and
 *  label scheme are pinned in DESIGN.md section 4k. */
std::string prometheusText(const FleetStatus &status);

/** The static self-refreshing dashboard served at `/`. */
std::string dashboardHtml();

/** Map an HTTP path to the response body for `serve`: `/status.json`,
 *  `/metrics`, `/` (anything else 404s). Re-scans @p sourcePath per
 *  call, so every response is a fresh snapshot. Returns true when the
 *  path was recognized. */
bool statusEndpoint(const std::string &httpPath,
                    const std::string &sourcePath,
                    const StatusOptions &options, int *status,
                    std::string *contentType, std::string *body);

} // namespace xed::campaign

#endif // XED_CAMPAIGN_STATUS_HH
