/**
 * @file
 * Read-only observability over a campaign's result store.
 *
 * A RunStatus is one snapshot of a running (or finished) campaign,
 * assembled purely by READING what `run` and `resume` already write --
 * the scanner never creates, truncates, touches or deletes anything,
 * so pointing `status`/`serve` at a live run can never perturb it
 * (DESIGN.md section 4k pins this contract, and the smoke test
 * cmp-verifies the store and its sidecars around a scan):
 *
 *   <out>                     the result store, through loadStore():
 *                             identity, done shards, units and
 *                             failures of its shard prefix
 *   <out>.forensics.jsonl     detection outcomes of the store's shards
 *                             (loadForensics)
 *   <out>.telemetry.jsonl     volatile run progress: host, rate,
 *                             planned units, the exact histogram
 *                             buckets (obs/telemetry.hh codec) behind
 *                             the p50/p90/p99; the newer of its mtime
 *                             and the store's is the run's heartbeat
 *
 * statusJson() turns the snapshot into the canonical document, and
 * every view renders that document alone: `status --json`, `report
 * --format=json` and `/status.json` print it, printStatus() and
 * prometheusText() format it, and the dashboard at `/` fetches it.
 *
 * Failures go through the runner's failedSystemsOf(), so the scan
 * totals exactly what the store's summary records, and `report
 * --format=json` diffs cleanly against a live `/status.json`.
 *
 * The store follows loadStore()'s rules: corruption is an error, a
 * torn final line is not damage. Telemetry is tolerant: torn or
 * unknown sidecar lines are skipped and counted, and a run that has
 * written neither its sidecar nor its store for livenessSeconds shows
 * as dead.
 */

#ifndef XED_CAMPAIGN_STATUS_HH
#define XED_CAMPAIGN_STATUS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "common/json.hh"

namespace xed::campaign
{

/** A run whose heartbeat is older than this is dead. */
constexpr double livenessSeconds = 60.0;

/**
 * Liveness states, derived from the age of a run's heartbeat -- the
 * newer of its telemetry sidecar's mtime (its last progress record)
 * and its store's (its last commit) -- against livenessSeconds L:
 *
 *   live     age <= L/2   (healthy: the progress thread writes every
 *                          second by default, and a run without one
 *                          still commits shards)
 *   stale    age <= L     (many missed samples; something is wrong)
 *   dead     age >  L     (the run is gone or pathologically stalled)
 *   done     telemetry ended with a terminal "done" record
 *   aborted  telemetry ended with a terminal "aborted" record
 */
enum class RunState { Live, Stale, Dead, Done, Aborted };

const char *runStateName(RunState state);

/** Exact histogram summary (common/metrics Histogram). */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    /** Bucket-midpoint approximation of the sample sum (feeds the
     *  Prometheus summary's `_sum` series). */
    double sum = 0;
};

struct RunStatus
{
    bool ok = false;
    std::string error;

    std::string name;
    std::string specHash;
    bool complete = false;

    std::uint64_t shardsTotal = 0;
    std::uint64_t shardsDone = 0;
    std::uint64_t shardsPending = 0;

    /** Exact, from committed shard records: sum of [begin, end). */
    std::uint64_t unitsDone = 0;
    /** Campaign-wide planned units, from telemetry (absent when the
     *  sidecar has not reported yet). */
    std::optional<std::uint64_t> unitsTotal;

    /** Exact failure totals from committed shard records (identical
     *  to the store summary's). */
    std::uint64_t failedUnits = 0;
    std::map<std::string, std::uint64_t> failuresByCell;
    std::map<std::string, std::uint64_t> failuresByType;
    /** Detection-outcome counters aggregated from the forensics
     *  sidecar's records of the store's shards. */
    std::map<std::string, std::uint64_t> outcomes;

    /** The run's last reported rate while it is live or stale. */
    double unitsPerSec = 0;
    std::optional<double> etaSeconds;

    /** The telemetry histograms' exact quantiles. */
    HistogramSummary shardSeconds;
    HistogramSummary shardUnitsPerSec;

    /** The run as its telemetry sidecar describes it. */
    struct Run
    {
        RunState state = RunState::Dead;
        std::string host; ///< from the run record; may be empty
        /** Seconds since the sidecar or the store was last written,
         *  whichever is newer; absent for a finished run. */
        std::optional<double> heartbeatAgeSeconds;
        /** The last reported rate, whatever the state. */
        double unitsPerSec = 0;
    };
    /** Absent when the store has no readable telemetry sidecar. */
    std::optional<Run> run;

    /** Torn/unknown telemetry lines skipped. */
    std::uint64_t skippedTelemetryLines = 0;
};

/** Snapshot a run: the result store plus its `<out>.telemetry.jsonl`
 *  and `<out>.forensics.jsonl` sidecars. A `<out>.telemetry.jsonl`
 *  path is mapped to its store. */
RunStatus scanStore(const std::string &storePath);

/** The canonical document (`status --json`, `/status.json`, `report
 *  --format=json`) that every view renders: one deterministic key
 *  order, exact integers, so two snapshots diff cleanly. An error
 *  document is `{"type":"status","error":...}`. */
json::Value statusJson(const RunStatus &status);

/** Human rendering of a statusJson() document (`status` without
 *  --json). */
void printStatus(const json::Value &doc, std::ostream &os);

/** Prometheus text exposition format (`/metrics`) of a statusJson()
 *  document that is not an error. Metric names and label scheme are
 *  pinned in DESIGN.md section 4k. */
std::string prometheusText(const json::Value &doc);

/** The static self-refreshing dashboard served at `/`. */
std::string dashboardHtml();

/** Map an HTTP path to the response body for `serve`: `/status.json`,
 *  `/metrics`, `/` (anything else 404s). A data endpoint scans
 *  @p storePath once per call and renders that document, so every
 *  response is a fresh snapshot. Returns true when the path was
 *  recognized. */
bool statusEndpoint(const std::string &httpPath,
                    const std::string &storePath, int *status,
                    std::string *contentType, std::string *body);

} // namespace xed::campaign

#endif // XED_CAMPAIGN_STATUS_HH
