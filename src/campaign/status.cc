#include "campaign/status.hh"

#include <chrono>
#include <filesystem>
#include <ostream>
#include <sstream>

#include "campaign/forensics.hh"
#include "campaign/runner.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "obs/telemetry.hh"

namespace xed::campaign
{

namespace fs = std::filesystem;

namespace
{

/** Seconds since @p path was last written; 0 when unreadable (a file
 *  racing deletion mid-scan must not be classified dead on that
 *  evidence alone -- the next scan settles it). */
double
fileAgeSeconds(const fs::path &path)
{
    std::error_code ec;
    const auto written = fs::last_write_time(path, ec);
    if (ec)
        return 0;
    const double age = std::chrono::duration<double>(
                           fs::file_time_type::clock::now() - written)
                           .count();
    return age > 0 ? age : 0;
}

void
addOutcomes(const obs::FailureAttribution &attribution, FleetStatus &status)
{
    for (unsigned o = 0; o < obs::numDetectionOutcomes; ++o)
        if (const std::uint64_t count = attribution.byOutcome[o])
            status.outcomes[obs::detectionOutcomeName(
                static_cast<obs::DetectionOutcome>(o))] += count;
}

/** Fold one cell's merged shards into the failure totals: failures
 *  through the runner's own failedSystemsOf() (so they are what the
 *  store's summary records), outcomes from its fleet cohorts'
 *  attributions (a reliability store's are in its forensics sidecar).
 *  The caller counts the units. */
void
tallyResult(const CampaignSpec &spec, unsigned cell,
            const ShardResult &result, FleetStatus &status)
{
    const std::uint64_t failed = failedSystemsOf(spec, result);
    status.failedUnits += failed;
    // Every committed cell appears in byCell, zero failures included
    // -- same convention as the run summary's failure map.
    status.failuresByCell[cellLabel(spec, cell)] += failed;
    for (const auto &[type, count] : failuresByTypeOf(spec, result))
        status.failuresByType[type] += count;
    for (const auto &series : result.fleet.cohorts)
        addOutcomes(series.attribution, status);
}

std::uint64_t
u64Field(const json::Value &record, const char *key)
{
    const json::Value *v = record.find(key);
    return v && v->isIntegral() ? v->asUint() : 0;
}

double
f64Field(const json::Value &record, const char *key)
{
    const json::Value *v = record.find(key);
    return v && v->isNumber() ? v->asDouble() : 0;
}

WorkerLiveness
classifyAge(double ageSeconds)
{
    if (ageSeconds <= livenessSeconds * 0.5)
        return WorkerLiveness::Live;
    if (ageSeconds <= livenessSeconds)
        return WorkerLiveness::Stale;
    return WorkerLiveness::Dead;
}

/**
 * Digest a run's telemetry sidecar: the host from the "run" record,
 * cumulative counters from the newest progress/terminal record, exact
 * histogram buckets decoded into the two histograms, and liveness from
 * a terminal record or else the sidecar's age. A resume appends to the
 * sidecar of the run it continues, so only the records after the
 * newest "run" record describe the run that writes it now.
 */
WorkerStatus
workerFromTelemetry(const obs::TelemetryRecords &telemetry,
                    double sidecarAgeSeconds, FleetStatus &status,
                    Histogram &shardSeconds, Histogram &shardUnitsPerSec)
{
    WorkerStatus worker;
    worker.id = "local";
    if (const json::Value *run = obs::lastRecordOfType(telemetry, "run"))
        if (const json::Value *host = run->find("host");
            host && host->isString())
            worker.host = host->asString();

    // The current run's newest cumulative sample, whatever kind of
    // record carried it.
    const json::Value *latest = nullptr;
    for (const json::Value &record : telemetry.records)
        if (obs::recordIsType(record, "run"))
            latest = nullptr;
        else if (obs::recordIsType(record, "progress") ||
                 obs::recordIsType(record, "done") ||
                 obs::recordIsType(record, "aborted"))
            latest = &record;
    if (latest) {
        worker.shardsDone = u64Field(*latest, "shardsDone");
        worker.unitsDone = u64Field(*latest, "unitsDone");
        worker.failedUnits = u64Field(*latest, "failedSystems");
        worker.unitsPerSec = f64Field(*latest, "unitsPerSec");
        const std::uint64_t total = u64Field(*latest, "unitsTotal");
        if (total > 0 &&
            (!status.unitsTotal || total > *status.unitsTotal))
            status.unitsTotal = total;
        if (const json::Value *hist = latest->find("hist");
            hist && hist->isObject()) {
            if (const json::Value *payload = hist->find("shardSeconds"))
                obs::histogramFromJson(*payload, shardSeconds);
            if (const json::Value *payload =
                    hist->find("shardUnitsPerSec"))
                obs::histogramFromJson(*payload, shardUnitsPerSec);
        }
    }

    if (latest && obs::recordIsType(*latest, "done")) {
        worker.liveness = WorkerLiveness::Done;
    } else if (latest && obs::recordIsType(*latest, "aborted")) {
        worker.liveness = WorkerLiveness::Aborted;
    } else {
        worker.heartbeatAgeSeconds = sidecarAgeSeconds;
        worker.liveness = classifyAge(sidecarAgeSeconds);
    }
    return worker;
}

HistogramSummary
summarize(const Histogram &histogram)
{
    HistogramSummary summary;
    summary.count = histogram.count();
    if (summary.count > 0) {
        summary.p50 = histogram.quantile(0.50);
        summary.p90 = histogram.quantile(0.90);
        summary.p99 = histogram.quantile(0.99);
    }
    for (unsigned i = 0; i < Histogram::bucketCount; ++i)
        if (const std::uint64_t c = histogram.bucket(i))
            summary.approxSum +=
                static_cast<double>(c) * Histogram::bucketValue(i);
    return summary;
}

/** Rate, ETA and histogram summaries. */
void
finalizeThroughput(FleetStatus &status, const Histogram &shardSeconds,
                   const Histogram &shardUnitsPerSec)
{
    for (const WorkerStatus &worker : status.workers)
        if (worker.liveness == WorkerLiveness::Live ||
            worker.liveness == WorkerLiveness::Stale)
            status.unitsPerSec += worker.unitsPerSec;
    if (!status.complete && status.unitsPerSec > 0 &&
        status.unitsTotal && *status.unitsTotal > status.unitsDone)
        status.etaSeconds =
            static_cast<double>(*status.unitsTotal - status.unitsDone) /
            status.unitsPerSec;
    status.shardSeconds = summarize(shardSeconds);
    status.shardUnitsPerSec = summarize(shardUnitsPerSec);
}

} // namespace

const char *
workerLivenessName(WorkerLiveness liveness)
{
    switch (liveness) {
    case WorkerLiveness::Live: return "live";
    case WorkerLiveness::Stale: return "stale";
    case WorkerLiveness::Dead: return "dead";
    case WorkerLiveness::Done: return "done";
    case WorkerLiveness::Aborted: return "aborted";
    }
    return "unknown";
}

FleetStatus
scanStore(const std::string &storePath)
{
    FleetStatus status;
    std::string path = storePath;
    constexpr std::string_view sidecarSuffix = ".telemetry.jsonl";
    if (path.size() > sidecarSuffix.size() &&
        path.compare(path.size() - sidecarSuffix.size(),
                     sidecarSuffix.size(), sidecarSuffix) == 0)
        path.resize(path.size() - sidecarSuffix.size());
    status.path = path;

    // The loader resume and report use: what it rejects, status
    // rejects too, and a torn final line is not damage.
    const auto manifest = readStoreManifest(path, &status.error);
    if (!manifest)
        return status;
    const CampaignSpec &spec = manifest->spec;
    const Plan plan = buildPlan(spec);
    const LoadedStore store = loadStore(path, specHash(spec), spec, plan);
    if (!store.ok) {
        status.error = store.error;
        return status;
    }
    status.name = spec.name;
    status.specHash = manifest->specHash;
    status.shardsTotal = plan.tasks.size();
    status.shardsDone = store.completedShards;
    status.shardsPending = status.shardsTotal - status.shardsDone;
    status.complete = store.hasSummary;

    status.unitsDone = store.completedUnits;
    // The store's shards arrive merged per cell. A cell is committed
    // once its first shard (begin 0) is in the prefix.
    for (std::uint64_t i = 0; i < store.completedShards; ++i)
        if (const ShardTask &task = plan.tasks[i]; task.begin == 0)
            tallyResult(spec, task.cell,
                        store.cells[task.point * plan.cells + task.cell],
                        status);
    // A reliability run's detection outcomes live in its forensics
    // sidecar, which may run up to one commit batch (16 x threads
    // shards) ahead of the store: only the store's shard prefix counts,
    // and a sidecar that fails to load adds nothing.
    const LoadedForensics forensics =
        loadForensics(forensicsPath(path), plan, store.completedShards);
    if (forensics.ok)
        for (const faultsim::McResult &cell : forensics.cells)
            addOutcomes(cell.attribution, status);

    Histogram shardSeconds;
    Histogram shardUnitsPerSec;
    const std::string telemetryPath = path + ".telemetry.jsonl";
    if (fs::exists(telemetryPath)) {
        const auto telemetry = obs::readTelemetryRecords(telemetryPath);
        if (telemetry.ok) {
            ++status.telemetryFiles;
            status.skippedTelemetryLines += telemetry.skippedLines;
            status.workers.push_back(workerFromTelemetry(
                telemetry, fileAgeSeconds(telemetryPath), status,
                shardSeconds, shardUnitsPerSec));
        }
    }

    finalizeThroughput(status, shardSeconds, shardUnitsPerSec);
    status.ok = true;
    return status;
}

namespace
{

json::Value
countsJson(const std::map<std::string, std::uint64_t> &counts)
{
    auto out = json::Value::object(); // std::map order: deterministic
    for (const auto &[name, count] : counts)
        out.set(name, count);
    return out;
}

json::Value
summaryJson(const HistogramSummary &summary)
{
    auto out = json::Value::object();
    out.set("count", summary.count);
    out.set("p50", summary.p50);
    out.set("p90", summary.p90);
    out.set("p99", summary.p99);
    return out;
}

} // namespace

json::Value
statusJson(const FleetStatus &status)
{
    auto out = json::Value::object();
    out.set("type", "status");
    if (!status.ok) {
        out.set("error", status.error);
        return out;
    }
    out.set("name", status.name);
    out.set("specHash", status.specHash);
    out.set("complete", status.complete);

    auto shards = json::Value::object();
    shards.set("total", status.shardsTotal);
    shards.set("done", status.shardsDone);
    shards.set("pending", status.shardsPending);
    out.set("shards", std::move(shards));

    auto units = json::Value::object();
    units.set("done", status.unitsDone);
    if (status.unitsTotal)
        units.set("total", *status.unitsTotal);
    out.set("units", std::move(units));

    auto failures = json::Value::object();
    failures.set("total", status.failedUnits);
    failures.set("byCell", countsJson(status.failuresByCell));
    failures.set("byType", countsJson(status.failuresByType));
    failures.set("outcomes", countsJson(status.outcomes));
    out.set("failures", std::move(failures));

    auto throughput = json::Value::object();
    throughput.set("unitsPerSec", status.unitsPerSec);
    if (status.etaSeconds)
        throughput.set("etaSeconds", *status.etaSeconds);
    throughput.set("shardSeconds", summaryJson(status.shardSeconds));
    throughput.set("shardUnitsPerSec",
                   summaryJson(status.shardUnitsPerSec));
    out.set("throughput", std::move(throughput));

    auto workers = json::Value::array();
    for (const WorkerStatus &worker : status.workers) {
        auto entry = json::Value::object();
        entry.set("id", worker.id);
        entry.set("state", workerLivenessName(worker.liveness));
        if (!worker.host.empty())
            entry.set("host", worker.host);
        entry.set("shardsDone", worker.shardsDone);
        entry.set("unitsDone", worker.unitsDone);
        entry.set("failedUnits", worker.failedUnits);
        entry.set("unitsPerSec", worker.unitsPerSec);
        if (worker.heartbeatAgeSeconds)
            entry.set("heartbeatAgeSeconds",
                      *worker.heartbeatAgeSeconds);
        workers.push(std::move(entry));
    }
    out.set("workers", std::move(workers));

    auto telemetry = json::Value::object();
    telemetry.set("files", status.telemetryFiles);
    telemetry.set("skippedLines", status.skippedTelemetryLines);
    out.set("telemetry", std::move(telemetry));
    return out;
}

void
printStatus(const FleetStatus &status, std::ostream &os)
{
    if (!status.ok) {
        os << "status: " << status.error << "\n";
        return;
    }
    os << "campaign " << status.name << " (" << status.specHash
       << ")  [" << status.path << "]\n";
    os << "shards: " << status.shardsDone << "/" << status.shardsTotal
       << " done, " << status.shardsPending << " pending"
       << (status.complete ? "  -- complete" : "") << "\n";
    os << "units:  " << status.unitsDone;
    if (status.unitsTotal) {
        os << "/" << *status.unitsTotal;
        if (*status.unitsTotal > 0)
            os << " ("
               << Table::pct(static_cast<double>(status.unitsDone) /
                                 static_cast<double>(*status.unitsTotal),
                             1)
               << ")";
    }
    os << ", " << status.failedUnits << " failed\n";
    os << "rate:   " << Table::fmt(status.unitsPerSec, 1)
       << " units/s";
    if (status.etaSeconds)
        os << ", eta " << Table::fmt(*status.etaSeconds, 1) << " s";
    os << "\n";
    if (status.shardSeconds.count > 0)
        os << "shard seconds: p50 "
           << Table::fmt(status.shardSeconds.p50, 3) << "  p90 "
           << Table::fmt(status.shardSeconds.p90, 3) << "  p99 "
           << Table::fmt(status.shardSeconds.p99, 3) << "  (n="
           << status.shardSeconds.count << ")\n";
    if (status.skippedTelemetryLines > 0)
        os << "warnings: " << status.skippedTelemetryLines
           << " skipped telemetry lines\n";

    if (!status.workers.empty()) {
        Table table({"worker", "state", "beat(s)", "shards", "units",
                     "failed", "units/s"});
        for (const WorkerStatus &worker : status.workers)
            table.addRow(
                {worker.id, workerLivenessName(worker.liveness),
                 worker.heartbeatAgeSeconds
                     ? Table::fmt(*worker.heartbeatAgeSeconds, 1)
                     : "-",
                 std::to_string(worker.shardsDone),
                 std::to_string(worker.unitsDone),
                 std::to_string(worker.failedUnits),
                 Table::fmt(worker.unitsPerSec, 1)});
        os << "\n";
        table.print(os, "workers");
    }

    if (!status.failuresByCell.empty()) {
        Table table({"cell", "failed"});
        for (const auto &[label, failed] : status.failuresByCell)
            table.addRow({label, std::to_string(failed)});
        os << "\n";
        table.print(os, "failures by cell");
    }
}

namespace
{

/** Prometheus label-value escaping: backslash, quote, newline. */
std::string
escapeLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

void
metricHeader(std::ostringstream &os, const char *name, const char *help,
             const char *type)
{
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
}

void
summaryMetric(std::ostringstream &os, const char *name,
              const char *help, const HistogramSummary &summary)
{
    metricHeader(os, name, help, "summary");
    os << name << "{quantile=\"0.5\"} " << json::formatDouble(summary.p50)
       << "\n";
    os << name << "{quantile=\"0.9\"} " << json::formatDouble(summary.p90)
       << "\n";
    os << name << "{quantile=\"0.99\"} "
       << json::formatDouble(summary.p99) << "\n";
    os << name << "_sum " << json::formatDouble(summary.approxSum)
       << "\n";
    os << name << "_count " << summary.count << "\n";
}

void
labeledCounts(std::ostringstream &os, const char *name,
              const char *help, const char *label,
              const std::map<std::string, std::uint64_t> &counts)
{
    metricHeader(os, name, help, "counter");
    for (const auto &[key, count] : counts)
        os << name << "{" << label << "=\"" << escapeLabel(key)
           << "\"} " << count << "\n";
}

} // namespace

std::string
prometheusText(const FleetStatus &status)
{
    std::ostringstream os;
    metricHeader(os, "xed_campaign_info",
                 "Campaign identity; the value is always 1.", "gauge");
    os << "xed_campaign_info{name=\"" << escapeLabel(status.name)
       << "\",specHash=\"" << escapeLabel(status.specHash) << "\"} 1\n";

    metricHeader(os, "xed_campaign_complete",
                 "1 when every planned shard is committed.", "gauge");
    os << "xed_campaign_complete " << (status.complete ? 1 : 0) << "\n";

    metricHeader(os, "xed_shards_planned",
                 "Shards in the campaign plan.", "gauge");
    os << "xed_shards_planned " << status.shardsTotal << "\n";

    metricHeader(os, "xed_shards",
                 "Shards by state (done / pending).", "gauge");
    os << "xed_shards{state=\"done\"} " << status.shardsDone << "\n";
    os << "xed_shards{state=\"pending\"} " << status.shardsPending
       << "\n";

    metricHeader(os, "xed_units_done_total",
                 "Simulated units committed to the store.", "counter");
    os << "xed_units_done_total " << status.unitsDone << "\n";
    if (status.unitsTotal) {
        metricHeader(os, "xed_units_planned",
                     "Units in the campaign plan.", "gauge");
        os << "xed_units_planned " << *status.unitsTotal << "\n";
    }

    metricHeader(os, "xed_failed_units_total",
                 "Failed (or detection-escaped) units committed.",
                 "counter");
    os << "xed_failed_units_total " << status.failedUnits << "\n";
    labeledCounts(os, "xed_cell_failures_total",
                  "Failed units per campaign cell.", "cell",
                  status.failuresByCell);
    labeledCounts(os, "xed_failure_type_total",
                  "Failed units per failure type.", "type",
                  status.failuresByType);
    labeledCounts(os, "xed_detection_outcome_total",
                  "Forensics detection-outcome counts.", "outcome",
                  status.outcomes);

    metricHeader(os, "xed_units_per_second",
                 "Summed last-reported rate of live and stale workers.",
                 "gauge");
    os << "xed_units_per_second "
       << json::formatDouble(status.unitsPerSec) << "\n";
    if (status.etaSeconds) {
        metricHeader(os, "xed_eta_seconds",
                     "Estimated seconds until the plan completes.",
                     "gauge");
        os << "xed_eta_seconds " << json::formatDouble(*status.etaSeconds)
           << "\n";
    }

    metricHeader(os, "xed_workers", "Workers by liveness state.",
                 "gauge");
    std::map<std::string, std::uint64_t> byState = {
        {"live", 0}, {"stale", 0}, {"dead", 0},
        {"done", 0}, {"aborted", 0},
    };
    for (const WorkerStatus &worker : status.workers)
        ++byState[workerLivenessName(worker.liveness)];
    for (const auto &[state, count] : byState)
        os << "xed_workers{state=\"" << state << "\"} " << count << "\n";

    metricHeader(os, "xed_worker_up",
                 "1 while a worker's heartbeat is within the liveness "
                 "threshold.",
                 "gauge");
    for (const WorkerStatus &worker : status.workers)
        os << "xed_worker_up{worker=\"" << escapeLabel(worker.id)
           << "\"} "
           << (worker.liveness == WorkerLiveness::Live ||
                       worker.liveness == WorkerLiveness::Stale
                   ? 1
                   : 0)
           << "\n";
    metricHeader(os, "xed_worker_heartbeat_age_seconds",
                 "Seconds since a worker's freshest heartbeat.",
                 "gauge");
    for (const WorkerStatus &worker : status.workers)
        if (worker.heartbeatAgeSeconds)
            os << "xed_worker_heartbeat_age_seconds{worker=\""
               << escapeLabel(worker.id) << "\"} "
               << json::formatDouble(*worker.heartbeatAgeSeconds)
               << "\n";
    metricHeader(os, "xed_worker_shards_done_total",
                 "Shards committed per worker (self-reported).",
                 "counter");
    for (const WorkerStatus &worker : status.workers)
        os << "xed_worker_shards_done_total{worker=\""
           << escapeLabel(worker.id) << "\"} " << worker.shardsDone
           << "\n";
    metricHeader(os, "xed_worker_units_per_second",
                 "Last-reported per-worker simulation rate.", "gauge");
    for (const WorkerStatus &worker : status.workers)
        os << "xed_worker_units_per_second{worker=\""
           << escapeLabel(worker.id) << "\"} "
           << json::formatDouble(worker.unitsPerSec) << "\n";

    metricHeader(os, "xed_telemetry_skipped_lines_total",
                 "Torn or unknown telemetry lines skipped by the "
                 "tolerant reader.",
                 "counter");
    os << "xed_telemetry_skipped_lines_total "
       << status.skippedTelemetryLines << "\n";

    summaryMetric(os, "xed_shard_seconds",
                  "Exact cross-worker shard wall-time distribution "
                  "(merged histogram buckets).",
                  status.shardSeconds);
    summaryMetric(os, "xed_shard_units_per_second",
                  "Exact cross-worker per-shard simulation rate "
                  "distribution.",
                  status.shardUnitsPerSec);
    return os.str();
}

std::string
dashboardHtml()
{
    // Static page; all live data arrives via fetch("status.json"), so
    // the server never renders HTML from campaign state.
    return R"HTML(<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>xed fleet status</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2em; background: #111; color: #ddd; }
h1 { font-size: 1.2em; } h1 small { color: #888; font-weight: normal; }
table { border-collapse: collapse; margin-top: 1em; }
th, td { padding: 0.25em 0.9em; text-align: left; border-bottom: 1px solid #333; }
th { color: #888; font-weight: normal; }
.bar { width: 28em; height: 1em; background: #333; margin: 0.6em 0; }
.bar div { height: 100%; background: #4a8; }
.live { color: #6c6; } .stale { color: #cc6; } .dead { color: #c66; }
.done { color: #69c; } .aborted { color: #c69; }
#error { color: #c66; }
</style>
</head>
<body>
<h1>xed fleet <small id="ident"></small></h1>
<div id="error"></div>
<div id="summary"></div>
<div class="bar"><div id="fill" style="width:0"></div></div>
<div id="rate"></div>
<table id="workers"></table>
<script>
function cell(tag, text, cls) {
  const el = document.createElement(tag);
  el.textContent = text;
  if (cls) el.className = cls;
  return el;
}
async function refresh() {
  try {
    const response = await fetch("status.json");
    const s = await response.json();
    document.getElementById("error").textContent = s.error || "";
    if (!s.error) {
      document.getElementById("ident").textContent =
        s.name + " (" + s.specHash + ")";
      document.getElementById("summary").textContent =
        "shards " + s.shards.done + "/" + s.shards.total +
        " done, " + s.shards.pending + " pending" +
        (s.complete ? " — complete" : "") +
        " · units " + s.units.done +
        (s.units.total ? "/" + s.units.total : "") +
        " · failures " + s.failures.total;
      const frac = s.shards.total ? s.shards.done / s.shards.total : 0;
      document.getElementById("fill").style.width =
        (100 * frac).toFixed(1) + "%";
      document.getElementById("rate").textContent =
        s.throughput.unitsPerSec.toFixed(1) + " units/s" +
        (s.throughput.etaSeconds !== undefined
          ? " · eta " + s.throughput.etaSeconds.toFixed(0) + " s" : "") +
        " · shard p50/p90/p99 " +
        s.throughput.shardSeconds.p50.toFixed(2) + "/" +
        s.throughput.shardSeconds.p90.toFixed(2) + "/" +
        s.throughput.shardSeconds.p99.toFixed(2) + " s";
      const table = document.getElementById("workers");
      table.replaceChildren();
      if (s.workers.length) {
        const head = document.createElement("tr");
        for (const h of ["worker", "state", "beat", "shards",
                         "units", "failed", "units/s"])
          head.appendChild(cell("th", h));
        table.appendChild(head);
        for (const w of s.workers) {
          const row = document.createElement("tr");
          row.appendChild(cell("td", w.id));
          row.appendChild(cell("td", w.state, w.state));
          row.appendChild(cell("td",
            w.heartbeatAgeSeconds !== undefined
              ? w.heartbeatAgeSeconds.toFixed(1) + "s" : "—"));
          row.appendChild(cell("td", w.shardsDone));
          row.appendChild(cell("td", w.unitsDone));
          row.appendChild(cell("td", w.failedUnits));
          row.appendChild(cell("td", w.unitsPerSec.toFixed(1)));
          table.appendChild(row);
        }
      }
    }
  } catch (e) {
    document.getElementById("error").textContent = String(e);
  }
  setTimeout(refresh, 2000);
}
refresh();
</script>
</body>
</html>
)HTML";
}

bool
statusEndpoint(const std::string &httpPath, const std::string &storePath,
               int *statusCode, std::string *contentType,
               std::string *body)
{
    if (httpPath == "/" || httpPath == "/index.html") {
        *statusCode = 200;
        *contentType = "text/html; charset=utf-8";
        *body = dashboardHtml();
        return true;
    }
    if (httpPath == "/status.json") {
        const FleetStatus status = scanStore(storePath);
        *statusCode = status.ok ? 200 : 503;
        *contentType = "application/json";
        *body = json::dump(statusJson(status)) + "\n";
        return true;
    }
    if (httpPath == "/metrics") {
        const FleetStatus status = scanStore(storePath);
        if (!status.ok) {
            *statusCode = 503;
            *contentType = "text/plain; charset=utf-8";
            *body = status.error + "\n";
            return true;
        }
        *statusCode = 200;
        // The Prometheus text exposition format's registered type.
        *contentType = "text/plain; version=0.0.4; charset=utf-8";
        *body = prometheusText(status);
        return true;
    }
    return false;
}

} // namespace xed::campaign
