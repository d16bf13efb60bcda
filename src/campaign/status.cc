#include "campaign/status.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

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
addOutcomes(const obs::FailureAttribution &attribution, RunStatus &status)
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
            const ShardResult &result, RunStatus &status)
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

/** The member at the dotted @p path of @p doc; nullptr when absent. */
const json::Value *
member(const json::Value &doc, std::string_view path)
{
    const json::Value *value = &doc;
    for (;;) {
        const std::size_t dot = path.find('.');
        value = value->find(path.substr(0, dot));
        if (!value || dot == std::string_view::npos)
            return value;
        path.remove_prefix(dot + 1);
    }
}

std::uint64_t
u64Field(const json::Value &doc, std::string_view path)
{
    const json::Value *v = member(doc, path);
    return v && v->isIntegral() ? v->asUint() : 0;
}

double
f64Field(const json::Value &doc, std::string_view path)
{
    const json::Value *v = member(doc, path);
    return v && v->isNumber() ? v->asDouble() : 0;
}

std::string
textField(const json::Value &doc, std::string_view path)
{
    const json::Value *v = member(doc, path);
    return v && v->isString() ? v->asString() : "";
}

RunState
classifyAge(double ageSeconds)
{
    if (ageSeconds <= livenessSeconds * 0.5)
        return RunState::Live;
    if (ageSeconds <= livenessSeconds)
        return RunState::Stale;
    return RunState::Dead;
}

/**
 * Digest a run's telemetry sidecar: the host from the "run" record, the
 * rate and planned units from the newest progress or terminal record,
 * its exact histogram buckets decoded into the two histograms, and the
 * state from a terminal record or else the heartbeat's age. A resume
 * appends to the sidecar of the run it continues, so only the records
 * after the newest "run" record describe the run that writes it now.
 */
RunStatus::Run
runFromTelemetry(const obs::TelemetryRecords &telemetry,
                 double heartbeatAgeSeconds, RunStatus &status,
                 Histogram &shardSeconds, Histogram &shardUnitsPerSec)
{
    RunStatus::Run run;
    if (const json::Value *record = obs::lastRecordOfType(telemetry, "run"))
        run.host = textField(*record, "host");

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
        run.unitsPerSec = f64Field(*latest, "unitsPerSec");
        if (const std::uint64_t total = u64Field(*latest, "unitsTotal"))
            status.unitsTotal = total;
        if (const json::Value *payload = member(*latest, "hist.shardSeconds"))
            obs::histogramFromJson(*payload, shardSeconds);
        if (const json::Value *payload =
                member(*latest, "hist.shardUnitsPerSec"))
            obs::histogramFromJson(*payload, shardUnitsPerSec);
    }

    if (latest && obs::recordIsType(*latest, "done")) {
        run.state = RunState::Done;
    } else if (latest && obs::recordIsType(*latest, "aborted")) {
        run.state = RunState::Aborted;
    } else {
        run.heartbeatAgeSeconds = heartbeatAgeSeconds;
        run.state = classifyAge(heartbeatAgeSeconds);
    }
    return run;
}

HistogramSummary
summarize(const Histogram &histogram)
{
    HistogramSummary summary;
    summary.count = histogram.count();
    summary.p50 = histogram.quantile(0.50);
    summary.p90 = histogram.quantile(0.90);
    summary.p99 = histogram.quantile(0.99);
    for (unsigned i = 0; i < Histogram::bucketCount; ++i)
        if (const std::uint64_t c = histogram.bucket(i))
            summary.sum += static_cast<double>(c) * Histogram::bucketValue(i);
    return summary;
}

} // namespace

const char *
runStateName(RunState state)
{
    switch (state) {
    case RunState::Live: return "live";
    case RunState::Stale: return "stale";
    case RunState::Dead: return "dead";
    case RunState::Done: return "done";
    case RunState::Aborted: return "aborted";
    }
    return "unknown";
}

RunStatus
scanStore(const std::string &storePath)
{
    RunStatus status;
    std::string path = storePath;
    constexpr std::string_view sidecarSuffix = ".telemetry.jsonl";
    if (path.size() > sidecarSuffix.size() &&
        path.compare(path.size() - sidecarSuffix.size(),
                     sidecarSuffix.size(), sidecarSuffix) == 0)
        path.resize(path.size() - sidecarSuffix.size());

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
            status.skippedTelemetryLines = telemetry.skippedLines;
            // A run started with --progress-interval 0 writes no
            // progress records, but it still commits to its store.
            const double heartbeatAge = std::min(
                fileAgeSeconds(telemetryPath), fileAgeSeconds(path));
            status.run = runFromTelemetry(telemetry, heartbeatAge, status,
                                          shardSeconds, shardUnitsPerSec);
        }
    }

    // Rate and ETA only while the run is alive to earn them.
    if (status.run && (status.run->state == RunState::Live ||
                       status.run->state == RunState::Stale))
        status.unitsPerSec = status.run->unitsPerSec;
    if (!status.complete && status.unitsPerSec > 0 && status.unitsTotal &&
        *status.unitsTotal > status.unitsDone)
        status.etaSeconds =
            static_cast<double>(*status.unitsTotal - status.unitsDone) /
            status.unitsPerSec;
    status.shardSeconds = summarize(shardSeconds);
    status.shardUnitsPerSec = summarize(shardUnitsPerSec);
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
    out.set("sum", summary.sum);
    return out;
}

} // namespace

json::Value
statusJson(const RunStatus &status)
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

    if (status.run) {
        auto run = json::Value::object();
        run.set("state", runStateName(status.run->state));
        if (!status.run->host.empty())
            run.set("host", status.run->host);
        if (status.run->heartbeatAgeSeconds)
            run.set("heartbeatAgeSeconds", *status.run->heartbeatAgeSeconds);
        run.set("unitsPerSec", status.run->unitsPerSec);
        out.set("run", std::move(run));
    }

    auto telemetry = json::Value::object();
    telemetry.set("skippedLines", status.skippedTelemetryLines);
    out.set("telemetry", std::move(telemetry));
    return out;
}

void
printStatus(const json::Value &doc, std::ostream &os)
{
    if (doc.find("error")) {
        os << "status: " << textField(doc, "error") << "\n";
        return;
    }
    const auto count = [&doc](std::string_view path) {
        return u64Field(doc, path);
    };
    const auto real = [&doc](std::string_view path) {
        return f64Field(doc, path);
    };
    os << "campaign " << textField(doc, "name") << " ("
       << textField(doc, "specHash") << ")\n";
    const json::Value *complete = doc.find("complete");
    os << "shards: " << count("shards.done") << "/" << count("shards.total")
       << " done, " << count("shards.pending") << " pending"
       << (complete && complete->asBool() ? "  -- complete" : "") << "\n";
    os << "units:  " << count("units.done");
    if (const std::uint64_t total = count("units.total")) {
        os << "/" << total << " ("
           << Table::pct(static_cast<double>(count("units.done")) /
                             static_cast<double>(total),
                         1)
           << ")";
    }
    os << ", " << count("failures.total") << " failed\n";
    os << "rate:   " << Table::fmt(real("throughput.unitsPerSec"), 1)
       << " units/s";
    if (member(doc, "throughput.etaSeconds"))
        os << ", eta " << Table::fmt(real("throughput.etaSeconds"), 1)
           << " s";
    os << "\n";
    if (const std::uint64_t n = count("throughput.shardSeconds.count"))
        os << "shard seconds: p50 "
           << Table::fmt(real("throughput.shardSeconds.p50"), 3) << "  p90 "
           << Table::fmt(real("throughput.shardSeconds.p90"), 3) << "  p99 "
           << Table::fmt(real("throughput.shardSeconds.p99"), 3)
           << "  (n=" << n << ")\n";
    if (member(doc, "run")) {
        os << "run:    " << textField(doc, "run.state");
        if (member(doc, "run.heartbeatAgeSeconds"))
            os << ", heartbeat "
               << Table::fmt(real("run.heartbeatAgeSeconds"), 1)
               << " s ago";
        if (member(doc, "run.host"))
            os << ", host " << textField(doc, "run.host");
        os << ", " << Table::fmt(real("run.unitsPerSec"), 1)
           << " units/s\n";
    }
    if (const std::uint64_t skipped = count("telemetry.skippedLines"))
        os << "warnings: " << skipped << " skipped telemetry lines\n";

    const json::Value *byCell = member(doc, "failures.byCell");
    if (byCell && byCell->size() > 0) {
        Table table({"cell", "failed"});
        for (const auto &[label, failed] : byCell->members())
            table.addRow({label, json::dump(failed)});
        os << "\n";
        table.print(os, "failures by cell");
    }
}

namespace
{

/** How a document member becomes /metrics samples. */
enum class Shape
{
    Value,    ///< a number or bool: one sample
    Identity, ///< `name` and `specHash` as labels; the value is 1
    ByKey,    ///< an object of counts: one sample per key
    State,    ///< a run state: one 0/1 sample per state, all five
    Summary,  ///< a histogram summary: quantiles, `_sum`, `_count`
};

/** One /metrics series and the document member it renders. Rows that
 *  share a name share the first row's HELP and TYPE lines. */
struct MetricRow
{
    const char *path; ///< dotted path into the statusJson() document
    const char *name;
    const char *type;
    const char *help;
    Shape shape = Shape::Value;
    /** Value: a fixed label set; ByKey and State: the label's name. */
    const char *label = "";
};

constexpr MetricRow metricTable[] = {
    {"name", "xed_campaign_info", "gauge",
     "Campaign identity; the value is always 1.", Shape::Identity},
    {"complete", "xed_campaign_complete", "gauge",
     "1 when every planned shard is committed."},
    {"shards.total", "xed_shards_planned", "gauge",
     "Shards in the campaign plan."},
    {"shards.done", "xed_shards", "gauge",
     "Shards by state (done / pending).", Shape::Value, "state=\"done\""},
    {"shards.pending", "xed_shards", "gauge", "", Shape::Value,
     "state=\"pending\""},
    {"units.done", "xed_units_done_total", "counter",
     "Simulated units committed to the store."},
    {"units.total", "xed_units_planned", "gauge",
     "Units in the campaign plan."},
    {"failures.total", "xed_failed_units_total", "counter",
     "Failed (or detection-escaped) units committed."},
    {"failures.byCell", "xed_cell_failures_total", "counter",
     "Failed units per campaign cell.", Shape::ByKey, "cell"},
    {"failures.byType", "xed_failure_type_total", "counter",
     "Failed units per failure type.", Shape::ByKey, "type"},
    {"failures.outcomes", "xed_detection_outcome_total", "counter",
     "Forensics detection-outcome counts.", Shape::ByKey, "outcome"},
    {"throughput.unitsPerSec", "xed_units_per_second", "gauge",
     "The run's last reported rate while it is live or stale."},
    {"throughput.etaSeconds", "xed_eta_seconds", "gauge",
     "Estimated seconds until the plan completes."},
    {"run.state", "xed_run_state", "gauge",
     "1 for the run's liveness state, 0 for the others.", Shape::State,
     "state"},
    {"run.heartbeatAgeSeconds", "xed_run_heartbeat_age_seconds", "gauge",
     "Seconds since the run last wrote its telemetry sidecar or store."},
    {"run.unitsPerSec", "xed_run_units_per_second", "gauge",
     "The run's last reported rate, whatever its state."},
    {"telemetry.skippedLines", "xed_telemetry_skipped_lines_total",
     "counter",
     "Torn or unknown telemetry lines skipped by the tolerant reader."},
    {"throughput.shardSeconds", "xed_shard_seconds", "summary",
     "Exact shard wall-time distribution (the run's histogram buckets).",
     Shape::Summary},
    {"throughput.shardUnitsPerSec", "xed_shard_units_per_second",
     "summary", "Exact per-shard simulation rate distribution.",
     Shape::Summary},
};

constexpr RunState allRunStates[] = {RunState::Live, RunState::Stale,
                                     RunState::Dead, RunState::Done,
                                     RunState::Aborted};

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

/** A number as the document prints it; a bool as 1 or 0. */
std::string
sampleValue(const json::Value *value)
{
    if (!value)
        return "0";
    if (value->isBool())
        return value->asBool() ? "1" : "0";
    return json::dump(*value);
}

} // namespace

std::string
prometheusText(const json::Value &doc)
{
    std::ostringstream os;
    std::string_view header;
    for (const MetricRow &row : metricTable) {
        const json::Value *value = member(doc, row.path);
        // The run state renders all five zeros without a run; any other
        // member the document lacks (units.total before the first
        // progress record, etaSeconds without a rate, the run without
        // a sidecar) emits no series at all.
        if (!value && row.shape != Shape::State)
            continue;
        if (header != row.name) {
            header = row.name;
            os << "# HELP " << row.name << " " << row.help << "\n";
            os << "# TYPE " << row.name << " " << row.type << "\n";
        }
        switch (row.shape) {
        case Shape::Value:
            os << row.name;
            if (*row.label)
                os << "{" << row.label << "}";
            os << " " << sampleValue(value) << "\n";
            break;
        case Shape::Identity:
            os << row.name << "{name=\"" << escapeLabel(textField(doc, "name"))
               << "\",specHash=\"" << escapeLabel(textField(doc, "specHash"))
               << "\"} 1\n";
            break;
        case Shape::ByKey:
            for (const auto &[key, count] : value->members())
                os << row.name << "{" << row.label << "=\""
                   << escapeLabel(key) << "\"} " << sampleValue(&count)
                   << "\n";
            break;
        case Shape::State:
            for (const RunState state : allRunStates) {
                const std::string name = runStateName(state);
                os << row.name << "{" << row.label << "=\"" << name << "\"} "
                   << (value && value->asString() == name ? 1 : 0) << "\n";
            }
            break;
        case Shape::Summary:
            for (const auto &[quantile, key] :
                 {std::pair{"0.5", "p50"}, {"0.9", "p90"}, {"0.99", "p99"}})
                os << row.name << "{quantile=\"" << quantile << "\"} "
                   << sampleValue(value->find(key)) << "\n";
            os << row.name << "_sum " << sampleValue(value->find("sum"))
               << "\n";
            os << row.name << "_count " << sampleValue(value->find("count"))
               << "\n";
            break;
        }
    }
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
<title>xed campaign status</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2em; background: #111; color: #ddd; }
h1 { font-size: 1.2em; } h1 small { color: #888; font-weight: normal; }
.bar { width: 28em; height: 1em; background: #333; margin: 0.6em 0; }
.bar div { height: 100%; background: #4a8; }
.live { color: #6c6; } .stale { color: #cc6; } .dead { color: #c66; }
.done { color: #69c; } .aborted { color: #c69; }
#error { color: #c66; }
</style>
</head>
<body>
<h1>xed campaign <small id="ident"></small></h1>
<div id="error"></div>
<div id="summary"></div>
<div class="bar"><div id="fill" style="width:0"></div></div>
<div id="rate"></div>
<div id="run"></div>
<script>
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
      const run = document.getElementById("run");
      run.replaceChildren();
      if (s.run) {
        const state = document.createElement("span");
        state.textContent = "run " + s.run.state;
        state.className = s.run.state;
        run.appendChild(state);
        run.appendChild(document.createTextNode(
          (s.run.heartbeatAgeSeconds !== undefined
            ? " · heartbeat " + s.run.heartbeatAgeSeconds.toFixed(1) +
              " s ago" : "") +
          (s.run.host ? " · host " + s.run.host : "") +
          " · " + s.run.unitsPerSec.toFixed(1) + " units/s"));
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
    if (httpPath != "/status.json" && httpPath != "/metrics")
        return false;
    const json::Value doc = statusJson(scanStore(storePath));
    const json::Value *error = doc.find("error");
    *statusCode = error ? 503 : 200;
    if (httpPath == "/status.json") {
        *contentType = "application/json";
        *body = json::dump(doc) + "\n";
    } else if (error) {
        *contentType = "text/plain; charset=utf-8";
        *body = error->asString() + "\n";
    } else {
        // The Prometheus text exposition format's registered type.
        *contentType = "text/plain; version=0.0.4; charset=utf-8";
        *body = prometheusText(doc);
    }
    return true;
}

} // namespace xed::campaign
