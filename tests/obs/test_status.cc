/**
 * @file
 * Store observability end to end (campaign/status.hh):
 *
 *  - for every campaign kind, a store scans to exactly the units,
 *    failures by cell and by type, and detection outcomes that the
 *    store's own summary record and its forensics sidecar hold,
 *  - scanning is strictly read-only: the store and its sidecars are
 *    byte-identical before and after,
 *  - a run whose telemetry sidecar has no terminal record is dead once
 *    both the sidecar and the store are 10 minutes old and live while
 *    either is fresh, and a resume is judged by its own records, not by
 *    the terminal record of the run it continues,
 *  - shard-time quantiles come from the sidecar's exact histogram
 *    buckets, and a torn sidecar tail is skipped and counted,
 *  - /metrics renders valid Prometheus text exposition (validated by
 *    a grammar checker, not substring luck),
 *  - the serve endpoints answer over a real socket on an ephemeral
 *    port: /status.json parses, /metrics validates, junk 404s, and an
 *    idle connection does not stall the requests behind it, and
 *  - a store's torn final line is not damage, while a corrupt middle
 *    line, a missing store and a directory are clean errors.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "campaign/runner.hh"
#include "campaign/status.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "obs/http.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

namespace fs = std::filesystem;

CampaignSpec
specFrom(const char *text)
{
    std::string error;
    auto doc = json::parse(text, &error);
    EXPECT_TRUE(doc) << error;
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;
    return *spec;
}

/** 2 schemes x 600 systems in shards of 100: 12 shards. */
CampaignSpec
statusSpec()
{
    return specFrom(R"({
        "name": "status-test", "seed": 7171,
        "schemes": ["secded", "xed"],
        "systems": 600, "shardSystems": 100
    })");
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ownTempPath("xed_status_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Run @p spec into `<dir>/out.jsonl` with its sidecars; returns the
 *  store path. */
std::string
runStore(const CampaignSpec &spec, const std::string &dir,
         std::uint64_t maxShards = 0)
{
    RunOptions options;
    options.outPath = dir + "/out.jsonl";
    options.threads = 2;
    options.maxShards = maxShards;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(spec, options);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    return options.outPath;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

std::vector<json::Value>
jsonLines(const std::string &path)
{
    std::vector<json::Value> records;
    std::istringstream in(slurp(path));
    std::string line;
    while (std::getline(in, line)) {
        auto record = json::parse(line);
        EXPECT_TRUE(record) << line;
        if (record)
            records.push_back(std::move(*record));
    }
    return records;
}

bool
isType(const json::Value &record, const char *type)
{
    const json::Value *t = record.find("type");
    return t && t->isString() && t->asString() == type;
}

using Counts = std::map<std::string, std::uint64_t>;

void
addCounts(const json::Value *object, Counts &counts)
{
    ASSERT_NE(object, nullptr);
    for (const auto &[key, value] : object->members())
        counts[key] += value.asUint();
}

/** What a finished store's own records say the scan must total. */
struct StoreTotals
{
    std::uint64_t units = 0;
    Counts byCell, byType, outcomes;
};

StoreTotals
totalsFromRecords(const CampaignSpec &spec, const std::string &store)
{
    StoreTotals totals;
    for (const json::Value &record : jsonLines(store)) {
        if (isType(record, "shard") && spec.kind == CampaignKind::Fleet)
            for (const json::Value &cohort :
                 record.find("result")->find("cohorts")->items())
                addCounts(cohort.find("outcomes"), totals.outcomes);
        if (!isType(record, "summary"))
            continue;
        const json::Value *metrics = record.find("metrics");
        totals.units = metrics->find("unitsSimulated")->asUint();
        addCounts(metrics->find("failures"), totals.byCell);
        for (const json::Value &cell : record.find("results")->items()) {
            if (spec.kind == CampaignKind::Reliability) {
                addCounts(cell.find("failureTypes"), totals.byType);
            } else if (spec.kind == CampaignKind::Detection) {
                totals.byType["escape"] +=
                    cell.find("trials")->asUint() -
                    cell.find("detected")->asUint();
            } else {
                for (const json::Value &cohort :
                     cell.find("fleet")->find("cohorts")->items()) {
                    totals.byType["due"] += cohort.find("due")->asUint();
                    totals.byType["sdc"] += cohort.find("sdc")->asUint();
                }
            }
        }
    }
    if (spec.kind == CampaignKind::Reliability)
        for (const json::Value &record :
             jsonLines(store + ".forensics.jsonl"))
            if (isType(record, "forensics-summary"))
                addCounts(record.find("outcomes"), totals.outcomes);
    return totals;
}

std::map<std::string, std::string>
snapshotDir(const std::string &dir)
{
    std::map<std::string, std::string> bytes;
    for (const auto &entry : fs::directory_iterator(dir))
        bytes[entry.path().filename().string()] =
            slurp(entry.path().string());
    return bytes;
}

/** Rewrite @p path without its last line. */
void
dropLastLine(const std::string &path)
{
    std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty());
    bytes.pop_back(); // the final newline
    bytes.resize(bytes.rfind('\n') + 1);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/**
 * Minimal Prometheus text-exposition validator: every line is a
 * comment (# HELP / # TYPE) or `name[{label="value",...}] number`,
 * metric names are legal, every sample's base name was TYPE-declared
 * first, and label values keep their quotes balanced.
 */
void
validatePrometheus(const std::string &text)
{
    std::set<std::string> declared;
    std::istringstream in(text);
    std::string line;
    const auto isNameChar = [](char c, bool first) {
        return std::isalpha(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':' ||
               (!first && std::isdigit(static_cast<unsigned char>(c)));
    };
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty()) << "blank line in exposition";
        if (line[0] == '#') {
            std::istringstream fields(line);
            std::string hash, keyword, name;
            fields >> hash >> keyword >> name;
            ASSERT_TRUE(keyword == "HELP" || keyword == "TYPE")
                << line;
            if (keyword == "TYPE") {
                std::string type;
                fields >> type;
                ASSERT_TRUE(type == "counter" || type == "gauge" ||
                            type == "summary" || type == "histogram")
                    << line;
                declared.insert(name);
            }
            continue;
        }
        // Sample line: parse the name.
        std::size_t pos = 0;
        while (pos < line.size() && isNameChar(line[pos], pos == 0))
            ++pos;
        ASSERT_GT(pos, 0u) << line;
        std::string name = line.substr(0, pos);
        // Labels, if any: quotes must balance and the block must close.
        if (pos < line.size() && line[pos] == '{') {
            bool inQuote = false;
            bool closed = false;
            for (++pos; pos < line.size(); ++pos) {
                const char c = line[pos];
                if (inQuote && c == '\\') {
                    ++pos; // escaped char inside a label value
                    continue;
                }
                if (c == '"')
                    inQuote = !inQuote;
                else if (c == '}' && !inQuote) {
                    closed = true;
                    ++pos;
                    break;
                }
            }
            ASSERT_TRUE(closed && !inQuote) << line;
        }
        ASSERT_LT(pos, line.size()) << line;
        ASSERT_EQ(line[pos], ' ') << line;
        // The value must parse as a finite double consuming the rest.
        const std::string value = line.substr(pos + 1);
        char *endp = nullptr;
        std::strtod(value.c_str(), &endp);
        ASSERT_NE(endp, value.c_str()) << line;
        ASSERT_EQ(*endp, '\0') << line;
        // Summary series append _sum/_count to the declared name.
        std::string base = name;
        for (const char *suffix : {"_sum", "_count", "_bucket"}) {
            const std::string s = suffix;
            if (base.size() > s.size() &&
                base.compare(base.size() - s.size(), s.size(), s) == 0 &&
                declared.count(base.substr(0, base.size() - s.size())))
                base.resize(base.size() - s.size());
        }
        EXPECT_TRUE(declared.count(base))
            << "sample without TYPE declaration: " << line;
    }
}

} // namespace

TEST(FleetStatus, StoreScanMatchesItsSummaryForEveryKind)
{
    // One spec per campaign kind: a reliability spec with forensics,
    // a shrunk specs/table2.json and a shrunk specs/fleet_smoke.json.
    // The scan must total what the store's summary record and its
    // forensics sidecar record.
    const std::vector<CampaignSpec> specs = {
        statusSpec(),
        specFrom(R"({
            "name": "status-table2", "kind": "detection", "seed": 2738,
            "codes": ["hamming7264", "crc8atm"],
            "patterns": ["random", "burst"],
            "maxWeight": 4, "trials": 2000, "shardTrials": 1000
        })"),
        specFrom(R"({
            "name": "status-fleet", "kind": "fleet", "seed": 31007,
            "years": 2, "shardDimms": 25,
            "policies": {"replacementLagEpochs": 1,
                         "canaryDueThreshold": 0.02},
            "cohorts": [
                {"name": "vendorA-secded", "scheme": "secded",
                 "dimms": 60,
                 "fitOverrides": {
                     "single-bit": {"transient": 14200,
                                    "permanent": 18600},
                     "single-word": {"transient": 1400,
                                     "permanent": 200}}},
                {"name": "vendorB-xed-canary", "scheme": "xed",
                 "dimms": 40, "canary": true,
                 "fitOverrides": {
                     "single-bit": {"transient": 14200,
                                    "permanent": 18600},
                     "single-bank": {"transient": 800,
                                     "permanent": 10000}}}
            ]
        })"),
    };
    for (const CampaignSpec &spec : specs) {
        SCOPED_TRACE(spec.name);
        const std::string store =
            runStore(spec, freshDir("kind_" + spec.name));
        const std::uint64_t shards = buildPlan(spec).tasks.size();

        const FleetStatus status = scanStore(store);
        ASSERT_TRUE(status.ok) << status.error;
        EXPECT_EQ(status.name, spec.name);
        EXPECT_EQ(status.specHash, specHash(spec));
        EXPECT_TRUE(status.complete);
        EXPECT_EQ(status.shardsTotal, shards);
        EXPECT_EQ(status.shardsDone, shards);
        EXPECT_EQ(status.shardsPending, 0u);

        const StoreTotals totals = totalsFromRecords(spec, store);
        EXPECT_EQ(status.unitsDone, totals.units);
        EXPECT_EQ(status.failuresByCell, totals.byCell);
        EXPECT_EQ(status.failuresByType, totals.byType);
        EXPECT_EQ(status.outcomes, totals.outcomes);
        // Each kind's own failure path was exercised, not just zeros.
        EXPECT_GT(status.failedUnits, 0u);
        EXPECT_FALSE(status.failuresByType.empty());
        if (spec.kind != CampaignKind::Detection) {
            EXPECT_FALSE(status.outcomes.empty());
        }

        // One terminal sidecar; its histograms hold one sample per
        // shard.
        EXPECT_EQ(status.telemetryFiles, 1u);
        ASSERT_EQ(status.workers.size(), 1u);
        EXPECT_EQ(status.workers[0].liveness, WorkerLiveness::Done);
        EXPECT_EQ(status.workers[0].shardsDone, shards);
        EXPECT_EQ(status.shardSeconds.count, shards);
        EXPECT_EQ(status.shardUnitsPerSec.count, shards);
    }
}

TEST(FleetStatus, ScanIsStrictlyReadOnly)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("readonly");
    RunOptions options;
    options.outPath = dir + "/out.jsonl";
    options.threads = 2;
    options.durableStore = false;
    options.trace = true; // the third sidecar: <out>.trace.json
    const RunOutcome outcome = runCampaign(spec, options);
    obs::TraceRecorder::instance().setEnabled(false);
    obs::TraceRecorder::instance().clear();
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const auto before = snapshotDir(dir);
    ASSERT_EQ(before.size(), 4u); // the store and three sidecars
    const FleetStatus status = scanStore(options.outPath);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(before, snapshotDir(dir)); // byte-identical contents
}

TEST(FleetStatus, TornStoreTailIsNotDamage)
{
    // A run killed mid-append leaves a torn final store line; resume
    // truncates it, so it is crash debris, not a damaged shard.
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("torn_store"), 6);
    {
        std::ofstream app(store, std::ios::app | std::ios::binary);
        app << R"({"type":"shard","index":6,"point":0,"ce)";
    }

    const FleetStatus status = scanStore(store);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.shardsDone, 6u);
    EXPECT_EQ(status.unitsDone, 600u);
    EXPECT_FALSE(status.complete);
}

TEST(FleetStatus, CorruptMiddleStoreLineFailsWithTheLoadersError)
{
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("corrupt"));
    // Shard 2 is the fourth line: cut its record short mid-file.
    std::string bytes = slurp(store);
    std::size_t line = 0;
    for (int n = 0; n < 3; ++n)
        line = bytes.find('\n', line) + 1;
    bytes.erase(line + 20, bytes.find('\n', line) - line - 20);
    std::ofstream(store, std::ios::binary | std::ios::trunc) << bytes;

    const Plan plan = buildPlan(spec);
    const LoadedStore loaded =
        loadStore(store, specHash(spec), spec, plan);
    ASSERT_FALSE(loaded.ok);
    const FleetStatus status = scanStore(store);
    EXPECT_FALSE(status.ok);
    EXPECT_EQ(status.error, loaded.error);
    EXPECT_EQ(statusJson(status).find("error")->asString(), loaded.error);
}

TEST(FleetStatus, StaleSidecarClassifiesRunDead)
{
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("dead"), 4);
    const std::string sidecar = store + ".telemetry.jsonl";
    // Without its terminal record the sidecar is a run still going, or
    // one that died before it could say so.
    dropLastLine(sidecar);

    // The heartbeat is the newer of the two files' mtimes.
    const auto old = fs::file_time_type::clock::now() -
                     std::chrono::seconds(600);
    fs::last_write_time(sidecar, old);
    fs::last_write_time(store, old);
    const FleetStatus dead = scanStore(store);
    ASSERT_TRUE(dead.ok) << dead.error;
    EXPECT_EQ(dead.shardsDone, 4u);
    EXPECT_EQ(dead.shardsPending, 8u);
    EXPECT_FALSE(dead.complete);
    ASSERT_EQ(dead.workers.size(), 1u);
    EXPECT_EQ(dead.workers[0].liveness, WorkerLiveness::Dead);
    ASSERT_TRUE(dead.workers[0].heartbeatAgeSeconds);
    EXPECT_GT(*dead.workers[0].heartbeatAgeSeconds, livenessSeconds);

    fs::last_write_time(sidecar, fs::file_time_type::clock::now());
    const FleetStatus live = scanStore(store);
    ASSERT_TRUE(live.ok) << live.error;
    ASSERT_EQ(live.workers.size(), 1u);
    EXPECT_EQ(live.workers[0].liveness, WorkerLiveness::Live);
}

TEST(FleetStatus, FreshStoreKeepsARunWithAQuietSidecarLive)
{
    // A run started with --progress-interval 0 writes no progress
    // records: its sidecar ages while its store takes every commit.
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("quiet"), 4);
    const std::string sidecar = store + ".telemetry.jsonl";
    dropLastLine(sidecar);
    fs::last_write_time(sidecar, fs::file_time_type::clock::now() -
                                     std::chrono::seconds(600));
    fs::last_write_time(store, fs::file_time_type::clock::now());

    const FleetStatus live = scanStore(store);
    ASSERT_TRUE(live.ok) << live.error;
    ASSERT_EQ(live.workers.size(), 1u);
    EXPECT_EQ(live.workers[0].liveness, WorkerLiveness::Live);
    ASSERT_TRUE(live.workers[0].heartbeatAgeSeconds);
    EXPECT_LT(*live.workers[0].heartbeatAgeSeconds, livenessSeconds / 2);
}

TEST(FleetStatus, ResumedRunIsLiveDespiteTheTerminalRecordItContinues)
{
    // A resume appends to the sidecar of the run it continues, whose
    // terminal record stays behind the resume's own "run" record. Until
    // the resume writes its terminal record, it is live, not done.
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("resumed"), 4);
    RunOptions options;
    options.outPath = store;
    options.resume = true;
    options.maxShards = 8;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(spec, options);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    const std::string sidecar = store + ".telemetry.jsonl";
    dropLastLine(sidecar); // the resume's own terminal record

    const FleetStatus live = scanStore(store);
    ASSERT_TRUE(live.ok) << live.error;
    EXPECT_EQ(live.shardsDone, 8u);
    ASSERT_EQ(live.workers.size(), 1u);
    EXPECT_EQ(live.workers[0].liveness, WorkerLiveness::Live);
    EXPECT_TRUE(live.workers[0].heartbeatAgeSeconds);

    // The heartbeat is the newer of the two files' mtimes.
    const auto old = fs::file_time_type::clock::now() -
                     std::chrono::seconds(600);
    fs::last_write_time(sidecar, old);
    fs::last_write_time(store, old);
    const FleetStatus dead = scanStore(store);
    ASSERT_TRUE(dead.ok) << dead.error;
    ASSERT_EQ(dead.workers.size(), 1u);
    EXPECT_EQ(dead.workers[0].liveness, WorkerLiveness::Dead);
}

TEST(FleetStatus, MergedQuantilesEqualSingleObserverHistogram)
{
    // The sidecar's newest record carries a histogram merged from four
    // disjoint slices of one sample set; the scan's quantiles must
    // equal those of one histogram that observed every sample.
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("quantiles"));
    Histogram reference;
    Histogram merged;
    for (unsigned w = 0; w < 4; ++w) {
        Histogram slice;
        for (int i = 0; i < 1000; ++i) {
            const double value =
                0.0005 * static_cast<double>((w * 1000 + i) % 773 + 1);
            reference.update(value);
            slice.update(value);
        }
        merged.merge(slice);
    }
    auto hist = json::Value::object();
    hist.set("shardSeconds", obs::histogramJson(merged));
    hist.set("shardUnitsPerSec", json::Value::array());
    auto progress = json::Value::object();
    progress.set("type", "progress");
    progress.set("unitsDone", std::uint64_t{1000});
    progress.set("hist", std::move(hist));
    std::ofstream(store + ".telemetry.jsonl",
                  std::ios::binary | std::ios::trunc)
        << R"({"type":"run","host":"synthetic"})" << "\n"
        << json::dump(progress) << "\n";

    const FleetStatus status = scanStore(store);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.shardSeconds.count, reference.count());
    EXPECT_EQ(status.shardSeconds.p50, reference.quantile(0.50));
    EXPECT_EQ(status.shardSeconds.p90, reference.quantile(0.90));
    EXPECT_EQ(status.shardSeconds.p99, reference.quantile(0.99));
    ASSERT_EQ(status.workers.size(), 1u);
    EXPECT_EQ(status.workers[0].host, "synthetic");
}

TEST(FleetStatus, TornTelemetryTailIsToleratedAndCounted)
{
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("torn"));

    // Tear the sidecar the way a SIGKILL mid-append would.
    {
        std::ofstream sidecar(store + ".telemetry.jsonl",
                              std::ios::app | std::ios::binary);
        sidecar << "{\"type\":\"progress\",\"unitsDo";
    }
    const FleetStatus status = scanStore(store);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.skippedTelemetryLines, 1u);
    EXPECT_TRUE(status.complete); // damage never hides real totals
    EXPECT_EQ(status.shardsDone, 12u);
}

TEST(FleetStatus, PrometheusExpositionIsValid)
{
    const CampaignSpec spec = statusSpec();
    const FleetStatus status = scanStore(runStore(spec, freshDir("prom")));
    ASSERT_TRUE(status.ok) << status.error;
    const std::string text = prometheusText(status);
    validatePrometheus(text);
    // Spot checks: identity, exact totals, the summary series.
    EXPECT_NE(text.find("xed_campaign_info{name=\"status-test\""),
              std::string::npos);
    EXPECT_NE(text.find("xed_shards{state=\"done\"} 12\n"),
              std::string::npos);
    EXPECT_NE(text.find("xed_units_done_total 1200\n"),
              std::string::npos);
    EXPECT_NE(text.find("xed_shard_seconds_count 12\n"),
              std::string::npos);
    EXPECT_NE(text.find("xed_shard_seconds{quantile=\"0.99\"}"),
              std::string::npos);
}

namespace
{

/** A socket connected to 127.0.0.1:@p port. Its reads give up after
 *  10 s, so a stalled server fails the test instead of hanging it. */
int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    return fd;
}

/** One blocking HTTP GET against 127.0.0.1:@p port. */
std::string
httpGet(std::uint16_t port, const std::string &path)
{
    const int fd = connectLoopback(port);
    const std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return reply;
}

std::string
bodyOf(const std::string &reply)
{
    const std::size_t split = reply.find("\r\n\r\n");
    return split == std::string::npos ? "" : reply.substr(split + 4);
}

/** The `serve` verb's handler over @p store. */
obs::HttpServer::Handler
statusHandler(const std::string &store)
{
    return [store](const std::string &path) {
        obs::HttpResponse response;
        if (!statusEndpoint(path, store, &response.status,
                            &response.contentType, &response.body))
            response = obs::httpNotFound(path);
        return response;
    };
}

} // namespace

TEST(FleetStatus, ServeEndpointsAnswerOverARealSocket)
{
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("serve"));

    obs::HttpServer server;
    std::string error;
    ASSERT_TRUE(server.start(0, statusHandler(store), &error)) << error;
    ASSERT_GT(server.port(), 0);
    std::thread serving([&server] { server.run(); });

    const std::string statusReply =
        httpGet(server.port(), "/status.json");
    EXPECT_NE(statusReply.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(statusReply.find("Content-Type: application/json"),
              std::string::npos);
    const auto doc = json::parse(bodyOf(statusReply));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("shards")->find("done")->asUint(), 12u);
    EXPECT_EQ(doc->find("name")->asString(), "status-test");

    const std::string metricsReply = httpGet(server.port(), "/metrics");
    EXPECT_NE(metricsReply.find("HTTP/1.0 200"), std::string::npos);
    validatePrometheus(bodyOf(metricsReply));

    const std::string htmlReply = httpGet(server.port(), "/");
    EXPECT_NE(htmlReply.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(htmlReply.find("text/html"), std::string::npos);

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

    server.stop();
    serving.join();
}

TEST(FleetStatus, ServeAnswersPastAnIdleConnection)
{
    const CampaignSpec spec = statusSpec();
    const std::string store = runStore(spec, freshDir("serve_idle"));

    obs::HttpServer server;
    std::string error;
    ASSERT_TRUE(server.start(0, statusHandler(store), &error)) << error;
    std::thread serving([&server] { server.run(); });

    // Connects and sends nothing, as a browser preconnect does. The
    // single-threaded server must time it out and serve the next one.
    const int idle = connectLoopback(server.port());
    const std::string reply = httpGet(server.port(), "/status.json");
    EXPECT_NE(reply.find("HTTP/1.0 200"), std::string::npos) << reply;
    ::close(idle);

    server.stop();
    serving.join();
}

TEST(FleetStatus, ReportJsonSchemaFromStoreScan)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("store");
    runStore(spec, dir);

    // Scanning the sidecar path resolves to the store.
    const FleetStatus status =
        scanStore(dir + "/out.jsonl.telemetry.jsonl");
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.path, dir + "/out.jsonl");
    EXPECT_TRUE(status.complete);
    EXPECT_EQ(status.shardsDone, 12u);
    ASSERT_EQ(status.workers.size(), 1u);
    EXPECT_EQ(status.workers[0].liveness, WorkerLiveness::Done);

    const json::Value doc = statusJson(status);
    for (const char *key : {"type", "name", "specHash", "complete",
                            "shards", "units", "failures", "throughput",
                            "workers", "telemetry"})
        EXPECT_NE(doc.find(key), nullptr) << key;
}

TEST(FleetStatus, MissingStoreIsACleanError)
{
    const FleetStatus status =
        scanStore(ownTempPath("xed_status_nonexistent.jsonl"));
    EXPECT_FALSE(status.ok);
    EXPECT_FALSE(status.error.empty());
    const json::Value doc = statusJson(status);
    EXPECT_NE(doc.find("error"), nullptr);
}

TEST(FleetStatus, DirectoryPathIsACleanError)
{
    const std::string dir = freshDir("directory");
    const FleetStatus status = scanStore(dir);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find(dir), std::string::npos) << status.error;
    const json::Value doc = statusJson(status);
    EXPECT_NE(doc.find("error"), nullptr);
}
