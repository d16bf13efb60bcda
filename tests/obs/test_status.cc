/**
 * @file
 * Fleet observability end to end (campaign/status.hh):
 *
 *  - a real 4-worker queue directory scans to exactly the shard,
 *    unit and failure totals the single-process run of the same spec
 *    reports (the acceptance contract: status is derived from the
 *    same committed bytes the merge uses),
 *  - a worker whose lease mtime is back-dated beyond the lease
 *    lifetime classifies dead; a fresh lease classifies live,
 *  - fleet-wide shard-time quantiles come from exact cross-worker
 *    histogram merges (synthetic sidecars vs a reference histogram),
 *  - scanning is strictly read-only: every byte of the queue is
 *    identical before and after,
 *  - /metrics renders valid Prometheus text exposition (validated by
 *    a grammar checker, not substring luck),
 *  - the serve endpoints answer over a real socket on an ephemeral
 *    port: /status.json parses, /metrics validates, junk 404s, and an
 *    idle connection does not stall the requests behind it, and
 *  - shard and lease names too large for a u64 are skipped, not
 *    fatal, and
 *  - a fragment the merge would reject (malformed payload, a shard
 *    record off its plan task) is counted damaged and adds nothing,
 *    while a store's torn final line is not damage at all.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
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
#include "campaign/worker.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "obs/http.hh"
#include "obs/telemetry.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

namespace fs = std::filesystem;

CampaignSpec
statusSpec()
{
    std::string error;
    auto doc = json::parse(R"({
        "name": "status-test", "seed": 7171,
        "schemes": ["secded", "xed"],
        "systems": 600, "shardSystems": 100
    })",
                           &error);
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;
    return *spec;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ownTempPath("xed_status_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Drain the queue with @p n sequential workers, telemetry on. */
void
runFleet(const CampaignSpec &spec, const std::string &queueDir,
         unsigned n, std::uint64_t maxShardsEach = 0)
{
    for (unsigned w = 0; w < n; ++w) {
        WorkerOptions options;
        options.queueDir = queueDir;
        options.workerId = "w" + std::to_string(w);
        options.pollSeconds = 0.01;
        options.maxShards = maxShardsEach;
        options.durable = false;
        const WorkerOutcome outcome = runWorker(spec, options);
        ASSERT_TRUE(outcome.ok) << outcome.error;
    }
}

std::map<std::string, std::string>
snapshotDir(const std::string &dir)
{
    std::map<std::string, std::string> bytes;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        bytes[entry.path().filename().string()] = {
            std::istreambuf_iterator<char>(in), {}};
    }
    return bytes;
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

TEST(FleetStatus, FourWorkerQueueMatchesSingleProcessRun)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("four");
    const std::string queueDir = dir + "/queue";
    // 12 shards, 4 workers, 3 shards each: every worker commits work.
    runFleet(spec, queueDir, 4, 3);

    // The single-process reference run of the same spec.
    RunOptions options;
    options.outPath = dir + "/single.jsonl";
    options.threads = 2;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(spec, options);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_TRUE(outcome.complete);

    const StatusOptions statusOptions;
    const FleetStatus queue = scanQueueDir(queueDir, statusOptions);
    ASSERT_TRUE(queue.ok) << queue.error;
    const FleetStatus store =
        scanStore(options.outPath, statusOptions);
    ASSERT_TRUE(store.ok) << store.error;

    // Exact agreement between the live queue view and the
    // single-process run: same committed bytes, same totals.
    EXPECT_EQ(queue.name, spec.name);
    EXPECT_EQ(queue.specHash, store.specHash);
    EXPECT_TRUE(queue.complete);
    EXPECT_TRUE(store.complete);
    EXPECT_EQ(queue.shardsTotal, 12u);
    EXPECT_EQ(queue.shardsDone, 12u);
    EXPECT_EQ(queue.shardsClaimed, 0u);
    EXPECT_EQ(queue.shardsPending, 0u);
    EXPECT_EQ(store.shardsDone, queue.shardsDone);
    EXPECT_EQ(queue.unitsDone, 1200u); // 600 systems x 2 schemes
    EXPECT_EQ(store.unitsDone, queue.unitsDone);
    EXPECT_EQ(store.failedUnits, queue.failedUnits);
    EXPECT_EQ(store.failuresByCell, queue.failuresByCell);
    EXPECT_EQ(store.failuresByType, queue.failuresByType);
    EXPECT_EQ(store.outcomes, queue.outcomes);

    // Four telemetry sidecars, all terminal, every shard accounted.
    EXPECT_EQ(queue.telemetryFiles, 4u);
    EXPECT_EQ(queue.workers.size(), 4u);
    std::uint64_t shardsByWorkers = 0;
    for (const WorkerStatus &worker : queue.workers) {
        EXPECT_EQ(worker.liveness, WorkerLiveness::Done) << worker.id;
        shardsByWorkers += worker.shardsDone;
    }
    EXPECT_EQ(shardsByWorkers, 12u);
    // Exact merged histogram: one sample per committed shard.
    EXPECT_EQ(queue.shardSeconds.count, 12u);
    EXPECT_EQ(queue.shardUnitsPerSec.count, 12u);

    // The canonical JSON agrees field-for-field where both sides are
    // derived from committed bytes.
    const json::Value a = statusJson(queue);
    const json::Value b = statusJson(store);
    EXPECT_EQ(*a.find("specHash"), *b.find("specHash"));
    EXPECT_EQ(*a.find("shards"), *b.find("shards"));
    EXPECT_EQ(*a.find("failures"), *b.find("failures"));
    EXPECT_EQ(a.find("units")->find("done")->asUint(),
              b.find("units")->find("done")->asUint());
}

namespace
{

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

} // namespace

TEST(FleetStatus, QueueAndStoreAgreeForEveryKind)
{
    // One spec per campaign kind, each drained by a 2-worker queue and
    // run once in a single process: a reliability spec with forensics,
    // a shrunk specs/table2.json and a shrunk specs/fleet_smoke.json.
    // Both scans must report the same totals, failure breakdown and
    // detection outcomes.
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
        const std::string dir = freshDir("kind_" + spec.name);
        const std::string queueDir = dir + "/queue";
        const std::uint64_t shards = buildPlan(spec).tasks.size();
        // Both workers commit: the first stops after half the plan.
        runFleet(spec, queueDir, 2, (shards + 1) / 2);

        RunOptions options;
        options.outPath = dir + "/single.jsonl";
        options.threads = 2;
        options.durableStore = false;
        const RunOutcome outcome = runCampaign(spec, options);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        ASSERT_TRUE(outcome.complete);

        const FleetStatus queue = scanQueueDir(queueDir, StatusOptions{});
        ASSERT_TRUE(queue.ok) << queue.error;
        const FleetStatus store =
            scanStore(options.outPath, StatusOptions{});
        ASSERT_TRUE(store.ok) << store.error;
        EXPECT_EQ(queue.shardsDone, shards);
        EXPECT_EQ(queue.damagedFragments, 0u);

        const json::Value a = statusJson(queue);
        const json::Value b = statusJson(store);
        EXPECT_EQ(*a.find("specHash"), *b.find("specHash"));
        EXPECT_EQ(*a.find("shards"), *b.find("shards"));
        EXPECT_EQ(*a.find("units")->find("done"),
                  *b.find("units")->find("done"));
        EXPECT_EQ(*a.find("failures"), *b.find("failures"))
            << json::dump(*a.find("failures")) << "\nvs\n"
            << json::dump(*b.find("failures"));
        // Each kind's own failure path was exercised, not just zeros.
        EXPECT_GT(queue.failedUnits, 0u);
        EXPECT_FALSE(queue.failuresByType.empty());
        if (spec.kind != CampaignKind::Detection) {
            EXPECT_FALSE(queue.outcomes.empty());
        }
    }
}

TEST(FleetStatus, ScanIsStrictlyReadOnly)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("readonly");
    const std::string queueDir = dir + "/queue";
    runFleet(spec, queueDir, 2, 0);

    const auto before = snapshotDir(queueDir);
    const FleetStatus status = scanQueueDir(queueDir, StatusOptions{});
    ASSERT_TRUE(status.ok) << status.error;
    const auto after = snapshotDir(queueDir);
    EXPECT_EQ(before, after); // same files, byte-identical contents
}

TEST(FleetStatus, OversizedIndexNamesAreSkipped)
{
    // Shard and lease names whose number does not fit a u64 are not
    // names the queue writes: the scan skips them like any other
    // foreign file instead of aborting.
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("oversized");
    const std::string queueDir = dir + "/queue";
    runFleet(spec, queueDir, 2, 0);
    const FleetStatus before = scanQueueDir(queueDir, StatusOptions{});
    ASSERT_TRUE(before.ok) << before.error;

    const std::string huge = "99999999999999999999999";
    std::ofstream(queueDir + "/shard-" + huge + ".jsonl");
    std::ofstream lease(queueDir + "/lease-" + huge + ".json");
    lease << R"({"worker": "w9", "shard": 0})" << "\n";
    lease.close();

    const FleetStatus after = scanQueueDir(queueDir, StatusOptions{});
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_EQ(statusJson(after), statusJson(before));
}

namespace
{

/** Rewrite the shard record (first line) of a committed fragment. */
void
editShardLine(const std::string &fragment,
              const std::function<void(json::Value &)> &edit)
{
    std::string first, rest;
    {
        std::ifstream in(fragment, std::ios::binary);
        std::getline(in, first);
        rest.assign(std::istreambuf_iterator<char>(in), {});
    }
    auto record = json::parse(first);
    ASSERT_TRUE(record);
    edit(*record);
    std::ofstream out(fragment, std::ios::binary | std::ios::trunc);
    out << json::dump(*record) << '\n' << rest;
}

} // namespace

TEST(FleetStatus, MalformedFragmentPayloadIsDamage)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("blank_payload");
    const std::string queueDir = dir + "/queue";
    runFleet(spec, queueDir, 2, 0);
    const std::string fragment = queueDir + "/shard-000003.jsonl";
    editShardLine(fragment, [](json::Value &record) {
        auto payload = json::Value::object();
        payload.set("failByYear", json::Value::array());
        payload.set("failureTypes", json::Value::object());
        record.set("result", std::move(payload));
    });

    MergeOptions merge;
    merge.queueDir = queueDir;
    merge.outPath = dir + "/merged.jsonl";
    merge.durable = false;
    const MergeOutcome merged = mergeFragments(spec, merge);
    EXPECT_FALSE(merged.ok);
    EXPECT_NE(merged.error.find("shard-000003.jsonl"), std::string::npos)
        << merged.error;

    // Status counts the fragment done and damaged, and, like the merge,
    // takes nothing from it: 11 of 12 shards' units.
    const FleetStatus status = scanQueueDir(queueDir, StatusOptions{});
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.shardsDone, 12u);
    EXPECT_EQ(status.damagedFragments, 1u);
    EXPECT_EQ(status.unitsDone, 1100u);
}

TEST(FleetStatus, FragmentOffItsPlanTaskIsDamage)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("off_plan");
    const std::string queueDir = dir + "/queue";
    runFleet(spec, queueDir, 2, 0);
    // Shard 3 covers systems [300, 400) of its cell; claim [0, 100).
    editShardLine(queueDir + "/shard-000003.jsonl",
                  [](json::Value &record) {
                      record.set("begin", std::uint64_t{0});
                      record.set("end", std::uint64_t{100});
                  });

    const FleetStatus status = scanQueueDir(queueDir, StatusOptions{});
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.shardsDone, 12u);
    EXPECT_EQ(status.damagedFragments, 1u);
    EXPECT_EQ(status.unitsDone, 1100u);
}

TEST(FleetStatus, TornStoreTailIsNotDamage)
{
    // A run killed mid-append leaves a torn final store line; resume
    // truncates it, so it is crash debris, not a damaged shard.
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("torn_store");
    RunOptions options;
    options.outPath = dir + "/out.jsonl";
    options.maxShards = 6;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(spec, options);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    {
        std::ofstream app(options.outPath,
                          std::ios::app | std::ios::binary);
        app << R"({"type":"shard","index":6,"point":0,"ce)";
    }

    const FleetStatus status = scanStore(options.outPath, StatusOptions{});
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.shardsDone, 6u);
    EXPECT_EQ(status.unitsDone, 600u);
    EXPECT_EQ(status.damagedFragments, 0u);
    EXPECT_FALSE(status.complete);
}

TEST(FleetStatus, BackdatedLeaseClassifiesWorkerDead)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("dead");
    const std::string queueDir = dir + "/queue";
    // Commit 4 of the 12 shards, leaving real pending work.
    runFleet(spec, queueDir, 1, 4);

    // A dead worker: its lease's mtime is 10 lease lifetimes old.
    {
        std::ofstream lease(queueDir + "/lease-000006.json");
        lease << R"({"worker":"w-dead","shard":6})" << "\n";
    }
    fs::last_write_time(queueDir + "/lease-000006.json",
                        fs::file_time_type::clock::now() -
                            std::chrono::seconds(600));
    // A live worker: lease written just now.
    {
        std::ofstream lease(queueDir + "/lease-000007.json");
        lease << R"({"worker":"w-live","shard":7})" << "\n";
    }

    StatusOptions options;
    options.leaseSeconds = 60;
    const FleetStatus status = scanQueueDir(queueDir, options);
    ASSERT_TRUE(status.ok) << status.error;

    EXPECT_EQ(status.shardsDone, 4u);
    EXPECT_EQ(status.shardsClaimed, 2u);
    EXPECT_EQ(status.shardsPending, 6u);
    EXPECT_FALSE(status.complete);

    std::map<std::string, WorkerLiveness> liveness;
    for (const WorkerStatus &worker : status.workers)
        liveness[worker.id] = worker.liveness;
    ASSERT_TRUE(liveness.count("w-dead"));
    ASSERT_TRUE(liveness.count("w-live"));
    EXPECT_EQ(liveness["w-dead"], WorkerLiveness::Dead);
    EXPECT_EQ(liveness["w-live"], WorkerLiveness::Live);
    EXPECT_EQ(liveness["w0"], WorkerLiveness::Done);
}

TEST(FleetStatus, MergedQuantilesEqualSingleObserverHistogram)
{
    // Synthetic queue: 4 sidecars whose "hist" payloads cover
    // disjoint slices of one sample set. The scanner's merged
    // summary must equal the reference histogram's quantiles exactly.
    const std::string dir = freshDir("quantiles");
    {
        std::ofstream manifest(dir + "/queue.json");
        manifest << R"({"type":"queue","format":1,"name":"synthetic",)"
                 << R"("specHash":"feedbeef","shards":4,)"
                 << R"("forensics":false})" << "\n";
    }
    Histogram reference;
    for (unsigned w = 0; w < 4; ++w) {
        Histogram slice;
        for (int i = 0; i < 1000; ++i) {
            const double value =
                0.0005 * static_cast<double>((w * 1000 + i) % 773 + 1);
            reference.update(value);
            slice.update(value);
        }
        auto hist = json::Value::object();
        hist.set("shardSeconds", obs::histogramJson(slice));
        hist.set("shardUnitsPerSec", json::Value::array());
        auto progress = json::Value::object();
        progress.set("type", "progress");
        progress.set("unitsDone", std::uint64_t{1000});
        progress.set("hist", std::move(hist));
        std::ofstream sidecar(dir + "/worker-w" + std::to_string(w) +
                              ".telemetry.jsonl");
        sidecar << R"({"type":"run","host":"synthetic"})" << "\n"
                << json::dump(progress) << "\n";
    }

    const FleetStatus status = scanQueueDir(dir, StatusOptions{});
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.shardSeconds.count, reference.count());
    EXPECT_EQ(status.shardSeconds.p50, reference.quantile(0.50));
    EXPECT_EQ(status.shardSeconds.p90, reference.quantile(0.90));
    EXPECT_EQ(status.shardSeconds.p99, reference.quantile(0.99));
}

TEST(FleetStatus, TornTelemetryTailIsToleratedAndCounted)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("torn");
    const std::string queueDir = dir + "/queue";
    runFleet(spec, queueDir, 1, 0);

    // Tear the sidecar the way a SIGKILL mid-append would.
    {
        std::ofstream sidecar(queueDir + "/worker-w0.telemetry.jsonl",
                              std::ios::app | std::ios::binary);
        sidecar << "{\"type\":\"progress\",\"unitsDo";
    }
    const FleetStatus status = scanQueueDir(queueDir, StatusOptions{});
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.skippedTelemetryLines, 1u);
    EXPECT_TRUE(status.complete); // damage never hides real totals
    EXPECT_EQ(status.shardsDone, 12u);
}

TEST(FleetStatus, PrometheusExpositionIsValid)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("prom");
    const std::string queueDir = dir + "/queue";
    runFleet(spec, queueDir, 2, 0);

    const FleetStatus status = scanQueueDir(queueDir, StatusOptions{});
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

/** The `serve` verb's handler over @p queueDir. */
obs::HttpServer::Handler
statusHandler(const std::string &queueDir)
{
    return [queueDir](const std::string &path) {
        obs::HttpResponse response;
        if (!statusEndpoint(path, queueDir, StatusOptions{},
                            &response.status, &response.contentType,
                            &response.body))
            response = obs::httpNotFound(path);
        return response;
    };
}

} // namespace

TEST(FleetStatus, ServeEndpointsAnswerOverARealSocket)
{
    const CampaignSpec spec = statusSpec();
    const std::string dir = freshDir("serve");
    const std::string queueDir = dir + "/queue";
    runFleet(spec, queueDir, 2, 0);

    obs::HttpServer server;
    std::string error;
    ASSERT_TRUE(server.start(0, statusHandler(queueDir), &error))
        << error;
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
    const std::string dir = freshDir("serve_idle");
    const std::string queueDir = dir + "/queue";
    runFleet(spec, queueDir, 2, 0);

    obs::HttpServer server;
    std::string error;
    ASSERT_TRUE(server.start(0, statusHandler(queueDir), &error))
        << error;
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
    RunOptions options;
    options.outPath = dir + "/out.jsonl";
    options.threads = 2;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(spec, options);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    // Scanning the sidecar path resolves to the store.
    const FleetStatus status =
        scanStatusSource(dir + "/out.jsonl.telemetry.jsonl",
                         StatusOptions{});
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.source, "store");
    EXPECT_TRUE(status.complete);
    EXPECT_EQ(status.shardsDone, 12u);
    ASSERT_EQ(status.workers.size(), 1u);
    EXPECT_EQ(status.workers[0].liveness, WorkerLiveness::Done);

    const json::Value doc = statusJson(status);
    for (const char *key : {"type", "source", "name", "specHash",
                            "complete", "shards", "units", "failures",
                            "throughput", "workers", "telemetry"})
        EXPECT_NE(doc.find(key), nullptr) << key;
}

TEST(FleetStatus, MissingQueueIsACleanError)
{
    const FleetStatus status = scanQueueDir(
        ownTempPath("xed_status_nonexistent"),
        StatusOptions{});
    EXPECT_FALSE(status.ok);
    EXPECT_FALSE(status.error.empty());
    const json::Value doc = statusJson(status);
    EXPECT_NE(doc.find("error"), nullptr);
}

