/**
 * @file
 * Fleet campaigns through the full campaign machinery: byte-identical
 * stores across thread counts, resume after an interrupt, the shard
 * payload (de)serialization round trip, and report rendering.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "campaign/runner.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

/** Two cohorts, 1 simulated year of monthly epochs, FIT rates cranked
 *  high enough that DUEs, replacements and canary alerts all occur in
 *  a few hundred DIMMs. 5 shards (300 + 200 over shardDimms 100). */
CampaignSpec
fleetSpec()
{
    std::string error;
    auto doc = json::parse(R"({
        "name": "fleet-camp", "kind": "fleet", "seed": 616,
        "years": 1, "shardDimms": 100,
        "policies": {"replacementLagEpochs": 1,
                     "canaryDueThreshold": 0.02},
        "cohorts": [
            {"name": "vendorA-secded", "scheme": "secded", "dimms": 300,
             "fitOverrides": {
                 "single-bit": {"transient": 20000, "permanent": 26000},
                 "single-word": {"transient": 2000, "permanent": 400}}},
            {"name": "vendorB-xed", "scheme": "xed", "dimms": 200,
             "canary": true,
             "fitOverrides": {
                 "single-bit": {"transient": 20000, "permanent": 26000},
                 "single-bank": {"transient": 1200, "permanent": 15000}}}
        ]
    })",
                           &error);
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;
    return *spec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    return {std::istreambuf_iterator<char>(in), {}};
}

void
removeIfPresent(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

RunOptions
storeOptions(const std::string &path, unsigned threads)
{
    RunOptions options;
    options.outPath = path;
    options.threads = threads;
    options.telemetrySidecar = false;
    return options;
}

std::string
lastLine(const std::string &text)
{
    // The store ends with "...}\n"; find the start of the final line.
    const std::size_t end = text.find_last_not_of('\n');
    const std::size_t start = text.rfind('\n', end);
    return text.substr(start + 1, end - start);
}

} // namespace

TEST(FleetCampaign, StoreBytesIdenticalAcrossThreadCounts)
{
    const auto spec = fleetSpec();
    const auto pathA = ownTempPath("fleet_t1.jsonl");
    const auto pathB = ownTempPath("fleet_t4.jsonl");
    removeIfPresent(pathA);
    removeIfPresent(pathB);

    const auto a = runCampaign(spec, storeOptions(pathA, 1));
    const auto b = runCampaign(spec, storeOptions(pathB, 4));
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_TRUE(a.complete);
    // No forensics sidecar for fleet campaigns: attribution is
    // embedded in the shard payloads instead.
    EXPECT_FALSE(a.forensicsWritten);
    EXPECT_FALSE(
        std::filesystem::exists(pathA + ".forensics.jsonl"));

    const std::string bytesA = slurp(pathA);
    EXPECT_EQ(bytesA, slurp(pathB));
    EXPECT_FALSE(bytesA.empty());
    removeIfPresent(pathA);
    removeIfPresent(pathB);
}

TEST(FleetCampaign, InterruptedRunResumesToIdenticalBytes)
{
    const auto spec = fleetSpec();
    const auto full = ownTempPath("fleet_full.jsonl");
    const auto split = ownTempPath("fleet_split.jsonl");
    removeIfPresent(full);
    removeIfPresent(split);

    ASSERT_TRUE(runCampaign(spec, storeOptions(full, 2)).ok);

    auto partial = storeOptions(split, 2);
    partial.maxShards = 2;
    const auto first = runCampaign(spec, partial);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.complete);

    auto resume = storeOptions(split, 2);
    resume.resume = true;
    const auto second = runCampaign(spec, resume);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.complete);
    EXPECT_EQ(second.shardsReplayed, 2u);

    EXPECT_EQ(slurp(full), slurp(split));
    removeIfPresent(full);
    removeIfPresent(split);
}

TEST(FleetCampaign, ShardPayloadRoundTripsThroughJson)
{
    const auto spec = fleetSpec();
    const Plan plan = buildPlan(spec);
    const ShardResult result = runShard(spec, plan.tasks[0], nullptr);
    const json::Value record =
        shardRecord(spec, plan.tasks[0], result);
    const ShardResult decoded = shardResultFromJson(spec, record);
    ASSERT_EQ(decoded.fleet.cohorts.size(),
              result.fleet.cohorts.size());
    for (std::size_t c = 0; c < result.fleet.cohorts.size(); ++c) {
        const auto &a = result.fleet.cohorts[c];
        const auto &b = decoded.fleet.cohorts[c];
        EXPECT_EQ(a.installs, b.installs);
        EXPECT_EQ(a.removals, b.removals);
        EXPECT_EQ(a.due, b.due);
        EXPECT_EQ(a.sdc, b.sdc);
        EXPECT_EQ(a.replacements, b.replacements);
        EXPECT_EQ(a.retirements, b.retirements);
        EXPECT_EQ(a.attribution.byClassKinds,
                  b.attribution.byClassKinds);
        EXPECT_EQ(a.attribution.byOutcome, b.attribution.byOutcome);
    }
    // Re-encoding the decoded payload reproduces the record exactly.
    EXPECT_EQ(json::dump(shardRecord(spec, plan.tasks[0], decoded)),
              json::dump(record));
}

TEST(FleetCampaign, SummaryCarriesFleetTimeSeries)
{
    const auto spec = fleetSpec();
    const auto path = ownTempPath("fleet_summary.jsonl");
    removeIfPresent(path);
    ASSERT_TRUE(runCampaign(spec, storeOptions(path, 2)).ok);

    std::string error;
    const auto summary = json::parse(lastLine(slurp(path)), &error);
    ASSERT_TRUE(summary) << error;
    const json::Value *results = summary->find("results");
    ASSERT_TRUE(results && results->isArray() && results->size() == 1);
    const json::Value *payload = results->at(0).find("fleet");
    ASSERT_TRUE(payload && payload->isObject());

    const json::Value *epochs = payload->find("epochs");
    ASSERT_TRUE(epochs && epochs->isIntegral());
    EXPECT_EQ(epochs->asUint(), 12u); // 1 year of monthly epochs
    for (const char *key :
         {"inService", "availability", "cumulativeDue", "cumulativeSdc",
          "cumulativeReplacements", "scrubPasses"}) {
        const json::Value *series = payload->find(key);
        ASSERT_TRUE(series && series->isArray()) << key;
        EXPECT_EQ(series->size(), 12u) << key;
    }
    // Monotone cumulative failure series, with events present.
    const json::Value *due = payload->find("cumulativeDue");
    std::uint64_t previous = 0;
    for (std::size_t e = 0; e < due->size(); ++e) {
        EXPECT_GE(due->at(e).asUint(), previous);
        previous = due->at(e).asUint();
    }
    EXPECT_GT(previous, 0u);

    const json::Value *cohorts = payload->find("cohorts");
    ASSERT_TRUE(cohorts && cohorts->isArray());
    ASSERT_EQ(cohorts->size(), 2u);
    EXPECT_EQ(cohorts->at(0).find("name")->asString(),
              "vendorA-secded");
    // The canary cohort reports an alert epoch (FIT rates are cranked
    // far past the 2% DUE threshold); the non-canary reports null.
    EXPECT_TRUE(cohorts->at(0).find("canaryAlertEpoch")->isNull());
    EXPECT_TRUE(cohorts->at(1).find("canaryAlertEpoch")->isIntegral());
    removeIfPresent(path);
}

TEST(FleetCampaign, ReportRendersCohortAndSeriesTables)
{
    const auto spec = fleetSpec();
    const auto path = ownTempPath("fleet_report.jsonl");
    removeIfPresent(path);
    ASSERT_TRUE(runCampaign(spec, storeOptions(path, 2)).ok);

    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(printReport(path, out, &error)) << error;
    const std::string text = out.str();
    EXPECT_NE(text.find("vendorA-secded"), std::string::npos);
    EXPECT_NE(text.find("vendorB-xed"), std::string::npos);
    EXPECT_NE(text.find("fleet time series"), std::string::npos);
    EXPECT_NE(text.find("Availability"), std::string::npos);
    removeIfPresent(path);
}

TEST(FleetCampaign, DryRunPlanPrintsFleetKind)
{
    const auto spec = fleetSpec();
    std::ostringstream out;
    printPlan(spec, out);
    EXPECT_NE(out.str().find("(fleet)"), std::string::npos);
    EXPECT_NE(out.str().find("fleet-camp"), std::string::npos);
}
