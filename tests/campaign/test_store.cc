/**
 * @file
 * JSONL result store: shard-record round-trips, prefix recovery after
 * an interrupt (including a torn final line), and rejection of stores
 * that do not belong to the spec being resumed or whose shard payloads
 * are malformed.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "campaign/runner.hh"
#include "campaign/store.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

CampaignSpec
tinySpec()
{
    std::string error;
    auto doc = json::parse(R"({
        "name": "store-test", "seed": 11, "schemes": ["secded"],
        "systems": 100, "shardSystems": 50
    })",
                           &error);
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;
    return *spec;
}

ShardResult
simulatedShard(const CampaignSpec &spec, const ShardTask &task)
{
    const auto scheme =
        faultsim::makeScheme(spec.schemes[task.cell], spec.onDie);
    ShardResult result;
    result.mc = runMonteCarloShard(*scheme, mcConfigFor(spec, task.point),
                                   task.begin, task.end);
    return result;
}

/** Write the manifest plus the first @p shards shard records. */
void
writeStore(const std::string &path, const CampaignSpec &spec,
           const Plan &plan, unsigned shards)
{
    StoreWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, -1, &error)) << error;
    ASSERT_TRUE(
        writer.write(manifestRecord(spec, plan, specHash(spec)), &error));
    for (unsigned i = 0; i < shards; ++i)
        ASSERT_TRUE(writer.write(shardRecord(spec, plan.tasks[i],
                                             simulatedShard(
                                                 spec, plan.tasks[i])),
                                 &error))
            << error;
}

} // namespace

TEST(CampaignStore, ReliabilityShardRecordRoundTrips)
{
    const auto spec = tinySpec();
    const Plan plan = buildPlan(spec);
    const auto result = simulatedShard(spec, plan.tasks[0]);

    const auto record = shardRecord(spec, plan.tasks[0], result);
    const auto decoded = shardResultFromJson(spec, record);
    for (unsigned y = 1; y <= 7; ++y) {
        EXPECT_EQ(decoded.mc.failByYear[y].successes(),
                  result.mc.failByYear[y].successes());
        EXPECT_EQ(decoded.mc.failByYear[y].trials(),
                  result.mc.failByYear[y].trials());
    }
    EXPECT_EQ(decoded.mc.failureTypes.all(), result.mc.failureTypes.all());

    // The record itself survives a text round-trip byte for byte.
    std::string error;
    auto reparsed = json::parse(json::dump(record), &error);
    ASSERT_TRUE(reparsed) << error;
    EXPECT_EQ(json::dump(*reparsed), json::dump(record));
}

TEST(CampaignStore, LoadRecoversCompletedPrefix)
{
    const auto spec = tinySpec();
    const Plan plan = buildPlan(spec);
    ASSERT_EQ(plan.tasks.size(), 2u);
    const auto path = ownTempPath("store_prefix.jsonl");
    writeStore(path, spec, plan, 1);

    const auto loaded = loadStore(path, specHash(spec), spec, plan);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.completedShards, 1u);
    EXPECT_FALSE(loaded.hasSummary);
    EXPECT_EQ(static_cast<std::uintmax_t>(loaded.validBytes),
              std::filesystem::file_size(path));

    const auto expected = simulatedShard(spec, plan.tasks[0]);
    EXPECT_EQ(loaded.cells[0].mc.failByYear[7].trials(),
              expected.mc.failByYear[7].trials());
}

TEST(CampaignStore, TornFinalLineIsDropped)
{
    const auto spec = tinySpec();
    const Plan plan = buildPlan(spec);
    const auto path = ownTempPath("store_torn.jsonl");
    writeStore(path, spec, plan, 1);
    const auto intact = std::filesystem::file_size(path);

    // Simulate a kill mid-write: half a record, no trailing newline.
    {
        std::ofstream app(path, std::ios::app | std::ios::binary);
        app << R"({"type":"shard","index":1,"point":0,"ce)";
    }
    const auto loaded = loadStore(path, specHash(spec), spec, plan);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.completedShards, 1u);
    EXPECT_EQ(static_cast<std::uintmax_t>(loaded.validBytes), intact);

    // Resume truncates at validBytes and the next append lines up.
    StoreWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, loaded.validBytes, &error)) << error;
    EXPECT_EQ(std::filesystem::file_size(path), intact);
}

TEST(CampaignStore, RejectsForeignAndCorruptStores)
{
    const auto spec = tinySpec();
    const Plan plan = buildPlan(spec);
    const auto path = ownTempPath("store_reject.jsonl");
    writeStore(path, spec, plan, 2);

    // A different spec hash means "this file is not your campaign".
    auto mismatch = loadStore(path, "0000000000000000", spec, plan);
    EXPECT_FALSE(mismatch.ok);
    EXPECT_NE(mismatch.error.find("hash"), std::string::npos);

    // A corrupt interior line is an error, not a silent prefix.
    std::string contents;
    {
        std::ifstream in(path, std::ios::binary);
        contents.assign(std::istreambuf_iterator<char>(in), {});
    }
    const auto firstBrace = contents.find("\n{");
    ASSERT_NE(firstBrace, std::string::npos);
    contents[firstBrace + 1] = '#';
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << contents;
    }
    auto corrupt = loadStore(path, specHash(spec), spec, plan);
    EXPECT_FALSE(corrupt.ok);
}

TEST(CampaignStore, MalformedShardPayloadIsRejected)
{
    // A partial store whose one shard record has its payload blanked:
    // that is corruption, not an empty shard, so neither loadStore nor
    // a resume may read it as a shard that simulated nothing.
    const auto spec = tinySpec();
    const Plan plan = buildPlan(spec);
    const auto path = ownTempPath("store_blank_payload.jsonl");
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".forensics.jsonl");
    writeStore(path, spec, plan, 1);

    std::string manifestLine, shardLine;
    {
        std::ifstream in(path, std::ios::binary);
        std::getline(in, manifestLine);
        std::getline(in, shardLine);
    }
    auto record = json::parse(shardLine);
    ASSERT_TRUE(record);
    auto payload = json::Value::object();
    payload.set("failByYear", json::Value::array());
    payload.set("failureTypes", json::Value::object());
    record->set("result", std::move(payload));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << manifestLine << '\n' << json::dump(*record) << '\n';
    }
    const auto blanked = std::filesystem::file_size(path);

    const auto loaded = loadStore(path, specHash(spec), spec, plan);
    EXPECT_FALSE(loaded.ok);
    EXPECT_NE(loaded.error.find("byte " +
                                std::to_string(manifestLine.size() + 1)),
              std::string::npos)
        << loaded.error;

    RunOptions options;
    options.outPath = path;
    options.resume = true;
    options.telemetrySidecar = false;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(spec, options);
    EXPECT_FALSE(outcome.ok);
    EXPECT_FALSE(outcome.complete);
    EXPECT_EQ(std::filesystem::file_size(path), blanked); // no summary
}
