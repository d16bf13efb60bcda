/**
 * @file
 * Campaign runner determinism: the sharded run must reproduce the
 * direct engine bit for bit, thread count must be invisible, and an
 * interrupted store resumed to completion must be byte-identical to
 * one written by an uninterrupted run.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "campaign/runner.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

CampaignSpec
reliabilitySpec()
{
    std::string error;
    auto doc = json::parse(R"({
        "name": "runner-test", "seed": 4242,
        "schemes": ["secded", "xed"],
        "systems": 600, "shardSystems": 100
    })",
                           &error);
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;
    return *spec;
}

CampaignSpec
detectionSpec()
{
    std::string error;
    auto doc = json::parse(R"({
        "name": "runner-det", "kind": "detection", "seed": 99,
        "codes": ["hamming7264"], "patterns": ["random", "burst"],
        "maxWeight": 4, "trials": 2000, "shardTrials": 500
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

RunOptions
inMemory(unsigned threads)
{
    RunOptions options;
    options.threads = threads;
    options.telemetrySidecar = false;
    return options;
}

void
removeIfPresent(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

} // namespace

TEST(CampaignRunner, MatchesDirectEngineRun)
{
    const auto spec = reliabilitySpec();
    const auto outcome = runCampaign(spec, inMemory(2));
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_TRUE(outcome.complete);
    ASSERT_EQ(outcome.cells.size(), 2u);

    for (unsigned cell = 0; cell < 2; ++cell) {
        const auto scheme =
            faultsim::makeScheme(spec.schemes[cell], spec.onDie);
        auto cfg = mcConfigFor(spec, 0);
        const auto direct = runMonteCarlo(*scheme, cfg);
        const auto &merged = outcome.cells[cell].result.mc;
        for (unsigned y = 1; y <= 7; ++y) {
            EXPECT_EQ(merged.failByYear[y].successes(),
                      direct.failByYear[y].successes());
            EXPECT_EQ(merged.failByYear[y].trials(),
                      direct.failByYear[y].trials());
        }
        EXPECT_EQ(merged.failureTypes.all(), direct.failureTypes.all());
    }
}

TEST(CampaignRunner, ThreadCountIsInvisible)
{
    const auto spec = reliabilitySpec();
    const auto one = runCampaign(spec, inMemory(1));
    const auto four = runCampaign(spec, inMemory(4));
    ASSERT_TRUE(one.ok && four.ok);
    ASSERT_EQ(one.cells.size(), four.cells.size());
    for (unsigned i = 0; i < one.cells.size(); ++i)
        EXPECT_EQ(one.cells[i].result.mc.failByYear[7].successes(),
                  four.cells[i].result.mc.failByYear[7].successes());
}

TEST(CampaignRunner, DetectionRunIsThreadInvariant)
{
    const auto spec = detectionSpec();
    const auto one = runCampaign(spec, inMemory(1));
    const auto four = runCampaign(spec, inMemory(4));
    ASSERT_TRUE(one.ok && four.ok);
    ASSERT_EQ(one.cells.size(), spec.cellCount());
    for (unsigned i = 0; i < one.cells.size(); ++i) {
        EXPECT_EQ(one.cells[i].result.trials, spec.trials);
        EXPECT_EQ(one.cells[i].result.detected,
                  four.cells[i].result.detected);
    }
    // Weight-1 errors are always detected by a distance-4 code.
    EXPECT_EQ(one.cells[0].result.detected, spec.trials);
}

TEST(CampaignRunner, ResumedStoreIsByteIdentical)
{
    const auto spec = reliabilitySpec();
    for (const unsigned threads : {1u, 4u}) {
        const auto tag = std::to_string(threads);
        const auto full =
            ::testing::TempDir() + "runner_full_" + tag + ".jsonl";
        const auto split =
            ::testing::TempDir() + "runner_split_" + tag + ".jsonl";
        removeIfPresent(full);
        removeIfPresent(split);

        auto options = inMemory(threads);
        options.outPath = full;
        const auto uninterrupted = runCampaign(spec, options);
        ASSERT_TRUE(uninterrupted.ok) << uninterrupted.error;
        ASSERT_TRUE(uninterrupted.complete);

        // Interrupt after 5 of 12 shards, then resume to completion.
        options.outPath = split;
        options.maxShards = 5;
        const auto interrupted = runCampaign(spec, options);
        ASSERT_TRUE(interrupted.ok) << interrupted.error;
        EXPECT_FALSE(interrupted.complete);
        EXPECT_EQ(interrupted.shardsRun, 5u);
        EXPECT_EQ(slurp(split).find("\"type\":\"summary\""),
                  std::string::npos);

        options.maxShards = 0;
        options.resume = true;
        const auto resumed = runCampaign(spec, options);
        ASSERT_TRUE(resumed.ok) << resumed.error;
        ASSERT_TRUE(resumed.complete);
        EXPECT_EQ(resumed.shardsReplayed, 5u);

        EXPECT_EQ(slurp(split), slurp(full))
            << "resumed store differs at " << threads << " thread(s)";
    }
}

TEST(CampaignRunner, ResumeOfCompleteStoreIsNoOp)
{
    const auto spec = reliabilitySpec();
    const auto path = ::testing::TempDir() + "runner_done.jsonl";
    removeIfPresent(path);

    auto options = inMemory(2);
    options.outPath = path;
    ASSERT_TRUE(runCampaign(spec, options).complete);
    const auto before = slurp(path);

    options.resume = true;
    const auto again = runCampaign(spec, options);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(again.shardsRun, 0u);
    EXPECT_EQ(slurp(path), before);

    // Without --resume, refusing to clobber an existing store is the
    // only safe behavior.
    options.resume = false;
    EXPECT_FALSE(runCampaign(spec, options).ok);
}
