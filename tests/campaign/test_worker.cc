/**
 * @file
 * Distributed execution end to end (campaign/worker.hh): N symmetric
 * workers drain a shared queue and the merge must produce a result
 * store -- and forensics sidecar -- byte-identical to what one
 * uninterrupted single-process run writes. Also pins the failure
 * modes: partial workers, dead workers' leases being re-claimed,
 * missing fragments, and forensics-mode disagreement.
 */

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "campaign/forensics.hh"
#include "campaign/queue.hh"
#include "campaign/runner.hh"
#include "campaign/worker.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

namespace fs = std::filesystem;

CampaignSpec
reliabilitySpec()
{
    std::string error;
    auto doc = json::parse(R"({
        "name": "worker-test", "seed": 4242,
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
        "name": "worker-det", "kind": "detection", "seed": 99,
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

/** Fresh scratch directory holding the queue and both stores. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ownTempPath("xed_worker_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The single-process reference store for byte comparison. */
std::string
referenceStore(const CampaignSpec &spec, const std::string &dir)
{
    RunOptions options;
    options.outPath = dir + "/single.jsonl";
    options.threads = 2;
    options.telemetrySidecar = false;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(spec, options);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_TRUE(outcome.complete);
    return options.outPath;
}

WorkerOptions
workerOptions(const std::string &dir, const std::string &id)
{
    WorkerOptions options;
    options.queueDir = dir + "/queue";
    options.workerId = id;
    options.pollSeconds = 0.01;
    options.telemetrySidecar = false;
    options.durable = false;
    return options;
}

MergeOptions
mergeOptions(const std::string &dir)
{
    MergeOptions options;
    options.queueDir = dir + "/queue";
    options.outPath = dir + "/merged.jsonl";
    options.durable = false;
    return options;
}

} // namespace

TEST(CampaignWorker, OneWorkerMergesByteIdentically)
{
    const auto spec = reliabilitySpec();
    const std::string dir = freshDir("one");
    const std::string reference = referenceStore(spec, dir);

    const WorkerOutcome worker =
        runWorker(spec, workerOptions(dir, "w1"));
    ASSERT_TRUE(worker.ok) << worker.error;
    EXPECT_TRUE(worker.queueDrained);
    EXPECT_EQ(worker.shardsRun, buildPlan(spec).tasks.size());

    const MergeOutcome merged = mergeFragments(spec, mergeOptions(dir));
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(merged.shardsMerged, worker.shardsRun);
    EXPECT_TRUE(merged.forensicsWritten);

    EXPECT_EQ(slurp(dir + "/merged.jsonl"), slurp(reference));
    EXPECT_EQ(slurp(forensicsPath(dir + "/merged.jsonl")),
              slurp(forensicsPath(reference)));
    fs::remove_all(dir);
}

TEST(CampaignWorker, FourConcurrentWorkersMergeByteIdentically)
{
    const auto spec = reliabilitySpec();
    const std::string dir = freshDir("four");
    const std::string reference = referenceStore(spec, dir);

    std::vector<WorkerOutcome> outcomes(4);
    std::vector<std::thread> fleet;
    for (int w = 0; w < 4; ++w)
        fleet.emplace_back([&, w] {
            outcomes[w] = runWorker(
                spec, workerOptions(dir, "w" + std::to_string(w)));
        });
    for (auto &t : fleet)
        t.join();

    std::uint64_t total = 0;
    for (const auto &outcome : outcomes) {
        ASSERT_TRUE(outcome.ok) << outcome.error;
        EXPECT_TRUE(outcome.queueDrained);
        total += outcome.shardsRun;
    }
    EXPECT_GE(total, buildPlan(spec).tasks.size());

    const MergeOutcome merged = mergeFragments(spec, mergeOptions(dir));
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(slurp(dir + "/merged.jsonl"), slurp(reference));
    EXPECT_EQ(slurp(forensicsPath(dir + "/merged.jsonl")),
              slurp(forensicsPath(reference)));
    fs::remove_all(dir);
}

TEST(CampaignWorker, PartialWorkerIsFinishedByAnother)
{
    const auto spec = reliabilitySpec();
    const std::string dir = freshDir("partial");
    const std::string reference = referenceStore(spec, dir);

    auto limited = workerOptions(dir, "quitter");
    limited.maxShards = 2;
    const WorkerOutcome first = runWorker(spec, limited);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.shardsRun, 2u);
    EXPECT_FALSE(first.queueDrained);

    // The merge must fail fast while fragments are missing.
    const MergeOutcome early = mergeFragments(spec, mergeOptions(dir));
    EXPECT_FALSE(early.ok);
    EXPECT_NE(early.error.find("no committed fragment"),
              std::string::npos)
        << early.error;

    const WorkerOutcome second =
        runWorker(spec, workerOptions(dir, "finisher"));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.queueDrained);
    EXPECT_EQ(first.shardsRun + second.shardsRun,
              buildPlan(spec).tasks.size());

    const MergeOutcome merged = mergeFragments(spec, mergeOptions(dir));
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(slurp(dir + "/merged.jsonl"), slurp(reference));
    fs::remove_all(dir);
}

TEST(CampaignWorker, DeadWorkersShardIsReclaimed)
{
    const auto spec = reliabilitySpec();
    const Plan plan = buildPlan(spec);
    const std::string dir = freshDir("reclaim");
    const std::string reference = referenceStore(spec, dir);

    // A "crashed" worker left an expired lease on shard 0: claimed,
    // never renewed, never committed.
    ShardQueue ghost;
    QueueOptions ghostOptions;
    ghostOptions.dir = dir + "/queue";
    ghostOptions.workerId = "ghost";
    ghostOptions.durable = false;
    std::string error;
    ASSERT_TRUE(ghost.open(spec, plan, ghostOptions, &error)) << error;
    ASSERT_EQ(ghost.tryClaim(0, &error), ShardQueue::Claim::Acquired);
    const auto mtime = fs::last_write_time(ghost.leasePath(0));
    fs::last_write_time(
        ghost.leasePath(0),
        mtime - std::chrono::duration_cast<fs::file_time_type::duration>(
                    std::chrono::duration<double>(300.0)));

    // A live worker must break the stale lease, run shard 0 itself,
    // and still drain the whole queue.
    const WorkerOutcome worker =
        runWorker(spec, workerOptions(dir, "live"));
    ASSERT_TRUE(worker.ok) << worker.error;
    EXPECT_TRUE(worker.queueDrained);
    EXPECT_EQ(worker.shardsRun, plan.tasks.size());

    const MergeOutcome merged = mergeFragments(spec, mergeOptions(dir));
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(slurp(dir + "/merged.jsonl"), slurp(reference));
    EXPECT_EQ(slurp(forensicsPath(dir + "/merged.jsonl")),
              slurp(forensicsPath(reference)));
    fs::remove_all(dir);
}

TEST(CampaignWorker, DetectionCampaignMergesByteIdentically)
{
    const auto spec = detectionSpec();
    const std::string dir = freshDir("detection");
    const std::string reference = referenceStore(spec, dir);

    std::vector<WorkerOutcome> outcomes(2);
    std::vector<std::thread> fleet;
    for (int w = 0; w < 2; ++w)
        fleet.emplace_back([&, w] {
            outcomes[w] = runWorker(
                spec, workerOptions(dir, "d" + std::to_string(w)));
        });
    for (auto &t : fleet)
        t.join();
    for (const auto &outcome : outcomes)
        ASSERT_TRUE(outcome.ok) << outcome.error;

    const MergeOutcome merged = mergeFragments(spec, mergeOptions(dir));
    ASSERT_TRUE(merged.ok) << merged.error;
    // Detection campaigns have no forensics sidecar at all.
    EXPECT_FALSE(merged.forensicsWritten);
    EXPECT_FALSE(
        fs::exists(forensicsPath(dir + "/merged.jsonl")));
    EXPECT_EQ(slurp(dir + "/merged.jsonl"), slurp(reference));
    fs::remove_all(dir);
}

TEST(CampaignWorker, MergeRefusesToOverwriteAnExistingStore)
{
    const auto spec = reliabilitySpec();
    const std::string dir = freshDir("overwrite");

    const WorkerOutcome worker =
        runWorker(spec, workerOptions(dir, "w1"));
    ASSERT_TRUE(worker.ok) << worker.error;

    auto options = mergeOptions(dir);
    const MergeOutcome merged = mergeFragments(spec, options);
    ASSERT_TRUE(merged.ok) << merged.error;

    const MergeOutcome again = mergeFragments(spec, options);
    EXPECT_FALSE(again.ok);
    EXPECT_NE(again.error.find("already exists"), std::string::npos)
        << again.error;
    fs::remove_all(dir);
}

TEST(CampaignWorker, ForensicsModeMustMatchTheQueues)
{
    const auto spec = reliabilitySpec();
    const std::string dir = freshDir("forensics_clash");

    auto noForensics = workerOptions(dir, "creator");
    noForensics.forensics = false;
    noForensics.maxShards = 1;
    const WorkerOutcome creator = runWorker(spec, noForensics);
    ASSERT_TRUE(creator.ok) << creator.error;

    // A second worker with forensics on would write two-line fragments
    // into a one-line queue; it must refuse up front.
    const WorkerOutcome clash =
        runWorker(spec, workerOptions(dir, "joiner"));
    EXPECT_FALSE(clash.ok);
    EXPECT_NE(clash.error.find("must agree"), std::string::npos)
        << clash.error;
    fs::remove_all(dir);
}

TEST(CampaignWorker, MergedSummariesMatchTheSingleProcessRun)
{
    const auto spec = reliabilitySpec();
    const std::string dir = freshDir("summaries");

    RunOptions inMemory;
    inMemory.threads = 2;
    inMemory.telemetrySidecar = false;
    const RunOutcome direct = runCampaign(spec, inMemory);
    ASSERT_TRUE(direct.ok) << direct.error;

    const WorkerOutcome worker =
        runWorker(spec, workerOptions(dir, "w1"));
    ASSERT_TRUE(worker.ok) << worker.error;
    const MergeOutcome merged = mergeFragments(spec, mergeOptions(dir));
    ASSERT_TRUE(merged.ok) << merged.error;

    ASSERT_EQ(merged.cells.size(), direct.cells.size());
    for (std::size_t i = 0; i < merged.cells.size(); ++i) {
        const auto &ours = merged.cells[i].result.mc;
        const auto &theirs = direct.cells[i].result.mc;
        for (unsigned y = 1; y <= 7; ++y) {
            EXPECT_EQ(ours.failByYear[y].successes(),
                      theirs.failByYear[y].successes());
            EXPECT_EQ(ours.failByYear[y].trials(),
                      theirs.failByYear[y].trials());
        }
        EXPECT_EQ(ours.failureTypes.all(), theirs.failureTypes.all());
    }
    fs::remove_all(dir);
}
