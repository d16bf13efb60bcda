/**
 * @file
 * Campaign runner determinism: the sharded run must reproduce the
 * direct engine bit for bit, thread count must be invisible, and an
 * interrupted store resumed to completion must be byte-identical to
 * one written by an uninterrupted run.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <span>
#include <sstream>
#include <gtest/gtest.h>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/forensics.hh"
#include "campaign/runner.hh"
#include "obs/trace.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

CampaignSpec
parsed(const char *text)
{
    std::string error;
    auto doc = json::parse(text, &error);
    EXPECT_TRUE(doc) << error;
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;
    return *spec;
}

CampaignSpec
reliabilitySpec()
{
    return parsed(R"({
        "name": "runner-test", "seed": 4242,
        "schemes": ["secded", "xed"],
        "systems": 600, "shardSystems": 100
    })");
}

CampaignSpec
detectionSpec()
{
    return parsed(R"({
        "name": "runner-det", "kind": "detection", "seed": 99,
        "codes": ["hamming7264"], "patterns": ["random", "burst"],
        "maxWeight": 4, "trials": 2000, "shardTrials": 500
    })");
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

/** A store and its forensics and trace sidecars. */
void
removeStore(const std::string &path)
{
    for (const char *suffix : {"", ".forensics.jsonl", ".trace.json"})
        removeIfPresent(path + suffix);
}

/** The sidecar's per-shard lines, without its forensics-summary
 *  lines. */
std::vector<std::string>
forensicsShardLines(const std::string &storePath)
{
    std::ifstream in(forensicsPath(storePath), std::ios::binary);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (line.starts_with(R"({"type":"forensics",)"))
            lines.push_back(line);
    return lines;
}

/** Complete (newline-terminated) lines in the file at @p path. */
std::size_t
completeLines(const std::string &path)
{
    const std::string text = slurp(path);
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
}

/** Cap this process's file size at @p bytes for its lifetime, with
 *  SIGXFSZ ignored, so a write past the cap fails with EFBIG instead
 *  of killing the process. */
class FileSizeCap
{
  public:
    explicit FileSizeCap(rlim_t bytes)
    {
        EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &saved_), 0);
        EXPECT_GT(saved_.rlim_max, bytes);
        oldHandler_ = std::signal(SIGXFSZ, SIG_IGN);
        rlimit capped = saved_;
        capped.rlim_cur = bytes;
        EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
    }
    ~FileSizeCap()
    {
        setrlimit(RLIMIT_FSIZE, &saved_);
        std::signal(SIGXFSZ, oldHandler_);
    }
    FileSizeCap(const FileSizeCap &) = delete;
    FileSizeCap &operator=(const FileSizeCap &) = delete;

  private:
    rlimit saved_{};
    void (*oldHandler_)(int) = SIG_DFL;
};

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

/** 2 codes x 2 patterns x 3 weights, 10 shards per cell, the last of
 *  200 trials. */
CampaignSpec
groupedDetectionSpec()
{
    return parsed(R"({
        "name": "runner-det-groups", "kind": "detection", "seed": 7,
        "codes": ["hamming7264", "crc8atm"],
        "patterns": ["random", "burst"],
        "maxWeight": 3, "trials": 4700, "shardTrials": 500
    })");
}

TEST(CampaignRunner, DetectionGroupsMatchSingleShards)
{
    // A shard's result must not depend on the shards it runs beside:
    // every group of 1..8 consecutive shards of a cell, starting
    // anywhere in it, gives each shard what it gives alone.
    const auto spec = groupedDetectionSpec();
    const Plan plan = buildPlan(spec);
    ASSERT_EQ(plan.shardsPerCell, 10u);
    std::vector<ShardResult> alone;
    for (const ShardTask &task : plan.tasks)
        alone.push_back(runDetectionShard(spec, task, nullptr));
    for (std::uint64_t cellFirst = 0; cellFirst < plan.tasks.size();
         cellFirst += plan.shardsPerCell) {
        for (std::uint64_t first = cellFirst;
             first < cellFirst + plan.shardsPerCell; ++first) {
            const std::uint64_t most = std::min<std::uint64_t>(
                8, cellFirst + plan.shardsPerCell - first);
            for (std::uint64_t size = 1; size <= most; ++size) {
                std::vector<std::uint64_t> detected(size);
                runDetectionShards(
                    spec,
                    std::span(plan.tasks).subspan(first, size),
                    detected, nullptr);
                for (std::uint64_t k = 0; k < size; ++k) {
                    ASSERT_EQ(detected[k], alone[first + k].detected)
                        << "shard " << first + k << " in a group of "
                        << size << " from " << first;
                }
            }
        }
    }

    std::vector<std::uint64_t> detected(9);
    EXPECT_THROW(runDetectionShards(spec, std::span(plan.tasks).first(9),
                                    detected, nullptr),
                 std::invalid_argument);
    EXPECT_THROW(runDetectionShards(spec,
                                    std::span(plan.tasks).subspan(8, 4),
                                    std::span(detected).first(4), nullptr),
                 std::invalid_argument);
}

TEST(CampaignRunner, DetectionStoreCutInsideAGroupResumesByteIdentical)
{
    // 13 shards end inside the second lane group of cell 1; the resume
    // runs on another thread count and starts its groups there.
    const auto spec = groupedDetectionSpec();
    const auto full = ownTempPath("runner_det_full.jsonl");
    const auto split = ownTempPath("runner_det_split.jsonl");
    removeStore(full);
    removeStore(split);

    auto options = inMemory(1);
    options.outPath = full;
    ASSERT_TRUE(runCampaign(spec, options).complete);

    options = inMemory(2);
    options.outPath = split;
    options.maxShards = 13;
    const auto interrupted = runCampaign(spec, options);
    ASSERT_TRUE(interrupted.ok) << interrupted.error;
    EXPECT_EQ(interrupted.shardsRun, 13u);

    options = inMemory(3);
    options.outPath = split;
    options.resume = true;
    obs::TraceRecorder::instance().clear();
    obs::TraceRecorder::instance().setEnabled(true);
    const auto resumed = runCampaign(spec, options);
    obs::TraceRecorder::instance().setEnabled(false);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(slurp(split), slurp(full));

    // One detection-group span per group: 1..8 shards of one cell,
    // together covering each resumed shard once.
    const auto trace = json::parse(slurp(resumed.tracePath));
    obs::TraceRecorder::instance().clear();
    ASSERT_TRUE(trace && trace->find("traceEvents"));
    const Plan plan = buildPlan(spec);
    std::vector<unsigned> covered(plan.tasks.size(), 0);
    for (const json::Value &event : trace->find("traceEvents")->items()) {
        const json::Value *name = event.find("name");
        if (!name || name->asString() != "detection-group")
            continue;
        const json::Value *args = event.find("args");
        ASSERT_TRUE(args && args->find("index") && args->find("shards"));
        const std::uint64_t index = args->find("index")->asUint();
        const std::uint64_t shards = args->find("shards")->asUint();
        ASSERT_GE(shards, 1u);
        ASSERT_LE(shards, 8u);
        ASSERT_LE(index + shards, plan.tasks.size());
        EXPECT_EQ(index / plan.shardsPerCell,
                  (index + shards - 1) / plan.shardsPerCell);
        for (std::uint64_t i = index; i < index + shards; ++i)
            ++covered[i];
    }
    for (std::size_t i = 0; i < covered.size(); ++i)
        EXPECT_EQ(covered[i], i < 13 ? 0u : 1u) << "shard " << i;
    removeStore(full);
    removeStore(split);
}

TEST(CampaignRunner, ResumedStoreIsByteIdentical)
{
    const auto spec = reliabilitySpec();
    for (const unsigned threads : {1u, 4u}) {
        const auto tag = std::to_string(threads);
        const auto full = ownTempPath("runner_full_" + tag + ".jsonl");
        const auto split = ownTempPath("runner_split_" + tag + ".jsonl");
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
    const auto path = ownTempPath("runner_done.jsonl");
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

TEST(CampaignRunner, FailingStoreWritesAbortAndJoinWorkers)
{
    // 800 quick shards on 4 workers: the workers outrun the writer and
    // park on the reorder window. Capping the file size (with SIGXFSZ
    // ignored, so write() fails with EFBIG instead of killing the
    // process) makes a store write fail a few dozen records in; the
    // run must then return an error, which it can only do after
    // joining every worker, parked ones included.
    std::string error;
    auto doc = json::parse(R"({
        "name": "runner-efbig", "seed": 7,
        "schemes": ["secded", "xed"],
        "systems": 40000, "shardSystems": 100
    })",
                           &error);
    auto spec = parseSpec(*doc, &error);
    ASSERT_TRUE(spec) << error;
    const auto path = ownTempPath("runner_efbig.jsonl");
    removeIfPresent(path);
    auto options = inMemory(4);
    options.outPath = path;
    options.forensicsSidecar = false;
    options.durableStore = false;

    constexpr rlim_t fileLimit = 8192;
    rlimit saved{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
    ASSERT_GT(saved.rlim_max, fileLimit);
    const auto oldHandler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved;
    capped.rlim_cur = fileLimit;
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);

    std::packaged_task<RunOutcome()> run(
        [&] { return runCampaign(*spec, options); });
    auto done = run.get_future();
    std::thread runner(std::move(run));
    if (done.wait_for(std::chrono::seconds(120)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "runCampaign never returned: a worker parked "
                         "on the reorder window was not woken";
        std::_Exit(1); // the parked workers cannot be joined
    }
    runner.join();
    const RunOutcome outcome = done.get();
    setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, oldHandler);

    EXPECT_FALSE(outcome.ok);
    EXPECT_FALSE(outcome.complete);
    EXPECT_NE(outcome.error.find("write failed"), std::string::npos)
        << outcome.error;
    EXPECT_GT(outcome.shardsRun, 0u);
    EXPECT_LT(outcome.shardsRun, buildPlan(*spec).tasks.size() / 4);
    EXPECT_LE(std::filesystem::file_size(path), fileLimit);
    removeIfPresent(path);
}

TEST(CampaignRunner, KilledDurableRunResumesByteIdentical)
{
    // A durable run with forensics on, SIGKILLed by the parent once its
    // store holds at least k shard lines: a real kill, at whatever byte
    // of whichever batch commit the child has reached. The killed store
    // must be a plan prefix (plus at most one torn line) that the
    // sidecar covers, and resuming it must complete the uninterrupted
    // run's bytes.
    const auto spec = parsed(R"({
        "name": "runner-kill", "seed": 31337,
        "schemes": ["secded", "xed"],
        "systems": 1000000, "shardSystems": 1000
    })");
    const Plan plan = buildPlan(spec);
    const std::string hash = specHash(spec);
    constexpr std::uint64_t k = 16;

    const auto full = ownTempPath("runner_kill_full.jsonl");
    removeStore(full);
    auto options = inMemory(4);
    options.outPath = full;
    const auto uninterrupted = runCampaign(spec, options);
    ASSERT_TRUE(uninterrupted.ok) << uninterrupted.error;
    ASSERT_TRUE(uninterrupted.complete);

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        const auto path =
            ownTempPath("runner_kill_" + std::to_string(threads) + ".jsonl");
        removeStore(path);
        options = inMemory(threads);
        options.outPath = path;

        const pid_t child = fork();
        ASSERT_GE(child, 0);
        if (child == 0)
            std::_Exit(runCampaign(spec, options).ok ? 0 : 1);
        // The first line is the manifest; no summary comes before the
        // last shard.
        int status = 0;
        pid_t ended = 0;
        while (ended == 0 && (!std::filesystem::exists(path) ||
                              completeLines(path) < 1 + k)) {
            ended = waitpid(child, &status, WNOHANG);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ASSERT_EQ(ended, 0) << "the child ended before the store held "
                            << k << " shard lines";
        kill(child, SIGKILL);
        ASSERT_EQ(waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
            << "the child finished before the kill";

        const LoadedStore killed = loadStore(path, hash, spec, plan);
        ASSERT_TRUE(killed.ok) << killed.error;
        EXPECT_GE(killed.completedShards, k);
        EXPECT_FALSE(killed.hasSummary);
        const LoadedForensics sidecar =
            loadForensics(forensicsPath(path), plan, plan.tasks.size());
        ASSERT_TRUE(sidecar.ok) << sidecar.error;
        EXPECT_GE(sidecar.shardRecords, killed.completedShards);

        options.resume = true;
        const auto resumed = runCampaign(spec, options);
        ASSERT_TRUE(resumed.ok) << resumed.error;
        ASSERT_TRUE(resumed.complete);
        EXPECT_EQ(resumed.shardsReplayed, killed.completedShards);
        EXPECT_TRUE(resumed.forensicsWritten);
        EXPECT_EQ(slurp(path), slurp(full));
        // Shard lines only: resume drops the replayed shards' autopsy
        // exemplars from its forensics-summary records, a known defect
        // (ROADMAP.md, "Robustness at the input boundaries") whose fix
        // changes the benchmark's pinned sidecar digest.
        EXPECT_EQ(forensicsShardLines(path), forensicsShardLines(full));
        removeStore(path);
    }
    removeStore(full);
}

TEST(CampaignRunner, SidecarCoversStoreAfterFailedWriteMidBatch)
{
    // A durable run with forensics on whose sidecar write fails with
    // EFBIG partway through a batch commit. The store may take only
    // the shards whose sidecar line was committed, and the run counts
    // exactly the shards whose store line was; with the cap lifted,
    // resume completes the uninterrupted run's bytes.
    const auto spec = parsed(R"({
        "name": "runner-efbig-durable", "seed": 7,
        "schemes": ["secded", "xed"],
        "systems": 40000, "shardSystems": 100
    })");
    const Plan plan = buildPlan(spec);
    const auto full = ownTempPath("runner_cap_full.jsonl");
    const auto path = ownTempPath("runner_cap.jsonl");
    removeStore(full);
    removeStore(path);
    auto options = inMemory(4);
    options.outPath = full;
    ASSERT_TRUE(runCampaign(spec, options).complete);

    constexpr rlim_t fileLimit = 64 * 1024;
    options.outPath = path;
    RunOutcome capped;
    {
        const FileSizeCap cap(fileLimit);
        capped = runCampaign(spec, options);
    }
    EXPECT_FALSE(capped.ok);
    // Sidecar lines are several times longer than store lines, so the
    // sidecar reaches the cap first.
    EXPECT_NE(capped.error.find("write failed on " + forensicsPath(path)),
              std::string::npos)
        << capped.error;

    const LoadedStore store =
        loadStore(path, specHash(spec), spec, plan);
    ASSERT_TRUE(store.ok) << store.error;
    EXPECT_GT(store.completedShards, 0u);
    EXPECT_LT(store.completedShards, plan.tasks.size());
    EXPECT_EQ(capped.shardsRun, store.completedShards);
    const LoadedForensics sidecar =
        loadForensics(forensicsPath(path), plan, plan.tasks.size());
    ASSERT_TRUE(sidecar.ok) << sidecar.error;
    EXPECT_GE(sidecar.shardRecords, store.completedShards);

    options.resume = true;
    const auto resumed = runCampaign(spec, options);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.shardsReplayed, store.completedShards);
    EXPECT_EQ(slurp(path), slurp(full));
    EXPECT_EQ(forensicsShardLines(path), forensicsShardLines(full));
    removeStore(path);
    removeStore(full);
}

TEST(CampaignRunner, StoreWriteSpansCountEveryLine)
{
    // One store.write span per commit, its "records" argument the
    // number of lines the commit wrote: summed over a traced run they
    // count every line of the store and of the forensics sidecar.
    const auto spec = reliabilitySpec();
    const auto path = ownTempPath("runner_spans.jsonl");
    removeStore(path);
    auto &recorder = obs::TraceRecorder::instance();
    recorder.clear();
    auto options = inMemory(2);
    options.outPath = path;
    recorder.setEnabled(true);
    const auto outcome = runCampaign(spec, options);
    recorder.setEnabled(false);
    recorder.clear();
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_FALSE(outcome.tracePath.empty());

    const auto trace = json::parse(slurp(outcome.tracePath));
    ASSERT_TRUE(trace && trace->find("traceEvents"));
    std::uint64_t commits = 0, records = 0, encodes = 0, encoded = 0;
    for (const json::Value &event : trace->find("traceEvents")->items()) {
        const json::Value *name = event.find("name");
        const bool write = name && name->asString() == "store.write";
        if (!write && !(name && name->asString() == "shard.encode"))
            continue;
        const json::Value *args = event.find("args");
        ASSERT_TRUE(args && args->find("records"));
        const std::uint64_t n = args->find("records")->asUint();
        (write ? commits : encodes) += 1;
        (write ? records : encoded) += n;
    }
    const std::size_t lines =
        completeLines(path) + completeLines(forensicsPath(path));
    EXPECT_EQ(records, lines);
    EXPECT_GT(commits, 0u);
    EXPECT_LE(commits, lines);
    // One shard.encode span per shard, counting its store and sidecar
    // lines.
    const std::size_t shards = buildPlan(spec).tasks.size();
    EXPECT_EQ(encodes, shards);
    EXPECT_EQ(encoded, 2 * shards);
    removeStore(path);
}

TEST(CampaignRunner, ReportOfPartialStoreCountsOnlyItsShardsForensics)
{
    // A store cut back to k shard lines beside the sidecar of the whole
    // run (the sidecar may run a commit batch ahead of the store): the
    // report's forensics tables count the store's k shards, as a run
    // stopped after k shards reports them.
    const auto spec = reliabilitySpec();
    const std::uint64_t k = 5;
    const auto cut = ownTempPath("runner_report_cut.jsonl");
    const auto stopped = ownTempPath("runner_report_stopped.jsonl");
    removeStore(cut);
    removeStore(stopped);
    auto options = inMemory(2);
    options.outPath = cut;
    ASSERT_TRUE(runCampaign(spec, options).complete);
    options.outPath = stopped;
    options.maxShards = k;
    ASSERT_TRUE(runCampaign(spec, options).ok);

    std::vector<std::string> lines;
    {
        std::ifstream in(cut, std::ios::binary);
        for (std::string line; lines.size() < 1 + k &&
                               std::getline(in, line);)
            lines.push_back(line);
    }
    {
        std::ofstream out(cut, std::ios::binary | std::ios::trunc);
        for (const std::string &line : lines)
            out << line << '\n';
    }
    ASSERT_GT(completeLines(forensicsPath(cut)), k);

    std::ostringstream fromCut, fromStopped;
    std::string error;
    ASSERT_TRUE(printReport(cut, fromCut, &error)) << error;
    ASSERT_TRUE(printReport(stopped, fromStopped, &error)) << error;
    EXPECT_NE(fromCut.str().find("Failure forensics"), std::string::npos);
    EXPECT_EQ(fromCut.str(), fromStopped.str());
    removeStore(cut);
    removeStore(stopped);
}
