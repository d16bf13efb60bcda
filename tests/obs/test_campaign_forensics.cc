/**
 * @file
 * Tests for the campaign forensics sidecar (campaign/forensics.hh) and
 * the observability guarantees wired through it:
 *
 *  - kind-set names round-trip through every possible mask,
 *  - shard records written with forensicsShardRecord() load back via
 *    loadForensics() with exact per-cell attributions, exemplars and
 *    byte offsets, stopping at a requested prefix,
 *  - the loader tolerates torn tails / foreign lines and rejects
 *    out-of-order records,
 *  - ProgressReporter always terminates its telemetry stream: "done"
 *    when finished, "aborted" when unwound without finish(), and
 *  - enabling the trace recorder does not change engine results
 *    (tracing is RNG-neutral by construction; this pins it).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/forensics.hh"
#include "campaign/telemetry.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "faultsim/engine.hh"
#include "faultsim/scheme.hh"
#include "obs/forensics.hh"
#include "obs/trace.hh"
#include "tests/support/temp_path.hh"

namespace xed::campaign
{
namespace
{

TEST(KindsMask, NamesMatchFaultKindOrder)
{
    EXPECT_EQ(kindsMaskName(0), "none");
    EXPECT_EQ(kindsMaskName(0b1), "single-bit");
    EXPECT_EQ(kindsMaskName(0b1000), "single-row");
    EXPECT_EQ(kindsMaskName(0b1001), "single-bit+single-row");
    EXPECT_EQ(kindsMaskName(0b1100000), "multi-bank+multi-rank");
}

TEST(KindsMask, EveryMaskRoundTrips)
{
    for (unsigned mask = 0;
         mask < obs::FailureAttribution::maxKindMasks; ++mask) {
        const auto parsed = kindsMaskFromName(kindsMaskName(mask));
        ASSERT_TRUE(parsed.has_value()) << kindsMaskName(mask);
        EXPECT_EQ(*parsed, mask);
    }
}

TEST(KindsMask, UnknownNamesAreRejected)
{
    EXPECT_FALSE(kindsMaskFromName("bogus").has_value());
    EXPECT_FALSE(kindsMaskFromName("single-bit+bogus").has_value());
    EXPECT_FALSE(kindsMaskFromName("").has_value());
}

TEST(AttributionJson, ListsOnlyNonZeroEntries)
{
    obs::FailureAttribution attribution;
    attribution.record(obs::FailureClass::Sdc, 0b1,
                       obs::DetectionOutcome::Collision);
    attribution.record(obs::FailureClass::Sdc, 0b1,
                       obs::DetectionOutcome::Collision);
    attribution.record(obs::FailureClass::Due, 0b11,
                       obs::DetectionOutcome::DimmDetect);

    const auto doc = attributionJson(attribution);
    const json::Value *failures = doc.find("failures");
    ASSERT_NE(failures, nullptr);
    ASSERT_EQ(failures->size(), 2u);
    EXPECT_EQ(failures->find("sdc")->find("single-bit")->asUint(), 2u);
    EXPECT_EQ(failures->find("due")
                  ->find("single-bit+single-word")
                  ->asUint(),
              1u);
    const json::Value *outcomes = doc.find("outcomes");
    ASSERT_NE(outcomes, nullptr);
    ASSERT_EQ(outcomes->size(), 2u);
    EXPECT_EQ(outcomes->find("collision")->asUint(), 2u);
    EXPECT_EQ(outcomes->find("dimm-detect")->asUint(), 1u);
}

/** A small synthetic shard result with a known attribution. */
faultsim::McResult
syntheticResult(std::uint64_t firstSystem)
{
    faultsim::McResult mc;
    mc.attribution.record(obs::FailureClass::Due, 0b1001,
                          obs::DetectionOutcome::DimmDetect);
    mc.attribution.record(obs::FailureClass::Sdc, 0b1,
                          obs::DetectionOutcome::None);
    faultsim::AutopsyRecord autopsy;
    autopsy.system = firstSystem;
    autopsy.timeHours = 1234.5;
    autopsy.type = "due-double-bit";
    autopsy.kindsMask = 0b1001;
    autopsy.cls = obs::FailureClass::Due;
    autopsy.outcome = obs::DetectionOutcome::DimmDetect;
    mc.autopsy.push_back(autopsy);
    return mc;
}

/** Shard @p index of a synthetic plan: one point, two cells taking
 *  turns, 1000 systems per shard. */
ShardTask
syntheticTask(std::uint64_t index)
{
    ShardTask task;
    task.index = index;
    task.point = 0;
    task.cell = static_cast<unsigned>(index % 2);
    task.begin = index * 1000;
    task.end = (index + 1) * 1000;
    return task;
}

Plan
syntheticPlan(std::uint64_t shards)
{
    Plan plan;
    plan.points = 1;
    plan.cells = 2;
    for (std::uint64_t i = 0; i < shards; ++i)
        plan.tasks.push_back(syntheticTask(i));
    return plan;
}

std::string
shardLine(std::uint64_t index)
{
    const ShardTask task = syntheticTask(index);
    return json::dump(
        forensicsShardRecord(task, syntheticResult(task.begin)));
}

TEST(ForensicsSidecar, ShardRecordsRoundTripThroughLoad)
{
    const std::string line0 = shardLine(0);
    const std::string line1 = shardLine(1);
    const std::string path = ownTempPath("xed_test_forensics_rt.jsonl");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << line0 << '\n' << line1 << '\n';
    }
    const Plan plan = syntheticPlan(4);

    // A prefix bound stops at exactly that many records.
    const LoadedForensics first = loadForensics(path, plan, 1);
    EXPECT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.shardRecords, 1u);
    EXPECT_EQ(first.validBytes, static_cast<long long>(line0.size() + 1));

    const LoadedForensics loaded = loadForensics(path, plan, 4);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.shardRecords, 2u);
    EXPECT_EQ(loaded.validBytes,
              static_cast<long long>(line0.size() + line1.size() + 2));

    // One shard per cell: each cell holds exactly its shard's record.
    ASSERT_EQ(loaded.cells.size(), 2u);
    const auto expected = syntheticResult(0).attribution;
    for (const auto &cell : loaded.cells) {
        EXPECT_EQ(cell.attribution.byClassKinds, expected.byClassKinds);
        EXPECT_EQ(cell.attribution.byOutcome, expected.byOutcome);
        ASSERT_EQ(cell.autopsy.size(), 1u);
    }
    EXPECT_EQ(loaded.cells[1].autopsy[0].system, 1000u);
    EXPECT_STREQ(loaded.cells[1].autopsy[0].type, "due-double-bit");
    std::remove(path.c_str());
}

TEST(ForensicsSidecar, SummariesAndTornTailDoNotExtendThePrefix)
{
    const std::string line0 = shardLine(0);
    const std::string summary = json::dump(forensicsSummaryRecord(
        0, 0, "secded", syntheticResult(0)));
    const std::string path = ownTempPath("xed_test_forensics_torn.jsonl");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        // A completed run's summary plus a torn half-written record.
        out << line0 << '\n'
            << summary << '\n'
            << shardLine(1).substr(0, 17);
    }

    const LoadedForensics loaded = loadForensics(path, syntheticPlan(2), 2);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.shardRecords, 1u);
    EXPECT_EQ(loaded.validBytes,
              static_cast<long long>(line0.size() + 1));
    std::remove(path.c_str());
}

TEST(ForensicsSidecar, ForeignLineEndsThePrefixQuietly)
{
    const std::string path =
        ownTempPath("xed_test_forensics_foreign.jsonl");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << shardLine(0) << '\n'
            << "not json at all\n"
            << shardLine(1) << '\n';
    }
    const LoadedForensics loaded = loadForensics(path, syntheticPlan(2), 2);
    EXPECT_TRUE(loaded.ok);
    EXPECT_EQ(loaded.shardRecords, 1u);
    std::remove(path.c_str());
}

TEST(ForensicsSidecar, OutOfOrderRecordsAreRejected)
{
    const std::string path =
        ownTempPath("xed_test_forensics_order.jsonl");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << shardLine(0) << '\n' << shardLine(2) << '\n';
    }
    const LoadedForensics loaded = loadForensics(path, syntheticPlan(3), 3);
    EXPECT_FALSE(loaded.ok);
    EXPECT_FALSE(loaded.error.empty());
    std::remove(path.c_str());
}

TEST(ForensicsSidecar, MissingFileIsAnError)
{
    const LoadedForensics loaded = loadForensics(
        ownTempPath("xed_test_forensics_missing.jsonl"), syntheticPlan(1), 1);
    EXPECT_FALSE(loaded.ok);
    EXPECT_FALSE(loaded.error.empty());
}

TEST(ForensicsSidecar, PathIsDerivedFromTheStorePath)
{
    EXPECT_EQ(forensicsPath("results/fig07.jsonl"),
              "results/fig07.jsonl.forensics.jsonl");
}

/** Parse every line of a telemetry sidecar. */
std::vector<json::Value>
telemetryLines(const std::string &path)
{
    std::vector<json::Value> records;
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
        std::string error;
        auto record = json::parse(line, &error);
        EXPECT_TRUE(record.has_value()) << error << ": " << line;
        if (record)
            records.push_back(std::move(*record));
    }
    return records;
}

TEST(ProgressReporter, UnwindWithoutFinishEmitsAborted)
{
    const std::string path =
        ownTempPath("xed_test_telemetry_aborted.jsonl");
    std::remove(path.c_str());
    RunCounters counters;
    faultsim::McProgress progress;
    {
        ProgressReporter::Setup setup;
        setup.intervalSeconds = 0; // no sampler thread
        setup.sidecarPath = path;
        ProgressReporter reporter(setup, counters, progress);
        reporter.start(runMetadata("probe", "hash", 1, 0));
        // Destroyed without finish(): a worker exception unwound.
    }
    const auto records = telemetryLines(path);
    ASSERT_GE(records.size(), 2u);
    EXPECT_EQ(records.front().find("type")->asString(), "run");
    const auto &last = records.back();
    EXPECT_EQ(last.find("type")->asString(), "aborted");
    EXPECT_FALSE(last.find("complete")->asBool());
    EXPECT_GE(last.find("wallSeconds")->asDouble(), 0.0);
    std::remove(path.c_str());
}

TEST(ProgressReporter, FinishSuppressesTheAbortedRecord)
{
    const std::string path = ownTempPath("xed_test_telemetry_done.jsonl");
    std::remove(path.c_str());
    RunCounters counters;
    faultsim::McProgress progress;
    {
        ProgressReporter::Setup setup;
        setup.intervalSeconds = 0;
        setup.sidecarPath = path;
        ProgressReporter reporter(setup, counters, progress);
        reporter.start(runMetadata("probe", "hash", 1, 0));
        reporter.finish(true);
    }
    const auto records = telemetryLines(path);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records.front().find("type")->asString(), "run");
    const auto &last = records.back();
    EXPECT_EQ(last.find("type")->asString(), "done");
    EXPECT_TRUE(last.find("complete")->asBool());
    // The run manifest carries the build provenance record.
    const json::Value *build = records.front().find("build");
    ASSERT_NE(build, nullptr);
    EXPECT_NE(build->find("git"), nullptr);
    EXPECT_NE(build->find("compiler"), nullptr);
    std::remove(path.c_str());
}

TEST(ProgressReporter, EtaOmittedWithoutLiveRate)
{
    RunCounters counters;
    faultsim::McProgress progress;
    counters.unitsTotal = 1000;
    ProgressReporter::Setup setup;
    setup.intervalSeconds = 0;
    ProgressReporter reporter(setup, counters, progress);

    // No live-simulated units yet: a 0.0 ETA would read as "done
    // now", so the key must be absent entirely.
    const auto idle = reporter.sample();
    EXPECT_EQ(idle.find("etaSeconds"), nullptr);
    EXPECT_EQ(idle.find("unitsPerSec")->asDouble(), 0.0);

    progress.systemsDone.store(500);
    const auto live = reporter.sample();
    const json::Value *eta = live.find("etaSeconds");
    ASSERT_NE(eta, nullptr);
    EXPECT_GT(eta->asDouble(), 0.0);
    EXPECT_GT(live.find("unitsPerSec")->asDouble(), 0.0);
}

TEST(ProgressReporter, EtaOmittedWhenAllUnitsWereReplayed)
{
    RunCounters counters;
    faultsim::McProgress progress;
    counters.unitsTotal = 1000;
    counters.unitsReplayed = 400;
    progress.systemsDone.store(400);
    ProgressReporter::Setup setup;
    setup.intervalSeconds = 0;
    ProgressReporter reporter(setup, counters, progress);

    // Replayed shards were read from disk, not simulated; they carry
    // no rate information, so there is still no estimate.
    const auto record = reporter.sample();
    EXPECT_EQ(record.find("etaSeconds"), nullptr);
}

TEST(ProgressReporter, SampleKeysAndFailuresInLabelOrder)
{
    // Cells are counted by index and reported by label: in label
    // order, with cells that share a label added up.
    RunCounters counters({"xed", "chipkill", "secded", "chipkill"});
    counters.failures[0].add(5);
    counters.failures[1].add(2);
    counters.failures[3].add(3);
    counters.shardsTotal = 8;
    counters.shardsDone.add(4);
    counters.shardSeconds.update(0.5);
    faultsim::McProgress progress;
    ProgressReporter::Setup setup;
    setup.intervalSeconds = 0;
    ProgressReporter reporter(setup, counters, progress);

    const auto record = reporter.sample();
    std::vector<std::string> keys;
    for (const auto &[key, value] : record.members())
        keys.push_back(key);
    const std::vector<std::string> expected = {
        "type", "elapsedSeconds", "shardsDone", "shardsTotal",
        "unitsDone", "unitsTotal", "unitsPerSec", "failedSystems",
        "shardSeconds", "shardUnitsPerSec", "hist", "failures"};
    EXPECT_EQ(keys, expected);
    EXPECT_EQ(record.find("shardsDone")->asUint(), 4u);
    EXPECT_EQ(record.find("shardsTotal")->asUint(), 8u);
    EXPECT_EQ(record.find("hist")->find("shardSeconds")->size(), 1u);

    std::vector<std::pair<std::string, std::uint64_t>> failures;
    for (const auto &[label, count] : record.find("failures")->members())
        failures.emplace_back(label, count.asUint());
    const std::vector<std::pair<std::string, std::uint64_t>> byLabel = {
        {"chipkill", 5}, {"secded", 0}, {"xed", 5}};
    EXPECT_EQ(failures, byLabel);
}

} // namespace
} // namespace xed::campaign

namespace xed::faultsim
{
namespace
{

/** Field-by-field equality of two shard results. */
void
expectSameResult(const McResult &a, const McResult &b)
{
    for (unsigned y = 0; y < a.failByYear.size(); ++y) {
        EXPECT_EQ(a.failByYear[y].trials(), b.failByYear[y].trials());
        EXPECT_EQ(a.failByYear[y].successes(),
                  b.failByYear[y].successes());
    }
    EXPECT_EQ(a.failureTypes.all(), b.failureTypes.all());
    EXPECT_EQ(a.attribution.byClassKinds, b.attribution.byClassKinds);
    EXPECT_EQ(a.attribution.byOutcome, b.attribution.byOutcome);
    ASSERT_EQ(a.autopsy.size(), b.autopsy.size());
    for (std::size_t i = 0; i < a.autopsy.size(); ++i) {
        EXPECT_EQ(a.autopsy[i].system, b.autopsy[i].system);
        EXPECT_EQ(a.autopsy[i].timeHours, b.autopsy[i].timeHours);
        EXPECT_STREQ(a.autopsy[i].type, b.autopsy[i].type);
    }
}

TEST(TraceNeutrality, EnablingTheRecorderDoesNotChangeResults)
{
    // The observability contract: tracing never draws from any Rng
    // and never reorders work, so an instrumented run is bit-identical
    // to an uninstrumented one.
    McConfig cfg;
    cfg.seed = 61799;
    const auto scheme = makeScheme(SchemeKind::Secded, OnDieOptions{});

    auto &recorder = obs::TraceRecorder::instance();
    recorder.setEnabled(false);
    const McResult plain = runMonteCarloShard(*scheme, cfg, 0, 3000);

    recorder.setEnabled(true);
    const McResult traced = runMonteCarloShard(*scheme, cfg, 0, 3000);
    recorder.setEnabled(false);
    recorder.clear();

    EXPECT_GT(plain.failByYear[7].trials(), 0u);
    expectSameResult(plain, traced);
}

} // namespace
} // namespace xed::faultsim
