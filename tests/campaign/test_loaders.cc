/**
 * @file
 * The block loaders against the serial reference. loadStore() and
 * loadForensics() decode blocks of lines concurrently and fold them in
 * file order (campaign/line_blocks.hh); they must return every field
 * the serial loaders in tests/support/campaign_reference return --
 * errors, validBytes, counts, per-cell results and the order of the
 * autopsy exemplars -- on stores and sidecars of three and more blocks,
 * clean and damaged just before, at and just after a block boundary,
 * at 1, 2 and 4 decoding threads.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/forensics.hh"
#include "campaign/line_blocks.hh"
#include "campaign/runner.hh"
#include "campaign/store.hh"
#include "obs/trace.hh"
#include "tests/support/campaign_reference.hh"
#include "tests/support/scoped_threads_env.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

/** Line `boundary` starts a block at every tested thread count: after
 *  a first block of 64 lines, blocks are 64, 128 and 256 lines at 1, 2
 *  and 4 threads. */
const std::uint64_t boundary = linesPerThreadBlock + lineBlockSize(4);

/** The damage positions: the last line of a block, the first line of
 *  the next, and the one after it. */
const std::uint64_t aroundBoundary[] = {boundary - 1, boundary,
                                        boundary + 1};

/** Decoding thread counts, set through XED_MC_THREADS. */
constexpr const char *threadCounts[] = {"1", "2", "4"};

/** A written campaign: its plan, store and sidecar, and their lines. */
struct Campaign
{
    CampaignSpec spec;
    Plan plan;
    std::string hash;
    std::string store;
    std::vector<std::string> storeLines;
    std::vector<std::string> sidecarLines;
};

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Write @p lines, each newline-terminated, then @p tail without one. */
void
writeLines(const std::string &path, const std::vector<std::string> &lines,
           const std::string &tail = "")
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string &line : lines)
        out << line << '\n';
    out << tail;
}

/**
 * Run @p schemes schemes of @p shardsPerScheme 10-system shards to
 * completion, forensics on. The FIT rates are high enough that nearly
 * every SECDED shard (the last scheme) carries autopsy exemplars, so
 * the per-cell merges keep re-sorting and cutting them.
 */
Campaign
writeCampaign(const std::string &name, unsigned schemes,
              std::uint64_t shardsPerScheme)
{
    std::ostringstream text;
    text << R"({"name": ")" << name << R"(", "seed": 5, "schemes": )"
         << (schemes == 1 ? R"(["secded"])" : R"(["xed", "secded"])")
         << R"(, "systems": )" << shardsPerScheme * 10
         << R"(, "shardSystems": 10, "fitOverrides": {
               "single-bit": {"transient": 0, "permanent": 20000},
               "single-row": {"transient": 0, "permanent": 2000}}})";
    std::string error;
    const auto doc = json::parse(text.str(), &error);
    EXPECT_TRUE(doc) << error;
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;

    Campaign campaign{*spec, buildPlan(*spec), specHash(*spec),
                      ownTempPath(name + ".jsonl"), {}, {}};
    std::filesystem::remove(campaign.store);
    RunOptions options;
    options.outPath = campaign.store;
    options.threads = 4;
    options.telemetrySidecar = false;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(campaign.spec, options);
    EXPECT_TRUE(outcome.complete) << outcome.error;
    campaign.storeLines = readLines(campaign.store);
    campaign.sidecarLines = readLines(forensicsPath(campaign.store));
    return campaign;
}

void
removeCampaign(const Campaign &campaign)
{
    std::filesystem::remove(campaign.store);
    std::filesystem::remove(forensicsPath(campaign.store));
}

/** Every field of a merged result, doubles as exact hex floats. */
std::string
fingerprint(const faultsim::McResult &mc)
{
    std::ostringstream out;
    for (const auto &year : mc.failByYear)
        out << year.successes() << '/' << year.trials() << ' ';
    for (const auto &[name, count] : mc.failureTypes.all())
        out << name << '=' << count << ' ';
    for (unsigned c = 0; c < obs::numFailureClasses; ++c)
        for (unsigned m = 0; m < obs::FailureAttribution::maxKindMasks; ++m)
            if (const auto count = mc.attribution.byClassKinds[c][m])
                out << 'k' << c << '.' << m << '=' << count << ' ';
    for (unsigned o = 0; o < obs::numDetectionOutcomes; ++o)
        out << 'o' << mc.attribution.byOutcome[o] << ' ';
    for (const auto &rec : mc.autopsy) {
        char hours[64];
        std::snprintf(hours, sizeof hours, "%a", rec.timeHours);
        out << "\n  #" << rec.system << ' ' << hours << ' ' << rec.type
            << ' ' << unsigned{rec.kindsMask} << ' '
            << static_cast<unsigned>(rec.cls) << ' '
            << static_cast<unsigned>(rec.outcome);
    }
    return out.str();
}

std::string
fingerprint(const ShardResult &result)
{
    std::ostringstream out;
    out << fingerprint(result.mc) << "\n  detected " << result.detected
        << " of " << result.trials;
    for (const auto &series : result.fleet.cohorts) {
        out << "\n  cohort";
        for (const auto *field :
             {&series.installs, &series.removals, &series.due, &series.sdc,
              &series.replacements, &series.retirements})
            for (const std::uint64_t v : *field)
                out << ' ' << v;
    }
    return out.str();
}

std::string
fingerprint(const LoadedStore &loaded)
{
    std::ostringstream out;
    out << "ok " << loaded.ok << " error \"" << loaded.error
        << "\" shards " << loaded.completedShards << " units "
        << loaded.completedUnits << " summary " << loaded.hasSummary
        << " validBytes " << loaded.validBytes;
    for (const ShardResult &cell : loaded.cells)
        out << "\ncell " << fingerprint(cell);
    return out.str();
}

std::string
fingerprint(const LoadedForensics &loaded)
{
    std::ostringstream out;
    out << "ok " << loaded.ok << " error \"" << loaded.error
        << "\" records " << loaded.shardRecords << " validBytes "
        << loaded.validBytes;
    for (const faultsim::McResult &cell : loaded.cells)
        out << "\ncell " << fingerprint(cell);
    return out.str();
}

/** loadStore() at every thread count equals the serial reference;
 *  returns the reference's result. */
LoadedStore
expectStoreMatchesReference(const Campaign &campaign,
                            const std::string &what)
{
    SCOPED_TRACE(what);
    const LoadedStore expected = reference::loadStore(
        campaign.store, campaign.hash, campaign.spec, campaign.plan);
    for (const char *threads : threadCounts) {
        SCOPED_TRACE(std::string("XED_MC_THREADS=") + threads);
        const ScopedThreadsEnv env(threads);
        EXPECT_EQ(fingerprint(loadStore(campaign.store, campaign.hash,
                                        campaign.spec, campaign.plan)),
                  fingerprint(expected));
    }
    return expected;
}

/** loadForensics() at every thread count equals the serial reference;
 *  returns the reference's result. */
LoadedForensics
expectSidecarMatchesReference(const Campaign &campaign,
                              std::uint64_t maxShards,
                              const std::string &what)
{
    SCOPED_TRACE(what + ", maxShards " + std::to_string(maxShards));
    const std::string path = forensicsPath(campaign.store);
    const LoadedForensics expected =
        reference::loadForensics(path, campaign.plan, maxShards);
    for (const char *threads : threadCounts) {
        SCOPED_TRACE(std::string("XED_MC_THREADS=") + threads);
        const ScopedThreadsEnv env(threads);
        EXPECT_EQ(fingerprint(loadForensics(path, campaign.plan, maxShards)),
                  fingerprint(expected));
    }
    return expected;
}

/** @p line with its first @p from replaced by @p to. */
std::string
replaced(std::string line, const std::string &from, const std::string &to)
{
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        line.replace(at, from.size(), to);
    return line;
}

/** @p line re-dumped with member @p key set to @p value. */
std::string
withMember(const std::string &line, const char *key, json::Value value)
{
    auto record = json::parse(line);
    EXPECT_TRUE(record);
    record->set(key, std::move(value));
    return json::dump(*record);
}

/** 2 schemes x 300 shards: 600 shard lines, four blocks at 4 threads
 *  (64, 256, 256 and 24 lines) and ten at 1; the damage positions fall
 *  in the SECDED half. */
Campaign
multiBlockCampaign(const char *name)
{
    const Campaign campaign = writeCampaign(name, 2, 300);
    EXPECT_EQ(campaign.plan.tasks.size(), 600u);
    EXPECT_GT(campaign.plan.tasks.size(), boundary + lineBlockSize(4));
    return campaign;
}

/** A store damage: the store's lines (manifest first, so shard record
 *  n is line n + 1) and the torn tail to write instead. */
using Damage = std::function<void(std::vector<std::string> &lines,
                                  std::string &tail, std::uint64_t n)>;

} // namespace

TEST(BlockLoaders, CleanStoreAndSidecarMatchTheSerialLoaders)
{
    const Campaign campaign = multiBlockCampaign("loaders_clean");
    const LoadedStore store =
        expectStoreMatchesReference(campaign, "complete store");
    EXPECT_TRUE(store.ok && store.hasSummary);
    EXPECT_EQ(store.completedShards, campaign.plan.tasks.size());

    const std::uint64_t shards = campaign.plan.tasks.size();
    for (const std::uint64_t maxShards :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{100},
          boundary - 1, boundary, boundary + 1, std::uint64_t{300},
          boundary + 100, shards - 1, shards, shards + 5}) {
        const LoadedForensics sidecar = expectSidecarMatchesReference(
            campaign, maxShards, "complete sidecar");
        EXPECT_TRUE(sidecar.ok);
        EXPECT_EQ(sidecar.shardRecords, std::min(maxShards, shards));
    }
    // The merged cells hold the capped exemplars, re-sorted across
    // shards; their order is part of what must match.
    const LoadedForensics sidecar =
        reference::loadForensics(forensicsPath(campaign.store),
                                 campaign.plan, shards);
    EXPECT_FALSE(sidecar.cells[0].autopsy.empty());
    EXPECT_EQ(sidecar.cells[1].autopsy.size(),
              faultsim::McResult::maxAutopsyRecords);
    removeCampaign(campaign);
}

TEST(BlockLoaders, DamagedStoresFailOrStopWhereTheSerialLoaderDoes)
{
    const Campaign campaign = multiBlockCampaign("loaders_store");
    const std::string summary = campaign.storeLines.back();
    struct Case
    {
        const char *name;
        bool ok; ///< the load succeeds, with the shards before n
        Damage damage;
    };
    const Case cases[] = {
        {"partial", true,
         [](auto &lines, auto &, std::uint64_t n) { lines.resize(n + 1); }},
        {"torn tail", true,
         [](auto &lines, auto &tail, std::uint64_t n) {
             tail = lines[n + 1].substr(0, lines[n + 1].size() / 2);
             lines.resize(n + 1);
         }},
        {"corrupt line", false,
         [](auto &lines, auto &, std::uint64_t n) {
             lines[n + 1][0] = '#';
         }},
        {"not an object", false,
         [](auto &lines, auto &, std::uint64_t n) {
             lines[n + 1] = "[1, 2]";
         }},
        {"unknown record type", false,
         [](auto &lines, auto &, std::uint64_t n) {
             lines[n + 1] = replaced(lines[n + 1], R"("type":"shard")",
                                     R"("type":"bogus")");
         }},
        {"out of plan order", false,
         [](auto &lines, auto &, std::uint64_t n) {
             std::swap(lines[n + 1], lines[n + 2]);
         }},
        {"range off the plan", false,
         [](auto &lines, auto &, std::uint64_t n) {
             lines[n + 1] =
                 withMember(lines[n + 1], "end", json::Value(7u));
         }},
        {"malformed payload", false,
         [](auto &lines, auto &, std::uint64_t n) {
             auto payload = json::Value::object();
             payload.set("failByYear", json::Value::array());
             payload.set("failureTypes", json::Value::object());
             lines[n + 1] =
                 withMember(lines[n + 1], "result", std::move(payload));
         }},
        {"summary before the last shard", false,
         [&summary](auto &lines, auto &, std::uint64_t n) {
             lines[n + 1] = summary;
         }},
    };
    for (const Case &c : cases) {
        for (const std::uint64_t n : aroundBoundary) {
            std::vector<std::string> lines = campaign.storeLines;
            std::string tail;
            c.damage(lines, tail, n);
            writeLines(campaign.store, lines, tail);
            const LoadedStore expected = expectStoreMatchesReference(
                campaign, std::string(c.name) + " at shard " +
                              std::to_string(n));
            EXPECT_EQ(expected.ok, c.ok) << c.name << " " << expected.error;
            if (c.ok) {
                EXPECT_EQ(expected.completedShards, n);
            }
        }
    }
    removeCampaign(campaign);
}

TEST(BlockLoaders, TooManyShardLinesFailAtTheSameLine)
{
    // The error comes at the line after the plan's last shard, so the
    // plan's size puts it before, at or after a block boundary.
    for (const std::uint64_t shards : aroundBoundary) {
        const Campaign campaign = writeCampaign(
            "loaders_extra_" + std::to_string(shards), 1, shards);
        std::vector<std::string> lines = campaign.storeLines;
        const std::string lastShard = lines[lines.size() - 2];
        lines.insert(lines.end() - 1, lastShard);
        writeLines(campaign.store, lines);
        const LoadedStore expected = expectStoreMatchesReference(
            campaign, std::to_string(shards) + " shards");
        EXPECT_FALSE(expected.ok);
        EXPECT_NE(expected.error.find("more shard records"),
                  std::string::npos)
            << expected.error;
        removeCampaign(campaign);
    }
}

namespace
{

/** What a sidecar load that reaches the damaged line n does. */
enum class Effect { Stops, Skips, Fails };

struct SidecarCase
{
    const char *name;
    Effect effect;
    /** Damage the sidecar's @p lines (record n is line n) of
     *  @p campaign around line @p n, or write a torn @p tail. */
    std::function<void(const Campaign &campaign,
                       std::vector<std::string> &lines, std::string &tail,
                       std::uint64_t n)>
        damage;
};

/** Each case, at each position around the boundary, loads as the
 *  serial reference does, for the whole plan and for a limit that ends
 *  inside the damaged line's block. */
void
expectDamagedSidecarsMatch(const char *name,
                           const std::vector<SidecarCase> &cases)
{
    const Campaign campaign = multiBlockCampaign(name);
    const std::uint64_t shards = campaign.plan.tasks.size();
    for (const SidecarCase &c : cases) {
        for (const std::uint64_t n : aroundBoundary) {
            std::vector<std::string> lines = campaign.sidecarLines;
            std::string tail;
            c.damage(campaign, lines, tail, n);
            writeLines(forensicsPath(campaign.store), lines, tail);
            const std::string what =
                std::string(c.name) + " at line " + std::to_string(n);
            for (const std::uint64_t maxShards : {shards, n + 1}) {
                const LoadedForensics expected =
                    expectSidecarMatchesReference(campaign, maxShards, what);
                const std::uint64_t limit = std::min(maxShards, shards);
                if (c.effect == Effect::Fails && limit > n) {
                    EXPECT_FALSE(expected.ok) << what;
                    continue;
                }
                EXPECT_TRUE(expected.ok) << what << ": " << expected.error;
                EXPECT_EQ(expected.shardRecords,
                          c.effect == Effect::Stops ? std::min(limit, n)
                                                    : limit)
                    << what;
            }
        }
    }
    removeCampaign(campaign);
}

} // namespace

TEST(BlockLoaders, DamagedSidecarsEndOrSkipWhereTheSerialLoaderDoes)
{
    expectDamagedSidecarsMatch(
        "loaders_sidecar_end",
        {
            {"torn tail", Effect::Stops,
             [](const Campaign &, auto &lines, auto &tail, std::uint64_t n) {
                 tail = lines[n].substr(0, lines[n].size() / 2);
                 lines.resize(n);
             }},
            {"corrupt line", Effect::Stops,
             [](const Campaign &, auto &lines, auto &, std::uint64_t n) {
                 lines[n][0] = '#';
             }},
            {"unknown record type", Effect::Stops,
             [](const Campaign &, auto &lines, auto &, std::uint64_t n) {
                 lines[n] = replaced(lines[n], R"("type":"forensics")",
                                     R"("type":"bogus")");
             }},
            {"foreign line", Effect::Stops,
             [](const Campaign &campaign, auto &lines, auto &,
                std::uint64_t n) { lines[n] = campaign.storeLines[1]; }},
            {"summary between records", Effect::Skips,
             [](const Campaign &campaign, auto &lines, auto &,
                std::uint64_t n) {
                 lines.insert(lines.begin() + static_cast<long>(n),
                              campaign.sidecarLines.back());
             }},
            {"malformed exemplar", Effect::Skips,
             [](const Campaign &, auto &lines, auto &, std::uint64_t n) {
                 lines[n] = replaced(lines[n], R"("system":)",
                                     R"("system":"x","was":)");
             }},
            {"too many shard lines", Effect::Skips,
             [](const Campaign &campaign, auto &lines, auto &,
                std::uint64_t n) {
                 lines.push_back(campaign.sidecarLines[n]);
                 lines.push_back(campaign.sidecarLines[0]);
             }},
        });
}

TEST(BlockLoaders, DamagedSidecarsFailWhereTheSerialLoaderDoes)
{
    expectDamagedSidecarsMatch(
        "loaders_sidecar_fail",
        {
            {"out of plan order", Effect::Fails,
             [](const Campaign &, auto &lines, auto &, std::uint64_t n) {
                 std::swap(lines[n], lines[n + 1]);
             }},
            {"index off the plan", Effect::Fails,
             [](const Campaign &, auto &lines, auto &, std::uint64_t n) {
                 lines[n] = withMember(lines[n], "index",
                                       json::Value(std::uint64_t{1} << 40));
             }},
            {"malformed payload", Effect::Fails,
             [](const Campaign &, auto &lines, auto &, std::uint64_t n) {
                 lines[n] =
                     withMember(lines[n], "failures", json::Value(5u));
             }},
        });
}

TEST(BlockLoaders, LoadSpansCountTheRecordsReturned)
{
    const Campaign campaign = writeCampaign("loaders_spans", 1, 700);
    std::vector<std::string> lines = campaign.storeLines;
    lines.resize(1 + 500); // a partial store of 500 shards
    writeLines(campaign.store, lines);

    auto &recorder = obs::TraceRecorder::instance();
    recorder.clear();
    recorder.setEnabled(true);
    const ScopedThreadsEnv env("4");
    const LoadedStore store =
        loadStore(campaign.store, campaign.hash, campaign.spec, campaign.plan);
    const LoadedForensics sidecar =
        loadForensics(forensicsPath(campaign.store), campaign.plan, 600);
    recorder.setEnabled(false);
    const json::Value trace = recorder.toJson();
    recorder.clear();
    ASSERT_TRUE(store.ok) << store.error;
    ASSERT_TRUE(sidecar.ok) << sidecar.error;
    EXPECT_EQ(store.completedShards, 500u);
    EXPECT_EQ(sidecar.shardRecords, 600u);

    std::vector<std::uint64_t> storeSpans, sidecarSpans;
    for (const json::Value &event : trace.find("traceEvents")->items()) {
        const json::Value *name = event.find("name");
        const json::Value *args = event.find("args");
        if (!name || !args || !args->find("records"))
            continue;
        const std::uint64_t records = args->find("records")->asUint();
        if (name->asString() == "store.load")
            storeSpans.push_back(records);
        else if (name->asString() == "forensics.load")
            sidecarSpans.push_back(records);
    }
    EXPECT_EQ(storeSpans, std::vector<std::uint64_t>{500});
    EXPECT_EQ(sidecarSpans, std::vector<std::uint64_t>{600});
    removeCampaign(campaign);
}

TEST(BlockLoaders, AThrowingDecodeIsRethrownAtItsLine)
{
    // Lines 0..999, each decoded to its number; line 300's decode
    // throws. The fold sees lines 0..299 in order and then the
    // exception, on the calling thread, at every thread count; a fold
    // that stops first never sees it.
    std::string text;
    for (int i = 0; i < 1000; ++i)
        text += std::to_string(i) + "\n";
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        std::vector<std::uint64_t> folded;
        std::istringstream in(text);
        const auto decode = [](std::string_view line, const LineSpan &) {
            if (line == "300")
                throw std::runtime_error("bad line 300");
            return std::stoull(std::string(line));
        };
        const auto fold = [&](std::uint64_t &value, std::string_view,
                              const LineSpan &span) {
            EXPECT_EQ(value, span.number);
            folded.push_back(value);
            return true;
        };
        const auto count = [threads] { return threads; };
        EXPECT_THROW(
            foldLineBlocks<std::uint64_t>(in, 0, count, decode, fold),
            std::runtime_error);
        EXPECT_EQ(folded.size(), 300u);

        folded.clear();
        std::istringstream again(text);
        foldLineBlocks<std::uint64_t>(
            again, 0, count, decode,
            [&](std::uint64_t &value, std::string_view, const LineSpan &) {
                folded.push_back(value);
                return value < 299;
            });
        EXPECT_EQ(folded.size(), 300u);
    }
}

TEST(BlockLoaders, AThreadCountThatFailsIsTheLoadersError)
{
    // A malformed XED_MC_THREADS throws where the loaders resolve their
    // thread count, which only a load that reads past its first block
    // does; the loaders return it as their error.
    const Campaign campaign = writeCampaign("loaders_bad_threads", 1, 100);
    const ScopedThreadsEnv env("8x");
    const LoadedStore store =
        loadStore(campaign.store, campaign.hash, campaign.spec, campaign.plan);
    EXPECT_FALSE(store.ok);
    EXPECT_NE(store.error.find("XED_MC_THREADS"), std::string::npos)
        << store.error;
    const LoadedForensics sidecar =
        loadForensics(forensicsPath(campaign.store), campaign.plan, 100);
    EXPECT_FALSE(sidecar.ok);
    EXPECT_NE(sidecar.error.find("XED_MC_THREADS"), std::string::npos)
        << sidecar.error;

    // A sidecar limit inside the first block reads no further.
    EXPECT_TRUE(
        loadForensics(forensicsPath(campaign.store), campaign.plan, 10).ok);
    removeCampaign(campaign);
}
