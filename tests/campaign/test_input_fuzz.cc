/**
 * @file
 * Seeded mutation fuzz of the campaign readers of outside input that
 * json::parse alone does not cover (JsonFuzz, in test_json):
 *
 *  - parseSpec() on mutants of every spec file in specs/: byte
 *    mutants that still parse as JSON, and value mutants (a key or
 *    element removed, a value replaced by another JSON type, a number
 *    set to 0, -1, 2^64-1 or 0.5). Each must yield a spec or an error, never throw;
 *    an accepted spec must re-parse from its canonical bytes to the
 *    same specHash. No accepted mutant is planned or run: a valid spec
 *    can plan billions of shards.
 *  - scanStore() on a finished store whose telemetry sidecar is
 *    mutated line by line (byte flips, truncation, non-object lines,
 *    duplicated lines): the scan stays ok, and its shards, units and
 *    failures are the clean scan's.
 *
 * Run under ASan and UBSan by scripts/check.sh (ctest label
 * "campaign").
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/status.hh"
#include "common/json.hh"
#include "tests/support/temp_path.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

namespace fs = std::filesystem;

// Per spec file; each case stays under 0.5 s in a RelWithDebInfo build.
constexpr int byteMutantsPerSpec = 4000;
constexpr int valueMutantsPerSpec = 2000;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** Every shipped spec file, in name order. */
std::vector<std::string>
shippedSpecs()
{
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(XED_SPEC_DIR))
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** parseSpec() must return a spec or an error; an accepted spec must
 *  survive its canonical bytes with the same hash. Counts the accepted
 *  specs in @p accepted. */
void
expectSpecOrError(const json::Value &doc, const std::string &context,
                  int &accepted)
{
    std::string error;
    std::optional<CampaignSpec> spec;
    ASSERT_NO_THROW(spec = parseSpec(doc, &error)) << context;
    if (!spec) {
        EXPECT_FALSE(error.empty()) << context;
        return;
    }
    ++accepted;
    const std::string canonical = json::dump(specToJson(*spec));
    const auto reparsedDoc = json::parse(canonical, &error);
    ASSERT_TRUE(reparsedDoc) << context << ": " << error;
    std::optional<CampaignSpec> reparsed;
    ASSERT_NO_THROW(reparsed = parseSpec(*reparsedDoc, &error))
        << context;
    ASSERT_TRUE(reparsed) << context << ": " << error << "\n"
                          << canonical;
    EXPECT_EQ(specHash(*reparsed), specHash(*spec)) << context;
}

void
mutateBytes(std::string &text, std::mt19937_64 &rng)
{
    static constexpr char inserts[] = "\"\\{}[],:-+.eE0123456789";
    const std::size_t at = text.empty() ? 0 : rng() % text.size();
    switch (rng() % 4) {
      case 0: // flip a byte
        if (!text.empty())
            text[at] = static_cast<char>(text[at] ^ (1 + rng() % 255));
        break;
      case 1: // delete a byte
        if (!text.empty())
            text.erase(at, 1);
        break;
      case 2: // insert a JSON-significant byte
        text.insert(text.begin() + (rng() % (text.size() + 1)),
                    inserts[rng() % (sizeof inserts - 1)]);
        break;
      default: // truncate
        text.resize(text.empty() ? 0 : rng() % text.size());
    }
}

std::size_t
countNodes(const json::Value &value)
{
    std::size_t nodes = 1;
    for (const json::Value &item : value.items())
        nodes += countNodes(item);
    for (const auto &member : value.members())
        nodes += countNodes(member.second);
    return nodes;
}

/** What replaces the target node: nothing (the key or element is
 *  removed), a value of another JSON type, or a boundary number. */
std::optional<json::Value>
replacementFor(const json::Value &value, std::mt19937_64 &rng)
{
    switch (rng() % 3) {
      case 0:
        return std::nullopt;
      case 1: {
          const json::Value others[] = {
              json::Value(nullptr),     json::Value(true),
              json::Value("text"),      json::Value(std::uint64_t{7}),
              json::Value::array(),     json::Value::object(),
          };
          json::Value pick;
          do
              pick = others[rng() % std::size(others)];
          while (pick.kind() == value.kind());
          return pick;
      }
      default: {
          const json::Value numbers[] = {
              json::Value(std::uint64_t{0}),
              json::Value(std::int64_t{-1}),
              json::Value(UINT64_MAX),
              json::Value(0.5),
          };
          return numbers[rng() % std::size(numbers)];
      }
    }
}

/** Copy of @p value with its pre-order node @p target (the root is 0)
 *  replaced; nullopt when the target is @p value itself and goes. */
std::optional<json::Value>
mutateNode(const json::Value &value, std::size_t &next,
           std::size_t target, std::mt19937_64 &rng)
{
    if (next++ == target)
        return replacementFor(value, rng);
    if (value.isObject()) {
        auto out = json::Value::object();
        for (const auto &[key, member] : value.members())
            if (auto kept = mutateNode(member, next, target, rng))
                out.set(key, std::move(*kept));
        return out;
    }
    if (value.isArray()) {
        auto out = json::Value::array();
        for (const json::Value &item : value.items())
            if (auto kept = mutateNode(item, next, target, rng))
                out.push(std::move(*kept));
        return out;
    }
    return value;
}

} // namespace

TEST(InputFuzz, SpecByteMutantsParseOrFailCleanly)
{
    std::mt19937_64 rng(0x5bec'b17e);
    for (const std::string &path : shippedSpecs()) {
        const std::string text = slurp(path);
        int parsed = 0;
        int accepted = 0;
        for (int m = 0; m < byteMutantsPerSpec; ++m) {
            std::string mutant = text;
            mutateBytes(mutant, rng);
            const auto doc = json::parse(mutant);
            if (!doc)
                continue;
            ++parsed;
            expectSpecOrError(*doc,
                              path + " byte mutant " + std::to_string(m) +
                                  ":\n" + mutant,
                              accepted);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        // Many byte mutants of pretty-printed JSON still parse
        // (whitespace, digits, string contents), and some of those
        // are still valid specs: both outcomes are exercised.
        EXPECT_GT(parsed, byteMutantsPerSpec / 10) << path;
        EXPECT_GT(accepted, 0) << path;
    }
}

TEST(InputFuzz, SpecValueMutantsParseOrFailCleanly)
{
    std::mt19937_64 rng(0x5bec'7a1e);
    for (const std::string &path : shippedSpecs()) {
        std::string error;
        const auto doc = json::parse(slurp(path), &error);
        ASSERT_TRUE(doc) << path << ": " << error;
        const std::size_t nodes = countNodes(*doc);
        int accepted = 0;
        for (int m = 0; m < valueMutantsPerSpec; ++m) {
            std::size_t next = 0;
            const auto mutant =
                mutateNode(*doc, next, 1 + rng() % (nodes - 1), rng);
            ASSERT_TRUE(mutant);
            expectSpecOrError(*mutant,
                              path + " value mutant " + std::to_string(m) +
                                  ": " + json::dump(*mutant),
                              accepted);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_GT(accepted, 0) << path;
    }
}

TEST(InputFuzz, MutatedTelemetryNeverChangesStoreTotals)
{
    std::string error;
    const auto doc = json::parse(R"({
        "name": "fuzz-telemetry", "seed": 4242,
        "schemes": ["secded", "xed"],
        "systems": 400, "shardSystems": 100
    })", &error);
    ASSERT_TRUE(doc) << error;
    const auto spec = parseSpec(*doc, &error);
    ASSERT_TRUE(spec) << error;

    const std::string dir = ownTempPath("xed_fuzz_telemetry");
    fs::remove_all(dir);
    fs::create_directories(dir);
    RunOptions options;
    options.outPath = dir + "/out.jsonl";
    options.threads = 2;
    options.durableStore = false;
    const RunOutcome outcome = runCampaign(*spec, options);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    const std::string sidecar = options.outPath + ".telemetry.jsonl";
    const std::string clean = slurp(sidecar);
    std::vector<std::string> lines;
    for (std::size_t at = 0; at < clean.size();) {
        const std::size_t end = clean.find('\n', at);
        lines.push_back(clean.substr(at, end - at));
        at = end + 1;
    }
    ASSERT_GE(lines.size(), 2u); // the run record and its terminal one

    const RunStatus reference = scanStore(options.outPath);
    ASSERT_TRUE(reference.ok) << reference.error;
    const json::Value referenceJson = statusJson(reference);

    std::mt19937_64 rng(0x7e1e'3e7c);
    const auto withLine = [&](std::size_t i, const std::string &line) {
        std::string bytes;
        for (std::size_t j = 0; j < lines.size(); ++j)
            bytes += (j == i ? line : lines[j]) + "\n";
        return bytes;
    };
    const std::string nonObjects[] = {"[]", "42", "\"run\"", "null",
                                      "[{\"type\":\"done\"}]", ""};
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::vector<std::string> mutants;
        for (int m = 0; m < 40; ++m) {
            std::string line = lines[i];
            const std::size_t at = rng() % line.size();
            line[at] = static_cast<char>(line[at] ^ (1 + rng() % 255));
            mutants.push_back(withLine(i, line));
            mutants.push_back(
                withLine(i, lines[i].substr(0, rng() % lines[i].size())));
        }
        for (const std::string &other : nonObjects)
            mutants.push_back(withLine(i, other));
        mutants.push_back(withLine(i, lines[i] + "\n" + lines[i]));
        mutants.push_back(clean.substr(0, clean.size() - 1 -
                                              rng() % clean.size() / 2));

        for (std::size_t m = 0; m < mutants.size(); ++m) {
            SCOPED_TRACE("line " + std::to_string(i) + " mutant " +
                         std::to_string(m) + ":\n" + mutants[m]);
            spit(sidecar, mutants[m]);
            const RunStatus status = scanStore(options.outPath);
            ASSERT_TRUE(status.ok) << status.error;
            const json::Value scanned = statusJson(status);
            for (const char *key : {"shards", "failures"})
                EXPECT_EQ(*scanned.find(key), *referenceJson.find(key))
                    << key;
            EXPECT_EQ(status.unitsDone, reference.unitsDone);
            EXPECT_EQ(status.complete, reference.complete);
            if (::testing::Test::HasFailure())
                return;
        }
    }
    fs::remove_all(dir);
}
