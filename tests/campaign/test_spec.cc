/**
 * @file
 * CampaignSpec parsing, validation, canonicalization and the shard
 * plan: strict rejection of malformed specs, a stable spec hash that
 * ignores runtime-only knobs and stays pinned for the shipped specs,
 * and deterministic plan geometry.
 */

#include <cstdlib>
#include <gtest/gtest.h>
#include <stdexcept>

#include "campaign/spec.hh"

using namespace xed;
using namespace xed::campaign;

namespace
{

CampaignSpec
parseOrDie(const std::string &text)
{
    std::string error;
    auto doc = json::parse(text, &error);
    EXPECT_TRUE(doc) << error;
    auto spec = parseSpec(*doc, &error);
    EXPECT_TRUE(spec) << error;
    return *spec;
}

std::string
parseError(const std::string &text)
{
    std::string error;
    auto doc = json::parse(text, &error);
    EXPECT_TRUE(doc) << error;
    auto spec = parseSpec(*doc, &error);
    EXPECT_FALSE(spec) << "spec unexpectedly parsed";
    return error;
}

constexpr const char *kMinimal = R"({
    "name": "t", "seed": 7, "schemes": ["xed"],
    "systems": 100, "shardSystems": 30
})";

/**
 * A 32-bit field set past UINT32_MAX must be rejected with an error
 * naming @p key, not narrowed: 4294967300 would wrap to 4 and
 * 4294967297 to 1, valid values of every such field.
 */
void
expectOversizedRejected(const std::string &key, const std::string &text)
{
    const std::string error = parseError(text);
    EXPECT_NE(error.find("\"" + key + "\""), std::string::npos) << error;
}

/** A fleet spec whose policies / first cohort carry @p policies and
 *  @p cohortExtra (both JSON member lists, possibly empty). */
std::string
fleetSpec(const std::string &policies, const std::string &cohortExtra)
{
    return R"({"name":"f","kind":"fleet","seed":1,"years":2,)"
           R"("policies":{)" +
           policies +
           R"(},"cohorts":[{"name":"a","scheme":"xed","dimms":10)" +
           cohortExtra + "}]}";
}

} // namespace

TEST(CampaignSpec, ParsesMinimalReliabilitySpec)
{
    const auto spec = parseOrDie(kMinimal);
    EXPECT_EQ(spec.name, "t");
    EXPECT_EQ(spec.kind, CampaignKind::Reliability);
    EXPECT_EQ(spec.seed, 7u);
    ASSERT_EQ(spec.schemes.size(), 1u);
    EXPECT_EQ(spec.systems, 100u);
    EXPECT_EQ(spec.shardSystems, 30u);
}

TEST(CampaignSpec, RejectsUnknownKeysAndBadValues)
{
    EXPECT_NE(parseError(R"({"name":"t","seed":1,"schemes":["xed"],)"
                         R"("systemz":5})")
                  .find("systemz"),
              std::string::npos);
    // Unknown scheme name.
    EXPECT_FALSE(parseError(R"({"name":"t","seed":1,)"
                            R"("schemes":["tripleparity"]})")
                     .empty());
    // Zero shard size would make an infinite plan.
    EXPECT_FALSE(parseError(R"({"name":"t","seed":1,"schemes":["xed"],)"
                            R"("shardSystems":0})")
                     .empty());
    // Missing required keys.
    EXPECT_FALSE(parseError(R"({"seed":1,"schemes":["xed"]})").empty());
    EXPECT_FALSE(parseError(R"({"name":"t","schemes":["xed"]})").empty());
    // Nested unknown key inside onDie.
    EXPECT_FALSE(parseError(R"({"name":"t","seed":1,"schemes":["xed"],)"
                            R"("onDie":{"presence":true}})")
                     .empty());
    // Unknown sweep parameter.
    EXPECT_FALSE(parseError(R"({"name":"t","seed":1,"schemes":["xed"],)"
                            R"("sweep":{"parameter":"voltage",)"
                            R"("values":[1]}})")
                     .empty());
}

TEST(CampaignSpec, HashIsStableAndIgnoresThreads)
{
    const auto a = parseOrDie(kMinimal);
    auto b = a;
    EXPECT_EQ(specHash(a), specHash(b));

    // Threads are a runtime knob: same results, same hash.
    b.threads = 16;
    EXPECT_EQ(specHash(a), specHash(b));

    // Anything that changes results changes the hash.
    b = a;
    b.seed = 8;
    EXPECT_NE(specHash(a), specHash(b));
    b = a;
    b.systems = 101;
    EXPECT_NE(specHash(a), specHash(b));
}

TEST(CampaignSpec, CanonicalJsonRoundTrips)
{
    auto spec = parseOrDie(kMinimal);
    spec.onDie.scalingRate = 1e-5;
    spec.sweep.parameter = "channels";
    spec.sweep.values = {2, 4};

    std::string error;
    const auto doc = specToJson(spec);
    auto reparsed = parseSpec(doc, &error);
    ASSERT_TRUE(reparsed) << error;
    EXPECT_EQ(json::dump(specToJson(*reparsed)), json::dump(doc));
    EXPECT_EQ(specHash(*reparsed), specHash(spec));
}

TEST(CampaignSpec, PlanCoversEveryUnitInPointMajorOrder)
{
    auto spec = parseOrDie(kMinimal);
    spec.schemes = {faultsim::SchemeKind::Secded,
                    faultsim::SchemeKind::Xed};
    spec.sweep.parameter = "scalingRate";
    spec.sweep.values = {0, 1e-5, 1e-4};

    const Plan plan = buildPlan(spec);
    EXPECT_EQ(plan.points, 3u);
    EXPECT_EQ(plan.cells, 2u);
    // 100 systems / 30 per shard = 4 shards (last one short).
    EXPECT_EQ(plan.shardsPerCell, 4u);
    ASSERT_EQ(plan.tasks.size(), 3u * 2u * 4u);

    std::uint64_t index = 0;
    for (unsigned point = 0; point < 3; ++point) {
        for (unsigned cell = 0; cell < 2; ++cell) {
            std::uint64_t begin = 0;
            for (unsigned s = 0; s < 4; ++s, ++index) {
                const auto &task = plan.tasks[index];
                EXPECT_EQ(task.index, index);
                EXPECT_EQ(task.point, point);
                EXPECT_EQ(task.cell, cell);
                EXPECT_EQ(task.begin, begin);
                begin = task.end;
            }
            EXPECT_EQ(begin, spec.systems);
        }
    }
}

TEST(CampaignSpec, SweepValuesReachTheEngineConfig)
{
    auto spec = parseOrDie(kMinimal);
    spec.sweep.parameter = "scrubIntervalHours";
    spec.sweep.values = {0, 24};
    EXPECT_EQ(mcConfigFor(spec, 0).scrubIntervalHours, 0.0);
    EXPECT_EQ(mcConfigFor(spec, 1).scrubIntervalHours, 24.0);

    spec.sweep.parameter = "scalingRate";
    spec.sweep.values = {1e-6, 1e-4};
    EXPECT_EQ(onDieFor(spec, 0).scalingRate, 1e-6);
    EXPECT_EQ(onDieFor(spec, 1).scalingRate, 1e-4);
    // The runner owns parallelism; per-shard configs stay serial.
    EXPECT_EQ(mcConfigFor(spec, 0).threads, 1u);
}

TEST(CampaignSpec, DetectionCellsEnumerateCodePatternWeight)
{
    const auto spec = parseOrDie(R"({
        "name": "d", "kind": "detection", "seed": 3,
        "codes": ["hamming7264", "crc8atm"],
        "patterns": ["random", "burst"],
        "maxWeight": 3, "trials": 10, "shardTrials": 10
    })");
    EXPECT_EQ(spec.cellCount(), 2u * 2u * 3u);

    const auto first = detectionCell(spec, 0);
    EXPECT_EQ(first.code, "hamming7264");
    EXPECT_FALSE(first.burst);
    EXPECT_EQ(first.weight, 1u);

    const auto last = detectionCell(spec, spec.cellCount() - 1);
    EXPECT_EQ(last.code, "crc8atm");
    EXPECT_TRUE(last.burst);
    EXPECT_EQ(last.weight, 3u);
    EXPECT_EQ(cellLabel(spec, spec.cellCount() - 1), "crc8atm/burst/w3");
}

TEST(CampaignSpec, EnvOverridesApplyAndAffectTheHash)
{
    auto spec = parseOrDie(kMinimal);
    const auto baseHash = specHash(spec);

    ::setenv("XED_MC_SYSTEMS", "60", 1);
    ::setenv("XED_MC_SEED", "99", 1);
    applyEnvOverrides(spec);
    ::unsetenv("XED_MC_SYSTEMS");
    ::unsetenv("XED_MC_SEED");

    EXPECT_EQ(spec.systems, 60u);
    EXPECT_EQ(spec.seed, 99u);
    EXPECT_NE(specHash(spec), baseHash);
}

TEST(CampaignSpec, SamplerParsesRoundTripsAndAffectsTheHash)
{
    // Knuth is the only sampler: the default, and it may be spelled
    // out.
    const auto def = parseOrDie(kMinimal);
    const auto explicitKnuth = parseOrDie(R"({
        "name": "t", "seed": 7, "schemes": ["xed"],
        "systems": 100, "shardSystems": 30, "sampler": "knuth"
    })");
    EXPECT_EQ(specHash(def), specHash(explicitKnuth));

    // Any other sampler -- the removed invcdf included -- is an error
    // naming the key and the offender.
    for (const char *name : {"invcdf", "gamma", "Knuth", ""}) {
        const std::string error =
            parseError(std::string(R"({"name":"t","seed":1,)"
                                   R"("schemes":["xed"],"sampler":")") +
                       name + "\"}");
        EXPECT_NE(error.find("\"sampler\""), std::string::npos) << error;
        EXPECT_NE(error.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << error;
    }

    // The canonical form keeps spelling the sampler out, so the key is
    // part of every spec hash and store manifest (the pinned hashes
    // below depend on it), and it round-trips.
    std::string error;
    const auto doc = specToJson(def);
    EXPECT_NE(json::dump(doc).find("\"sampler\":\"knuth\""),
              std::string::npos);
    auto reparsed = parseSpec(doc, &error);
    ASSERT_TRUE(reparsed) << error;
    EXPECT_EQ(specHash(*reparsed), specHash(def));
}

TEST(CampaignSpec, RejectsRemovedEvalBatchKey)
{
    EXPECT_NE(parseError(R"({"name":"t","seed":1,"schemes":["xed"],)"
                         R"("evalBatch":16})")
                  .find("evalBatch"),
              std::string::npos);
}

TEST(CampaignSpec, RejectsOversizedChannels)
{
    expectOversizedRejected(
        "channels", R"({"name":"t","seed":1,"schemes":["xed"],)"
                    R"("channels":4294967300})");
    // UINT32_MAX itself still fits.
    EXPECT_EQ(parseOrDie(R"({"name":"t","seed":1,"schemes":["xed"],)"
                         R"("channels":4294967295})")
                  .channels,
              4294967295u);
}

TEST(CampaignSpec, RejectsOversizedMaxWeight)
{
    expectOversizedRejected(
        "maxWeight", R"({"name":"d","kind":"detection","seed":1,)"
                     R"("codes":["crc8atm"],"maxWeight":4294967297})");
}

TEST(CampaignSpec, RejectsOversizedThreads)
{
    expectOversizedRejected(
        "threads", R"({"name":"t","seed":1,"schemes":["xed"],)"
                   R"("threads":4294967297})");
}

TEST(CampaignSpec, RejectsOversizedReplacementLagEpochs)
{
    expectOversizedRejected(
        "replacementLagEpochs",
        fleetSpec(R"("replacementLagEpochs":4294967297)", ""));
}

TEST(CampaignSpec, RejectsOversizedRetireAfterPermanentFaults)
{
    expectOversizedRejected(
        "retireAfterPermanentFaults",
        fleetSpec(R"("retireAfterPermanentFaults":4294967297)", ""));
}

TEST(CampaignSpec, RejectsOversizedDeployEpoch)
{
    expectOversizedRejected(
        "deployEpoch", fleetSpec("", R"(,"deployEpoch":4294967297)"));
}

TEST(CampaignSpec, MalformedEnvOverridesThrow)
{
    auto spec = parseOrDie(kMinimal);
    ::setenv("XED_MC_SYSTEMS", "50k", 1);
    EXPECT_THROW(applyEnvOverrides(spec), std::runtime_error);
    ::unsetenv("XED_MC_SYSTEMS");

    ::setenv("XED_MC_SEED", "-3", 1);
    EXPECT_THROW(applyEnvOverrides(spec), std::runtime_error);
    ::unsetenv("XED_MC_SEED");
}

TEST(CampaignSpec, ShippedSpecHashesArePinned)
{
    // specHash is the resume key and is copied into every store
    // manifest, so a change to the canonical JSON form changes store
    // bytes and must be deliberate.
    const struct
    {
        const char *file;
        const char *hash;
    } pinned[] = {
        {"fig07.json", "f0343b0b467ffe77"},
        {"table2.json", "33077bad71bf295d"},
        {"fleet_smoke.json", "f0052363c9f1060b"},
    };
    for (const auto &entry : pinned) {
        std::string error;
        const auto spec = loadSpecFile(
            std::string(XED_SPEC_DIR "/") + entry.file, &error);
        ASSERT_TRUE(spec) << entry.file << ": " << error;
        EXPECT_EQ(specHash(*spec), entry.hash) << entry.file;
    }
}

TEST(CampaignSpec, ShippedSpecFilesParse)
{
    const char *files[] = {"fig07.json", "fig08.json", "table2.json",
                           "smoke.json", "sweep_scaling.json"};
    for (const char *file : files) {
        std::string error;
        auto spec = loadSpecFile(std::string(XED_SPEC_DIR "/") + file,
                                 &error);
        EXPECT_TRUE(spec) << file << ": " << error;
    }
}
