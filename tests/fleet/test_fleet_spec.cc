/**
 * @file
 * Fleet-spec parsing and canonicalization: strict rejection of
 * malformed fleet documents, cohort/policy validation, plan geometry
 * over the single fleet cell, and the canonical-form round trip that
 * report/resume/hash all depend on.
 */

#include <cstdlib>
#include <gtest/gtest.h>

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
    "name": "fleet-t", "kind": "fleet", "seed": 11,
    "years": 2, "shardDimms": 100,
    "cohorts": [{"name": "a", "scheme": "secded", "dimms": 250}]
})";

} // namespace

TEST(FleetSpec, ParsesMinimalFleetSpec)
{
    const auto spec = parseOrDie(kMinimal);
    EXPECT_EQ(spec.kind, CampaignKind::Fleet);
    EXPECT_EQ(spec.seed, 11u);
    EXPECT_DOUBLE_EQ(spec.years, 2.0);
    EXPECT_EQ(spec.shardDimms, 100u);
    // Defaults: monthly epochs, replace-on-DUE with one epoch of lag,
    // no retirement, no canary threshold.
    EXPECT_DOUBLE_EQ(spec.fleet.epochHours, hoursPerYear / 12.0);
    EXPECT_TRUE(spec.fleet.policies.replaceOnDue);
    EXPECT_EQ(spec.fleet.policies.replacementLagEpochs, 1u);
    EXPECT_EQ(spec.fleet.policies.retireAfterPermanentFaults, 0u);
    EXPECT_DOUBLE_EQ(spec.fleet.policies.canaryDueThreshold, 0.0);
    ASSERT_EQ(spec.fleet.cohorts.size(), 1u);
    const auto &cohort = spec.fleet.cohorts[0];
    EXPECT_EQ(cohort.name, "a");
    EXPECT_EQ(cohort.scheme, faultsim::SchemeKind::Secded);
    EXPECT_EQ(cohort.dimms, 250u);
    EXPECT_EQ(cohort.deployEpoch, 0u);
    EXPECT_FALSE(cohort.canary);
    // Vendor profile defaults to Table I.
    EXPECT_DOUBLE_EQ(
        cohort.fit.entry(faultsim::FaultKind::Bit).transient, 14.2);
}

TEST(FleetSpec, PlanGeometryIsOneCellShardedByDimms)
{
    const auto spec = parseOrDie(kMinimal);
    EXPECT_EQ(spec.cellCount(), 1u);
    EXPECT_EQ(spec.unitsPerCell(), 250u);
    EXPECT_EQ(spec.unitsPerShard(), 100u);
    EXPECT_EQ(cellLabel(spec, 0), "fleet");
    const Plan plan = buildPlan(spec);
    ASSERT_EQ(plan.tasks.size(), 3u);
    EXPECT_EQ(plan.tasks[2].begin, 200u);
    EXPECT_EQ(plan.tasks[2].end, 250u);
}

TEST(FleetSpec, ParsesCohortsPoliciesAndOverrides)
{
    const auto spec = parseOrDie(R"({
        "name": "f", "kind": "fleet", "seed": 3, "years": 3,
        "epochHours": 2000, "shardDimms": 50,
        "sampler": "knuth",
        "onDie": {"present": false},
        "policies": {"replaceOnDue": false, "replacementLagEpochs": 2,
                     "retireAfterPermanentFaults": 3,
                     "canaryDueThreshold": 0.25},
        "cohorts": [
            {"name": "vendorA", "scheme": "xed", "dimms": 100,
             "deployEpoch": 4, "canary": true,
             "scrubIntervalHours": 168,
             "fitOverrides": {"single-bit": {"transient": 99.5}}},
            {"name": "vendorB", "scheme": "chipkill", "dimms": 60}
        ]
    })");
    EXPECT_FALSE(spec.onDie.present);
    EXPECT_FALSE(spec.fleet.policies.replaceOnDue);
    EXPECT_EQ(spec.fleet.policies.replacementLagEpochs, 2u);
    EXPECT_EQ(spec.fleet.policies.retireAfterPermanentFaults, 3u);
    EXPECT_DOUBLE_EQ(spec.fleet.policies.canaryDueThreshold, 0.25);
    ASSERT_EQ(spec.fleet.cohorts.size(), 2u);
    const auto &a = spec.fleet.cohorts[0];
    EXPECT_EQ(a.deployEpoch, 4u);
    EXPECT_TRUE(a.canary);
    EXPECT_DOUBLE_EQ(a.scrubIntervalHours, 168.0);
    EXPECT_DOUBLE_EQ(
        a.fit.entry(faultsim::FaultKind::Bit).transient, 99.5);
    // The override leaves the other rates at Table I.
    EXPECT_DOUBLE_EQ(
        a.fit.entry(faultsim::FaultKind::Bit).permanent, 18.6);
    EXPECT_DOUBLE_EQ(
        spec.fleet.cohorts[1].fit.entry(faultsim::FaultKind::Bit)
            .transient,
        14.2);
    EXPECT_EQ(spec.fleet.totalDimms(), 160u);
    EXPECT_EQ(spec.fleet.cohortBegin(1), 100u);
}

TEST(FleetSpec, RejectsMalformedFleetSpecs)
{
    // Unknown key at the top level, inside policies, inside a cohort.
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "bogus":1,
        "cohorts":[{"name":"a","scheme":"xed","dimms":10}]})")
                  .find("bogus"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "policies":{"replaceOnDew":true},
        "cohorts":[{"name":"a","scheme":"xed","dimms":10}]})")
                  .find("policies"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "cohorts":[{"name":"a","scheme":"xed","dimms":10,"vendor":"x"}]})")
                  .find("cohorts[0]"),
              std::string::npos);
    // Missing / empty cohorts.
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1})")
                  .find("cohorts"),
              std::string::npos);
    EXPECT_NE(parseError(
                  R"({"name":"f","kind":"fleet","seed":1,"cohorts":[]})")
                  .find("cohorts"),
              std::string::npos);
    // Bad cohort fields.
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "cohorts":[{"name":"a","scheme":"notascheme","dimms":10}]})")
                  .find("notascheme"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "cohorts":[{"name":"a","scheme":"xed","dimms":0}]})")
                  .find("dimms"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "cohorts":[{"name":"a","scheme":"xed","dimms":5},
                   {"name":"a","scheme":"secded","dimms":5}]})")
                  .find("duplicate"),
              std::string::npos);
    // Policy and geometry bounds.
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "policies":{"canaryDueThreshold":1.5},
        "cohorts":[{"name":"a","scheme":"xed","dimms":10}]})")
                  .find("canaryDueThreshold"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "shardDimms":0,
        "cohorts":[{"name":"a","scheme":"xed","dimms":10}]})")
                  .find("shardDimms"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "epochHours":0,
        "cohorts":[{"name":"a","scheme":"xed","dimms":10}]})")
                  .find("epochHours"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"name":"f","kind":"fleet","seed":1,
        "years":0,
        "cohorts":[{"name":"a","scheme":"xed","dimms":10}]})")
                  .find("years"),
              std::string::npos);
}

TEST(FleetSpec, RejectsDeployEpochOutsideHorizon)
{
    // 2 years of monthly epochs = 24 epochs; 24 is out of range.
    const std::string error = parseError(R"({
        "name":"f","kind":"fleet","seed":1,"years":2,
        "cohorts":[{"name":"late","scheme":"xed","dimms":10,
                    "deployEpoch":24}]})");
    EXPECT_NE(error.find("late"), std::string::npos) << error;
    EXPECT_NE(error.find("deployEpoch"), std::string::npos) << error;
    // 23 is the last valid epoch.
    parseOrDie(R"({
        "name":"f","kind":"fleet","seed":1,"years":2,
        "cohorts":[{"name":"late","scheme":"xed","dimms":10,
                    "deployEpoch":23}]})");
}

TEST(FleetSpec, CanonicalFormRoundTrips)
{
    const auto spec = parseOrDie(R"({
        "name": "f", "kind": "fleet", "seed": 3, "years": 3,
        "epochHours": 2000, "shardDimms": 50,
        "policies": {"retireAfterPermanentFaults": 2},
        "cohorts": [
            {"name": "a", "scheme": "xed", "dimms": 100, "canary": true,
             "fitOverrides": {"single-row": {"permanent": 42.0}}},
            {"name": "b", "scheme": "secded", "dimms": 60,
             "deployEpoch": 5}
        ]
    })");
    const json::Value canonical = specToJson(spec);
    std::string error;
    const auto reparsed = parseSpec(canonical, &error);
    ASSERT_TRUE(reparsed) << error;
    EXPECT_EQ(json::dump(specToJson(*reparsed)),
              json::dump(canonical));
    EXPECT_EQ(specHash(*reparsed), specHash(spec));
    EXPECT_EQ(reparsed->fleet.cohorts[0]
                  .fit.entry(faultsim::FaultKind::Row)
                  .permanent,
              42.0);
}

TEST(FleetSpec, HashCoversFleetShape)
{
    const auto base = parseOrDie(kMinimal);
    auto changedPolicy = parseOrDie(kMinimal);
    changedPolicy.fleet.policies.replacementLagEpochs = 3;
    auto changedCohort = parseOrDie(kMinimal);
    changedCohort.fleet.cohorts[0].dimms = 251;
    EXPECT_NE(specHash(base), specHash(changedPolicy));
    EXPECT_NE(specHash(base), specHash(changedCohort));
}

TEST(FleetSpec, EnvOverridesApplySeedOnly)
{
    auto spec = parseOrDie(kMinimal);
    ::setenv("XED_MC_SEED", "77", 1);
    ::setenv("XED_MC_SYSTEMS", "999", 1); // reliability-only knob
    ::setenv("XED_TRIALS", "888", 1);     // detection-only knob
    applyEnvOverrides(spec);
    ::unsetenv("XED_MC_SEED");
    ::unsetenv("XED_MC_SYSTEMS");
    ::unsetenv("XED_TRIALS");
    EXPECT_EQ(spec.seed, 77u);
    EXPECT_EQ(spec.fleet.totalDimms(), 250u); // untouched
    EXPECT_EQ(spec.trials, 200000u);          // untouched default
}

TEST(FleetSpec, FleetConfigMirrorsSpec)
{
    const auto spec = parseOrDie(kMinimal);
    const fleet::FleetConfig config = fleetConfigFor(spec);
    EXPECT_EQ(config.seed, spec.seed);
    EXPECT_DOUBLE_EQ(config.years, spec.years);
    EXPECT_EQ(config.setup.cohorts.size(), 1u);
    EXPECT_EQ(config.epochs(), 24u); // 2 years of monthly epochs
}
