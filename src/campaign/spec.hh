/**
 * @file
 * Declarative experiment specs for the campaign runner.
 *
 * A CampaignSpec is the JSON description of one measurement campaign:
 * which correction schemes (or on-die codes) to evaluate, how many
 * Monte-Carlo systems (or detection trials), the seed, FIT-rate
 * overrides, and an optional sweep axis. The runner expands a spec
 * into a deterministic shard plan -- the fixed, totally ordered list
 * of work units whose results form the JSONL store -- so a spec plus a
 * seed fully determines the result file, byte for byte.
 *
 * Spec schema (strict: unknown keys are rejected):
 *
 *   {
 *     "name": "fig07",              // required, [A-Za-z0-9_.-]
 *     "kind": "reliability",        // or "detection"; default reliability
 *     "seed": 61799,                // required
 *     // reliability campaigns:
 *     "schemes": ["secded", "xed"], // required; schemeKindName() names
 *     "systems": 1000000,           // per scheme per sweep point
 *     "shardSystems": 10000,        // systems per shard (resume grain)
 *     "years": 7,                   // simulated lifetime
 *     "channels": 4,
 *     "scrubIntervalHours": 0,
 *     "sampler": "knuth",           // the only accepted value

 *     "onDie": {"present": true, "scalingRate": 0,
 *               "detectionEscapeProb": 0.008},
 *     "fitOverrides": {"single-bit": {"transient": 14.2,
 *                                     "permanent": 18.6}, ...},
 *     "sweep": {"parameter": "scalingRate", "values": [1e-6, 1e-4]},
 *     // detection campaigns:
 *     "codes": ["hamming7264", "crc8atm"],
 *     "patterns": ["random", "burst"],
 *     "maxWeight": 8,               // error weights 1..maxWeight
 *     "trials": 200000,             // per (code, pattern, weight) cell
 *     "shardTrials": 50000,
 *     // fleet campaigns (kind "fleet" -- see fleet/fleet.hh):
 *     "years": 7,                   // horizon, as for reliability
 *     "epochHours": 730.5,          // epoch length (default monthly)
 *     "shardDimms": 50000,          // slots per shard (resume grain)
 *     "sampler" / "onDie":          // as for reliability
 *     "policies": {"replaceOnDue": true, "replacementLagEpochs": 1,
 *                  "retireAfterPermanentFaults": 0,
 *                  "canaryDueThreshold": 0},
 *     "cohorts": [{"name": "vendorA-secded", "scheme": "secded",
 *                  "dimms": 500000, "deployEpoch": 0, "canary": false,
 *                  "scrubIntervalHours": 0,
 *                  "fitOverrides": {...}}, ...],
 *     // either kind:
 *     "threads": 0                  // 0 = auto (env, then hardware)
 *   }
 */

#ifndef XED_CAMPAIGN_SPEC_HH
#define XED_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/units.hh"
#include "faultsim/engine.hh"
#include "faultsim/scheme.hh"
#include "fleet/fleet.hh"

namespace xed::campaign
{

enum class CampaignKind { Reliability, Detection, Fleet };

/** One swept parameter; values index the campaign's "points". */
struct SweepAxis
{
    /** "scalingRate", "detectionEscapeProb", "scrubIntervalHours" or
     *  "channels"; empty means no sweep (a single point 0). */
    std::string parameter;
    std::vector<double> values;

    bool active() const { return !parameter.empty(); }
    unsigned points() const { return active() ? values.size() : 1; }
};

/** One detection-campaign cell: a code x pattern x error weight. */
struct DetectionCell
{
    std::string code;  ///< "hamming7264" or "crc8atm"
    bool burst = false;
    unsigned weight = 1;
};

struct CampaignSpec
{
    std::string name;
    CampaignKind kind = CampaignKind::Reliability;
    std::uint64_t seed = 0;
    unsigned threads = 0;

    // Reliability campaigns.
    std::vector<faultsim::SchemeKind> schemes;
    std::uint64_t systems = 1000000;
    std::uint64_t shardSystems = 10000;
    double years = evaluationYears;
    unsigned channels = 4;
    double scrubIntervalHours = 0;
    faultsim::OnDieOptions onDie{};
    faultsim::FitTable fit{};
    SweepAxis sweep;

    // Detection campaigns.
    std::vector<std::string> codes;
    std::vector<std::string> patterns;
    unsigned maxWeight = 8;
    std::uint64_t trials = 200000;
    std::uint64_t shardTrials = 50000;

    // Fleet campaigns: cohorts + policies + epoch length (years and
    // onDie above are shared with reliability). The fleet is one cell
    // sharded by slot-index ranges of shardDimms.
    fleet::FleetSetup fleet;
    std::uint64_t shardDimms = 50000;

    /** Cells per sweep point: schemes, code x pattern x weight, or
     *  the single fleet cell. */
    unsigned cellCount() const;
    /** Systems (reliability), trials (detection) or fleet slots per
     *  cell. */
    std::uint64_t unitsPerCell() const
    {
        if (kind == CampaignKind::Fleet)
            return fleet.totalDimms();
        return kind == CampaignKind::Reliability ? systems : trials;
    }
    std::uint64_t unitsPerShard() const
    {
        if (kind == CampaignKind::Fleet)
            return shardDimms;
        return kind == CampaignKind::Reliability ? shardSystems
                                                 : shardTrials;
    }
};

/**
 * Parse and validate a spec document. Strict: unknown keys, unknown
 * scheme/code/pattern/parameter names, zero shard sizes and other
 * nonsense are errors, so --dry-run catches typos before simulating.
 */
std::optional<CampaignSpec> parseSpec(const json::Value &doc,
                                      std::string *error);

/** parseSpec() over the contents of @p path. */
std::optional<CampaignSpec> loadSpecFile(const std::string &path,
                                         std::string *error);

/**
 * Apply the bench-compatible environment overrides -- XED_MC_SYSTEMS,
 * XED_MC_SEED, XED_TRIALS -- to an already-parsed spec. Called before
 * hashing, so a resume under different overrides is rejected by the
 * spec-hash check instead of silently mixing shard geometries.
 * Malformed values throw std::runtime_error rather than being silently
 * ignored.
 */
void applyEnvOverrides(CampaignSpec &spec);

/**
 * Canonical JSON form of a resolved spec: fixed key order, every
 * default made explicit. Embedded in the result-store manifest and
 * hashed for resume validation.
 */
json::Value specToJson(const CampaignSpec &spec);

/** FNV-1a 64 hex digest of dump(specToJson(spec)). */
std::string specHash(const CampaignSpec &spec);

/**
 * One deterministic unit of work: simulate units [begin, end) of cell
 * @p cell at sweep point @p point. @p index is the global execution
 * and storage order.
 */
struct ShardTask
{
    std::uint64_t index = 0;
    unsigned point = 0;
    unsigned cell = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/** The fully expanded, totally ordered shard plan of a spec. */
struct Plan
{
    std::vector<ShardTask> tasks;
    unsigned points = 1;
    unsigned cells = 0;
    std::uint64_t shardsPerCell = 0;
};

Plan buildPlan(const CampaignSpec &spec);

/** Human/store label of a cell, e.g. "xed" or "crc8atm/burst/w4". */
std::string cellLabel(const CampaignSpec &spec, unsigned cell);

/** The detection cell decoded from its index. */
DetectionCell detectionCell(const CampaignSpec &spec, unsigned cell);

/**
 * The engine configuration for one sweep point (sweep value applied;
 * threads forced to 1 because the runner parallelizes over shards).
 */
faultsim::McConfig mcConfigFor(const CampaignSpec &spec, unsigned point);

/** On-die options for one sweep point (scaling-rate sweeps etc.). */
faultsim::OnDieOptions onDieFor(const CampaignSpec &spec, unsigned point);

/** The fleet engine configuration of a fleet spec (setup + seed +
 *  horizon + on-die options). */
fleet::FleetConfig fleetConfigFor(const CampaignSpec &spec);

} // namespace xed::campaign

#endif // XED_CAMPAIGN_SPEC_HH
