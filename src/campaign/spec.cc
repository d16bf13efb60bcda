#include "campaign/spec.hh"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/env.hh"

namespace xed::campaign
{

namespace
{

using faultsim::FaultKind;
using faultsim::SchemeKind;

constexpr SchemeKind allSchemeKinds[] = {
    SchemeKind::NonEcc,
    SchemeKind::Secded,
    SchemeKind::Xed,
    SchemeKind::Chipkill,
    SchemeKind::ChipkillX8Lockstep,
    SchemeKind::DoubleChipkill,
    SchemeKind::XedChipkill,
    SchemeKind::DoubleChipkillLockstep,
    SchemeKind::XedChipkillLockstep,
};

constexpr FaultKind allFaultKinds[] = {
    FaultKind::Bit,    FaultKind::Word,      FaultKind::Column,
    FaultKind::Row,    FaultKind::Bank,      FaultKind::MultiBank,
    FaultKind::MultiRank,
};

constexpr const char *sweepParameters[] = {
    "scalingRate",
    "detectionEscapeProb",
    "scrubIntervalHours",
    "channels",
};

/** Accumulates the first validation error; all getters no-op after. */
class SpecReader
{
  public:
    explicit SpecReader(const json::Value &doc) : doc_(doc) {}

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    void
    fail(const std::string &message)
    {
        if (error_.empty())
            error_ = message;
    }

    /** Reject any member not consumed by a getter (typo defense). */
    void
    finish()
    {
        if (!ok())
            return;
        for (const auto &[key, value] : doc_.members()) {
            bool known = false;
            for (const auto &seen : consumed_)
                known |= seen == key;
            if (!known) {
                fail("unknown spec key \"" + key + "\"");
                return;
            }
        }
    }

    const json::Value *
    get(const std::string &key)
    {
        consumed_.push_back(key);
        return doc_.find(key);
    }

    std::string
    getString(const std::string &key, const std::string &fallback,
              bool required = false)
    {
        const json::Value *v = get(key);
        if (!v) {
            if (required)
                fail("missing required key \"" + key + "\"");
            return fallback;
        }
        if (!v->isString()) {
            fail("\"" + key + "\" must be a string");
            return fallback;
        }
        return v->asString();
    }

    std::uint64_t
    getUint(const std::string &key, std::uint64_t fallback,
            bool required = false)
    {
        const json::Value *v = get(key);
        if (!v) {
            if (required)
                fail("missing required key \"" + key + "\"");
            return fallback;
        }
        if (!v->isIntegral() || v->asDouble() < 0) {
            fail("\"" + key + "\" must be a non-negative integer");
            return fallback;
        }
        return v->asUint();
    }

    /** getUint() for 32-bit fields: a value that would not survive
     *  the narrowing (4294967300 -> 4) is an error, not a wrap. */
    unsigned
    getUint32(const std::string &key, unsigned fallback)
    {
        const std::uint64_t value = getUint(key, fallback);
        if (value > std::numeric_limits<unsigned>::max()) {
            fail("\"" + key + "\" must be at most " +
                 std::to_string(std::numeric_limits<unsigned>::max()));
            return fallback;
        }
        return static_cast<unsigned>(value);
    }

    double
    getDouble(const std::string &key, double fallback)
    {
        const json::Value *v = get(key);
        if (!v)
            return fallback;
        if (!v->isNumber()) {
            fail("\"" + key + "\" must be a number");
            return fallback;
        }
        return v->asDouble();
    }

    bool
    getBool(const std::string &key, bool fallback)
    {
        const json::Value *v = get(key);
        if (!v)
            return fallback;
        if (!v->isBool()) {
            fail("\"" + key + "\" must be a boolean");
            return fallback;
        }
        return v->asBool();
    }

  private:
    const json::Value &doc_;
    std::vector<std::string> consumed_;
    std::string error_;
};

std::optional<SchemeKind>
parseSchemeKind(const std::string &name)
{
    for (const SchemeKind kind : allSchemeKinds)
        if (name == faultsim::schemeKindName(kind))
            return kind;
    return std::nullopt;
}

std::optional<FaultKind>
parseFaultKind(const std::string &name)
{
    for (const FaultKind kind : allFaultKinds)
        if (name == faultsim::faultKindName(kind))
            return kind;
    return std::nullopt;
}

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/**
 * The Poisson fault-count sampler named in the canonical form of
 * reliability and fleet specs. Knuth is the only one, but the key
 * stays in specToJson: it is part of every spec hash and store
 * manifest, so dropping it would change their bytes.
 */
constexpr const char *samplerName = "knuth";

/** "sampler" key shared by reliability and fleet specs. */
void
parseSamplerKey(SpecReader &reader)
{
    const std::string name = reader.getString("sampler", samplerName);
    if (reader.ok() && name != samplerName)
        reader.fail("\"sampler\" must be \"knuth\", got \"" + name +
                    "\"");
}

/** "onDie" object shared by reliability and fleet specs. */
void
parseOnDieKey(SpecReader &reader, faultsim::OnDieOptions &onDie)
{
    const json::Value *doc = reader.get("onDie");
    if (!doc)
        return;
    if (!doc->isObject()) {
        reader.fail("\"onDie\" must be an object");
        return;
    }
    SpecReader sub(*doc);
    onDie.present = sub.getBool("present", onDie.present);
    onDie.scalingRate = sub.getDouble("scalingRate", onDie.scalingRate);
    onDie.detectionEscapeProb =
        sub.getDouble("detectionEscapeProb", onDie.detectionEscapeProb);
    sub.finish();
    if (!sub.ok())
        reader.fail("onDie: " + sub.error());
}

/** "fitOverrides" object: per-kind FIT-rate overrides applied onto
 *  @p fit (Table I defaults, or a cohort's vendor profile). */
void
parseFitOverridesKey(SpecReader &reader, faultsim::FitTable &fit)
{
    const json::Value *overrides = reader.get("fitOverrides");
    if (!overrides)
        return;
    if (!overrides->isObject()) {
        reader.fail("\"fitOverrides\" must be an object");
        return;
    }
    for (const auto &[name, entry] : overrides->members()) {
        const auto kind = parseFaultKind(name);
        if (!kind) {
            reader.fail("unknown fault kind \"" + name +
                        "\" in fitOverrides");
            return;
        }
        if (!entry.isObject()) {
            reader.fail("fitOverrides entries must be objects");
            return;
        }
        SpecReader sub(entry);
        auto &slot = fit.entry(*kind);
        slot.transient = sub.getDouble("transient", slot.transient);
        slot.permanent = sub.getDouble("permanent", slot.permanent);
        sub.finish();
        if (!sub.ok()) {
            reader.fail("fitOverrides." + name + ": " + sub.error());
            return;
        }
        if (slot.transient < 0 || slot.permanent < 0) {
            reader.fail("fitOverrides." + name +
                        ": FIT rates must be >= 0");
            return;
        }
    }
}

void
parseReliabilityKeys(SpecReader &reader, CampaignSpec &spec)
{
    const json::Value *schemes = reader.get("schemes");
    if (!schemes || !schemes->isArray() || schemes->size() == 0) {
        reader.fail("reliability spec requires a non-empty \"schemes\" "
                    "array");
        return;
    }
    for (const auto &item : schemes->items()) {
        if (!item.isString()) {
            reader.fail("\"schemes\" entries must be strings");
            return;
        }
        const auto kind = parseSchemeKind(item.asString());
        if (!kind) {
            reader.fail("unknown scheme \"" + item.asString() + "\"");
            return;
        }
        spec.schemes.push_back(*kind);
    }

    spec.systems = reader.getUint("systems", spec.systems);
    spec.shardSystems = reader.getUint("shardSystems", spec.shardSystems);
    spec.years = reader.getDouble("years", spec.years);
    spec.channels = reader.getUint32("channels", spec.channels);
    spec.scrubIntervalHours =
        reader.getDouble("scrubIntervalHours", spec.scrubIntervalHours);

    parseSamplerKey(reader);
    parseOnDieKey(reader, spec.onDie);
    parseFitOverridesKey(reader, spec.fit);
    if (!reader.ok())
        return;

    if (const json::Value *sweep = reader.get("sweep")) {
        if (!sweep->isObject()) {
            reader.fail("\"sweep\" must be an object");
            return;
        }
        SpecReader sub(*sweep);
        spec.sweep.parameter = sub.getString("parameter", "", true);
        const json::Value *values = sub.get("values");
        sub.finish();
        if (!sub.ok()) {
            reader.fail("sweep: " + sub.error());
            return;
        }
        bool knownParameter = false;
        for (const char *parameter : sweepParameters)
            knownParameter |= spec.sweep.parameter == parameter;
        if (!knownParameter) {
            reader.fail("unknown sweep parameter \"" +
                        spec.sweep.parameter + "\"");
            return;
        }
        if (!values || !values->isArray() || values->size() == 0) {
            reader.fail("sweep requires a non-empty \"values\" array");
            return;
        }
        for (const auto &value : values->items()) {
            if (!value.isNumber()) {
                reader.fail("sweep values must be numbers");
                return;
            }
            spec.sweep.values.push_back(value.asDouble());
        }
        if (spec.sweep.parameter == "channels") {
            for (const double v : spec.sweep.values) {
                if (v < 1 || v != static_cast<unsigned>(v)) {
                    reader.fail("channels sweep values must be positive "
                                "integers");
                    return;
                }
            }
        }
    }

    if (reader.ok()) {
        if (spec.shardSystems == 0)
            reader.fail("\"shardSystems\" must be > 0");
        else if (spec.channels == 0)
            reader.fail("\"channels\" must be > 0");
        else if (spec.years <= 0)
            reader.fail("\"years\" must be > 0");
    }
}

void
parseDetectionKeys(SpecReader &reader, CampaignSpec &spec)
{
    const json::Value *codes = reader.get("codes");
    if (!codes || !codes->isArray() || codes->size() == 0) {
        reader.fail("detection spec requires a non-empty \"codes\" array");
        return;
    }
    for (const auto &item : codes->items()) {
        const std::string name = item.isString() ? item.asString() : "";
        if (name != "hamming7264" && name != "crc8atm") {
            reader.fail("unknown code \"" + name +
                        "\" (expected hamming7264 or crc8atm)");
            return;
        }
        spec.codes.push_back(name);
    }

    if (const json::Value *patterns = reader.get("patterns")) {
        if (!patterns->isArray() || patterns->size() == 0) {
            reader.fail("\"patterns\" must be a non-empty array");
            return;
        }
        for (const auto &item : patterns->items()) {
            const std::string name =
                item.isString() ? item.asString() : "";
            if (name != "random" && name != "burst") {
                reader.fail("unknown pattern \"" + name +
                            "\" (expected random or burst)");
                return;
            }
            spec.patterns.push_back(name);
        }
    } else {
        spec.patterns = {"random", "burst"};
    }

    spec.maxWeight = reader.getUint32("maxWeight", spec.maxWeight);
    spec.trials = reader.getUint("trials", spec.trials);
    spec.shardTrials = reader.getUint("shardTrials", spec.shardTrials);

    if (reader.ok()) {
        if (spec.maxWeight < 1 || spec.maxWeight > 72)
            reader.fail("\"maxWeight\" must be in [1, 72]");
        else if (spec.shardTrials == 0)
            reader.fail("\"shardTrials\" must be > 0");
    }
}

void
parseFleetKeys(SpecReader &reader, CampaignSpec &spec)
{
    spec.years = reader.getDouble("years", spec.years);
    spec.fleet.epochHours =
        reader.getDouble("epochHours", spec.fleet.epochHours);
    spec.shardDimms = reader.getUint("shardDimms", spec.shardDimms);
    parseSamplerKey(reader);
    parseOnDieKey(reader, spec.onDie);
    if (!reader.ok())
        return;

    if (const json::Value *policies = reader.get("policies")) {
        if (!policies->isObject()) {
            reader.fail("\"policies\" must be an object");
            return;
        }
        SpecReader sub(*policies);
        auto &p = spec.fleet.policies;
        p.replaceOnDue = sub.getBool("replaceOnDue", p.replaceOnDue);
        p.replacementLagEpochs =
            sub.getUint32("replacementLagEpochs", p.replacementLagEpochs);
        p.retireAfterPermanentFaults = sub.getUint32(
            "retireAfterPermanentFaults", p.retireAfterPermanentFaults);
        p.canaryDueThreshold =
            sub.getDouble("canaryDueThreshold", p.canaryDueThreshold);
        sub.finish();
        if (!sub.ok()) {
            reader.fail("policies: " + sub.error());
            return;
        }
        if (p.canaryDueThreshold < 0 || p.canaryDueThreshold > 1) {
            reader.fail("policies.canaryDueThreshold must be in [0, 1]");
            return;
        }
    }

    const json::Value *cohorts = reader.get("cohorts");
    if (!cohorts || !cohorts->isArray() || cohorts->size() == 0) {
        reader.fail("fleet spec requires a non-empty \"cohorts\" array");
        return;
    }
    for (const auto &item : cohorts->items()) {
        if (!item.isObject()) {
            reader.fail("\"cohorts\" entries must be objects");
            return;
        }
        SpecReader sub(item);
        fleet::FleetCohort cohort;
        cohort.name = sub.getString("name", "", true);
        if (sub.ok() && !validName(cohort.name))
            sub.fail("cohort \"name\" must be non-empty [A-Za-z0-9_.-]");
        const std::string schemeName =
            sub.getString("scheme", "", true);
        if (sub.ok()) {
            if (const auto kind = parseSchemeKind(schemeName))
                cohort.scheme = *kind;
            else
                sub.fail("unknown scheme \"" + schemeName + "\"");
        }
        cohort.dimms = sub.getUint("dimms", 0, true);
        if (sub.ok() && cohort.dimms == 0)
            sub.fail("cohort \"dimms\" must be > 0");
        cohort.deployEpoch =
            sub.getUint32("deployEpoch", cohort.deployEpoch);
        cohort.canary = sub.getBool("canary", cohort.canary);
        cohort.scrubIntervalHours = sub.getDouble(
            "scrubIntervalHours", cohort.scrubIntervalHours);
        parseFitOverridesKey(sub, cohort.fit);
        sub.finish();
        if (!sub.ok()) {
            reader.fail("cohorts[" +
                        std::to_string(spec.fleet.cohorts.size()) +
                        "]: " + sub.error());
            return;
        }
        for (const auto &existing : spec.fleet.cohorts) {
            if (existing.name == cohort.name) {
                reader.fail("duplicate cohort name \"" + cohort.name +
                            "\"");
                return;
            }
        }
        spec.fleet.cohorts.push_back(std::move(cohort));
    }

    if (!reader.ok())
        return;
    if (spec.years <= 0) {
        reader.fail("\"years\" must be > 0");
        return;
    }
    if (!(spec.fleet.epochHours > 0)) {
        reader.fail("\"epochHours\" must be > 0");
        return;
    }
    if (spec.shardDimms == 0) {
        reader.fail("\"shardDimms\" must be > 0");
        return;
    }
    const unsigned epochs = fleetConfigFor(spec).epochs();
    for (const auto &cohort : spec.fleet.cohorts) {
        if (cohort.deployEpoch >= epochs) {
            reader.fail("cohort \"" + cohort.name + "\": deployEpoch " +
                        std::to_string(cohort.deployEpoch) +
                        " is outside the " + std::to_string(epochs) +
                        "-epoch horizon");
            return;
        }
    }
}

/** FNV-1a 64-bit. */
std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001B3ull;
    }
    return hash;
}

} // namespace

unsigned
CampaignSpec::cellCount() const
{
    if (kind == CampaignKind::Reliability)
        return static_cast<unsigned>(schemes.size());
    if (kind == CampaignKind::Fleet)
        return 1; // one fleet, sharded by slot-index ranges
    return static_cast<unsigned>(codes.size() * patterns.size()) *
           maxWeight;
}

std::optional<CampaignSpec>
parseSpec(const json::Value &doc, std::string *error)
{
    if (!doc.isObject()) {
        if (error)
            *error = "spec must be a JSON object";
        return std::nullopt;
    }
    SpecReader reader(doc);
    CampaignSpec spec;

    spec.name = reader.getString("name", "", true);
    if (reader.ok() && !validName(spec.name))
        reader.fail("\"name\" must be non-empty [A-Za-z0-9_.-]");

    const std::string kind = reader.getString("kind", "reliability");
    if (kind == "reliability")
        spec.kind = CampaignKind::Reliability;
    else if (kind == "detection")
        spec.kind = CampaignKind::Detection;
    else if (kind == "fleet")
        spec.kind = CampaignKind::Fleet;
    else
        reader.fail("unknown campaign kind \"" + kind + "\"");

    spec.seed = reader.getUint("seed", 0, true);
    spec.threads = reader.getUint32("threads", 0);

    if (reader.ok()) {
        if (spec.kind == CampaignKind::Reliability)
            parseReliabilityKeys(reader, spec);
        else if (spec.kind == CampaignKind::Fleet)
            parseFleetKeys(reader, spec);
        else
            parseDetectionKeys(reader, spec);
    }
    reader.finish();

    if (!reader.ok()) {
        if (error)
            *error = reader.error();
        return std::nullopt;
    }
    return spec;
}

std::optional<CampaignSpec>
loadSpecFile(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open spec file " + path;
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string parseError;
    const auto doc = json::parse(text.str(), &parseError);
    if (!doc) {
        if (error)
            *error = path + ": " + parseError;
        return std::nullopt;
    }
    auto spec = parseSpec(*doc, &parseError);
    if (!spec && error)
        *error = path + ": " + parseError;
    return spec;
}

void
applyEnvOverrides(CampaignSpec &spec)
{
    const auto readEnv = [](const char *name, std::uint64_t &target) {
        // envU64 throws on garbage (strict base-10), so a typo'd
        // override aborts the campaign instead of silently running
        // with the spec's value.
        if (const auto parsed = envU64(name); parsed && *parsed > 0)
            target = *parsed;
    };
    if (spec.kind == CampaignKind::Reliability) {
        readEnv("XED_MC_SYSTEMS", spec.systems);
    } else if (spec.kind == CampaignKind::Detection) {
        readEnv("XED_TRIALS", spec.trials);
    }
    readEnv("XED_MC_SEED", spec.seed);
}

json::Value
specToJson(const CampaignSpec &spec)
{
    auto doc = json::Value::object();
    doc.set("name", spec.name);
    doc.set("kind", spec.kind == CampaignKind::Reliability
                        ? "reliability"
                        : spec.kind == CampaignKind::Fleet ? "fleet"
                                                           : "detection");
    doc.set("seed", spec.seed);
    if (spec.kind == CampaignKind::Fleet) {
        doc.set("years", spec.years);
        doc.set("epochHours", spec.fleet.epochHours);
        doc.set("shardDimms", spec.shardDimms);
        doc.set("sampler", samplerName);
        auto onDie = json::Value::object();
        onDie.set("present", spec.onDie.present);
        onDie.set("scalingRate", spec.onDie.scalingRate);
        onDie.set("detectionEscapeProb", spec.onDie.detectionEscapeProb);
        doc.set("onDie", std::move(onDie));
        auto policies = json::Value::object();
        policies.set("replaceOnDue", spec.fleet.policies.replaceOnDue);
        policies.set("replacementLagEpochs",
                     spec.fleet.policies.replacementLagEpochs);
        policies.set("retireAfterPermanentFaults",
                     spec.fleet.policies.retireAfterPermanentFaults);
        policies.set("canaryDueThreshold",
                     spec.fleet.policies.canaryDueThreshold);
        doc.set("policies", std::move(policies));
        auto cohorts = json::Value::array();
        for (const auto &cohort : spec.fleet.cohorts) {
            auto entry = json::Value::object();
            entry.set("name", cohort.name);
            entry.set("scheme", faultsim::schemeKindName(cohort.scheme));
            entry.set("dimms", cohort.dimms);
            entry.set("deployEpoch", cohort.deployEpoch);
            entry.set("canary", cohort.canary);
            entry.set("scrubIntervalHours", cohort.scrubIntervalHours);
            auto fit = json::Value::object();
            for (const auto kind : allFaultKinds) {
                auto rates = json::Value::object();
                rates.set("transient", cohort.fit.entry(kind).transient);
                rates.set("permanent", cohort.fit.entry(kind).permanent);
                fit.set(faultsim::faultKindName(kind), std::move(rates));
            }
            entry.set("fitOverrides", std::move(fit));
            cohorts.push(std::move(entry));
        }
        doc.set("cohorts", std::move(cohorts));
        return doc;
    }
    if (spec.kind == CampaignKind::Reliability) {
        auto schemes = json::Value::array();
        for (const auto kind : spec.schemes)
            schemes.push(faultsim::schemeKindName(kind));
        doc.set("schemes", std::move(schemes));
        doc.set("systems", spec.systems);
        doc.set("shardSystems", spec.shardSystems);
        doc.set("years", spec.years);
        doc.set("channels", spec.channels);
        doc.set("scrubIntervalHours", spec.scrubIntervalHours);
        doc.set("sampler", samplerName);
        auto onDie = json::Value::object();
        onDie.set("present", spec.onDie.present);
        onDie.set("scalingRate", spec.onDie.scalingRate);
        onDie.set("detectionEscapeProb", spec.onDie.detectionEscapeProb);
        doc.set("onDie", std::move(onDie));
        auto fit = json::Value::object();
        for (const auto kind : allFaultKinds) {
            auto entry = json::Value::object();
            entry.set("transient", spec.fit.entry(kind).transient);
            entry.set("permanent", spec.fit.entry(kind).permanent);
            fit.set(faultsim::faultKindName(kind), std::move(entry));
        }
        // Emitted under the parseable key, so the canonical form in a
        // store manifest re-parses to the identical spec (report,
        // resume-validation and hashing all rely on this round-trip).
        doc.set("fitOverrides", std::move(fit));
        if (spec.sweep.active()) {
            auto sweep = json::Value::object();
            sweep.set("parameter", spec.sweep.parameter);
            auto values = json::Value::array();
            for (const double v : spec.sweep.values)
                values.push(json::Value(v));
            sweep.set("values", std::move(values));
            doc.set("sweep", std::move(sweep));
        }
    } else {
        auto codes = json::Value::array();
        for (const auto &code : spec.codes)
            codes.push(code);
        doc.set("codes", std::move(codes));
        auto patterns = json::Value::array();
        for (const auto &pattern : spec.patterns)
            patterns.push(pattern);
        doc.set("patterns", std::move(patterns));
        doc.set("maxWeight", spec.maxWeight);
        doc.set("trials", spec.trials);
        doc.set("shardTrials", spec.shardTrials);
    }
    return doc;
}

std::string
specHash(const CampaignSpec &spec)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(json::dump(specToJson(spec)))));
    return buf;
}

Plan
buildPlan(const CampaignSpec &spec)
{
    Plan plan;
    plan.points = spec.sweep.points();
    plan.cells = spec.cellCount();
    const std::uint64_t units = spec.unitsPerCell();
    const std::uint64_t perShard = spec.unitsPerShard();
    plan.shardsPerCell = (units + perShard - 1) / perShard;
    for (unsigned point = 0; point < plan.points; ++point) {
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            for (std::uint64_t s = 0; s < plan.shardsPerCell; ++s) {
                ShardTask task;
                task.index = plan.tasks.size();
                task.point = point;
                task.cell = cell;
                task.begin = s * perShard;
                task.end = std::min(units, task.begin + perShard);
                plan.tasks.push_back(task);
            }
        }
    }
    return plan;
}

std::string
cellLabel(const CampaignSpec &spec, unsigned cell)
{
    if (spec.kind == CampaignKind::Reliability)
        return faultsim::schemeKindName(spec.schemes[cell]);
    if (spec.kind == CampaignKind::Fleet)
        return "fleet";
    const DetectionCell d = detectionCell(spec, cell);
    return d.code + (d.burst ? "/burst/w" : "/random/w") +
           std::to_string(d.weight);
}

DetectionCell
detectionCell(const CampaignSpec &spec, unsigned cell)
{
    DetectionCell out;
    out.weight = cell % spec.maxWeight + 1;
    const unsigned pair = cell / spec.maxWeight;
    const unsigned pattern = pair % spec.patterns.size();
    out.code = spec.codes[pair / spec.patterns.size()];
    out.burst = spec.patterns[pattern] == "burst";
    return out;
}

faultsim::McConfig
mcConfigFor(const CampaignSpec &spec, unsigned point)
{
    faultsim::McConfig cfg;
    cfg.systems = spec.systems;
    cfg.years = spec.years;
    cfg.channels = spec.channels;
    cfg.seed = spec.seed;
    cfg.scrubIntervalHours = spec.scrubIntervalHours;
    cfg.fit = spec.fit;
    cfg.threads = 1; // the campaign runner parallelizes over shards
    if (spec.sweep.active()) {
        const double value = spec.sweep.values[point];
        if (spec.sweep.parameter == "scrubIntervalHours")
            cfg.scrubIntervalHours = value;
        else if (spec.sweep.parameter == "channels")
            cfg.channels = static_cast<unsigned>(value);
    }
    return cfg;
}

fleet::FleetConfig
fleetConfigFor(const CampaignSpec &spec)
{
    fleet::FleetConfig config;
    config.setup = spec.fleet;
    config.seed = spec.seed;
    config.years = spec.years;
    config.onDie = spec.onDie;
    return config;
}

faultsim::OnDieOptions
onDieFor(const CampaignSpec &spec, unsigned point)
{
    faultsim::OnDieOptions onDie = spec.onDie;
    if (spec.sweep.active()) {
        const double value = spec.sweep.values[point];
        if (spec.sweep.parameter == "scalingRate")
            onDie.scalingRate = value;
        else if (spec.sweep.parameter == "detectionEscapeProb")
            onDie.detectionEscapeProb = value;
    }
    return onDie;
}

} // namespace xed::campaign
