#include "campaign/forensics.hh"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <ostream>
#include <set>

#include "campaign/line_blocks.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "obs/trace.hh"

namespace xed::campaign
{

namespace
{

std::optional<obs::FailureClass>
failureClassFromName(const std::string &name)
{
    for (unsigned c = 0; c < obs::numFailureClasses; ++c) {
        const auto cls = static_cast<obs::FailureClass>(c);
        if (name == obs::failureClassName(cls))
            return cls;
    }
    return std::nullopt;
}

std::optional<obs::DetectionOutcome>
detectionOutcomeFromName(const std::string &name)
{
    for (unsigned o = 0; o < obs::numDetectionOutcomes; ++o) {
        const auto outcome = static_cast<obs::DetectionOutcome>(o);
        if (name == obs::detectionOutcomeName(outcome))
            return outcome;
    }
    return std::nullopt;
}

/** Set "failures" and "outcomes" members on @p record. */
void
setAttribution(json::Value &record,
               const obs::FailureAttribution &attribution)
{
    auto failures = json::Value::object();
    for (unsigned c = 0; c < obs::numFailureClasses; ++c) {
        auto perClass = json::Value::object();
        for (unsigned m = 0; m < obs::FailureAttribution::maxKindMasks;
             ++m) {
            const std::uint64_t count = attribution.byClassKinds[c][m];
            if (count)
                perClass.set(kindsMaskName(m), count);
        }
        if (perClass.size())
            failures.set(obs::failureClassName(
                             static_cast<obs::FailureClass>(c)),
                         std::move(perClass));
    }
    record.set("failures", std::move(failures));
    auto outcomes = json::Value::object();
    for (unsigned o = 0; o < obs::numDetectionOutcomes; ++o) {
        const std::uint64_t count = attribution.byOutcome[o];
        if (count)
            outcomes.set(obs::detectionOutcomeName(
                             static_cast<obs::DetectionOutcome>(o)),
                         count);
    }
    record.set("outcomes", std::move(outcomes));
}

} // namespace

bool
parseAttribution(const json::Value &record,
                 obs::FailureAttribution &attribution,
                 std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    const json::Value *failures = record.find("failures");
    if (!failures || !failures->isObject())
        return fail("forensics record missing failures object");
    for (const auto &[clsName, perClass] : failures->members()) {
        const auto cls = failureClassFromName(clsName);
        if (!cls || !perClass.isObject())
            return fail("unknown failure class \"" + clsName + "\"");
        for (const auto &[kinds, count] : perClass.members()) {
            const auto mask = kindsMaskFromName(kinds);
            if (!mask || !count.isIntegral())
                return fail("bad kind set \"" + kinds + "\"");
            attribution.byClassKinds[static_cast<unsigned>(*cls)]
                                    [*mask %
                                     obs::FailureAttribution::
                                         maxKindMasks] += count.asUint();
        }
    }
    const json::Value *outcomes = record.find("outcomes");
    if (!outcomes || !outcomes->isObject())
        return fail("forensics record missing outcomes object");
    for (const auto &[name, count] : outcomes->members()) {
        const auto outcome = detectionOutcomeFromName(name);
        if (!outcome || !count.isIntegral())
            return fail("unknown detection outcome \"" + name + "\"");
        attribution.byOutcome[static_cast<unsigned>(*outcome)] +=
            count.asUint();
    }
    return true;
}

namespace
{

/** A process-lifetime copy of an autopsy type label: decoded exemplars
 *  point at it, so they outlive the JSON they came from. */
const char *
internTypeLabel(const std::string &label)
{
    static std::mutex mutex;
    static std::set<std::string, std::less<>> labels;
    const std::lock_guard<std::mutex> lock(mutex);
    return labels.insert(label).first->c_str();
}

/** Append a record's well-formed "autopsy" exemplars to @p autopsy. */
void
parseAutopsy(const json::Value &record,
             std::vector<faultsim::AutopsyRecord> &autopsy)
{
    const json::Value *entries = record.find("autopsy");
    if (!entries || !entries->isArray())
        return;
    for (const auto &entry : entries->items()) {
        const json::Value *system = entry.find("system");
        const json::Value *time = entry.find("timeHours");
        const json::Value *failType = entry.find("type");
        const json::Value *kinds = entry.find("kinds");
        if (!system || !system->isIntegral() || !time ||
            !time->isNumber() || !failType || !failType->isString() ||
            !kinds || !kinds->isString())
            continue;
        faultsim::AutopsyRecord rec;
        rec.system = system->asUint();
        rec.timeHours = time->asDouble();
        rec.type = internTypeLabel(failType->asString());
        if (const auto mask = kindsMaskFromName(kinds->asString()))
            rec.kindsMask = static_cast<std::uint8_t>(*mask);
        if (const json::Value *cls = entry.find("class");
            cls && cls->isString())
            if (const auto parsed = failureClassFromName(cls->asString()))
                rec.cls = *parsed;
        if (const json::Value *outcome = entry.find("outcome");
            outcome && outcome->isString())
            if (const auto parsed =
                    detectionOutcomeFromName(outcome->asString()))
                rec.outcome = *parsed;
        autopsy.push_back(rec);
    }
}

json::Value
autopsyJson(const std::vector<faultsim::AutopsyRecord> &autopsy)
{
    auto out = json::Value::array();
    for (const auto &record : autopsy) {
        auto entry = json::Value::object();
        entry.set("system", record.system);
        entry.set("timeHours", record.timeHours);
        entry.set("type", record.type);
        entry.set("kinds", kindsMaskName(record.kindsMask));
        entry.set("class", obs::failureClassName(record.cls));
        entry.set("outcome", obs::detectionOutcomeName(record.outcome));
        out.push(std::move(entry));
    }
    return out;
}

} // namespace

std::string
forensicsPath(const std::string &storePath)
{
    return storePath + ".forensics.jsonl";
}

std::string
kindsMaskName(unsigned mask)
{
    if (mask == 0)
        return "none";
    std::string out;
    for (unsigned k = 0; k < faultsim::numFaultKinds; ++k) {
        if (!(mask & (1u << k)))
            continue;
        if (!out.empty())
            out += '+';
        out += faultsim::faultKindName(
            static_cast<faultsim::FaultKind>(k));
    }
    return out;
}

std::optional<unsigned>
kindsMaskFromName(const std::string &name)
{
    if (name == "none")
        return 0u;
    unsigned mask = 0;
    std::size_t pos = 0;
    while (pos <= name.size()) {
        const std::size_t sep = name.find('+', pos);
        const std::string part = name.substr(
            pos, sep == std::string::npos ? std::string::npos
                                          : sep - pos);
        bool known = false;
        for (unsigned k = 0; k < faultsim::numFaultKinds; ++k) {
            if (part == faultsim::faultKindName(
                            static_cast<faultsim::FaultKind>(k))) {
                mask |= 1u << k;
                known = true;
                break;
            }
        }
        if (!known)
            return std::nullopt;
        if (sep == std::string::npos)
            break;
        pos = sep + 1;
    }
    return mask;
}

json::Value
attributionJson(const obs::FailureAttribution &attribution)
{
    auto out = json::Value::object();
    setAttribution(out, attribution);
    return out;
}

json::Value
forensicsShardRecord(const ShardTask &task, const faultsim::McResult &mc)
{
    auto record = json::Value::object();
    record.set("type", "forensics");
    record.set("index", task.index);
    record.set("point", task.point);
    record.set("cell", task.cell);
    setAttribution(record, mc.attribution);
    record.set("autopsy", autopsyJson(mc.autopsy));
    return record;
}

json::Value
forensicsSummaryRecord(unsigned point, unsigned cell,
                       const std::string &label,
                       const faultsim::McResult &mc)
{
    auto record = json::Value::object();
    record.set("type", "forensics-summary");
    record.set("point", point);
    record.set("cell", cell);
    record.set("label", label);
    setAttribution(record, mc.attribution);
    record.set("autopsy", autopsyJson(mc.autopsy));
    return record;
}

std::optional<faultsim::McResult>
decodeForensicsRecord(const ShardTask &task, const json::Value &record,
                      std::string *error)
{
    const auto is = [&](const char *key, std::uint64_t want) {
        const json::Value *v = record.find(key);
        return v && v->isIntegral() && v->asUint() == want;
    };
    const json::Value *type = record.find("type");
    if (!type || !type->isString() || type->asString() != "forensics" ||
        !is("index", task.index) || !is("point", task.point) ||
        !is("cell", task.cell)) {
        if (error)
            *error = "forensics record out of plan order (expected shard " +
                     std::to_string(task.index) + ")";
        return std::nullopt;
    }
    faultsim::McResult part;
    if (!parseAttribution(record, part.attribution, error))
        return std::nullopt;
    parseAutopsy(record, part.autopsy);
    return part;
}

namespace
{

/** One sidecar line, decoded on its own. */
struct ForensicsLine
{
    /** Record: a "forensics" record; Summary: a forensics-summary,
     *  skipped; End: a torn or foreign line, which ends the prefix. */
    enum class Kind { Record, Summary, End };
    Kind kind = Kind::End;
    /** The plan position the record was decoded against: its own
     *  "index", or the plan's size when that is not a plan position. */
    std::uint64_t position = 0;
    std::optional<faultsim::McResult> part;
    std::string error; ///< when part is empty
};

/** A record is decoded against the plan task its own "index" names.
 *  The fold keeps that decode only when it is the next position, the
 *  task a serial read decodes the record against; a record out of plan
 *  order (an error) is decoded again against that task. */
ForensicsLine
decodeForensicsLine(std::string_view line, const Plan &plan)
{
    ForensicsLine out;
    const auto record = json::parse(line);
    const json::Value *type = record ? record->find("type") : nullptr;
    if (!type || !type->isString())
        return out;
    if (type->asString() == "forensics-summary") {
        out.kind = ForensicsLine::Kind::Summary;
        return out;
    }
    if (type->asString() != "forensics")
        return out;
    out.kind = ForensicsLine::Kind::Record;
    const json::Value *index = record->find("index");
    out.position = index && index->isIntegral() &&
                           index->asUint() < plan.tasks.size()
                       ? index->asUint()
                       : plan.tasks.size();
    if (out.position < plan.tasks.size())
        out.part = decodeForensicsRecord(plan.tasks[out.position], *record,
                                         &out.error);
    return out;
}

LoadedForensics
readForensics(const std::string &path, const Plan &plan,
              std::uint64_t maxShards, unsigned threads)
{
    LoadedForensics loaded;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        loaded.error = "cannot open " + path;
        return loaded;
    }
    loaded.cells.resize(static_cast<std::size_t>(plan.points) * plan.cells);
    const std::uint64_t limit =
        std::min<std::uint64_t>(maxShards, plan.tasks.size());
    if (limit == 0) {
        loaded.ok = true;
        return loaded;
    }
    // A torn or foreign line ends the valid prefix quietly, mirroring
    // the store loader's kill tolerance. Summaries follow the shard
    // records; resume rewrites them, so they don't extend validBytes.
    const auto fold = [&](ForensicsLine &decoded, std::string_view line,
                          const LineSpan &at) {
        if (decoded.kind == ForensicsLine::Kind::Summary)
            return true;
        if (decoded.kind == ForensicsLine::Kind::End)
            return false;
        const ShardTask &task = plan.tasks[loaded.shardRecords];
        if (decoded.position != loaded.shardRecords)
            decoded.part = decodeForensicsRecord(task, *json::parse(line),
                                                 &decoded.error);
        if (!decoded.part) {
            loaded.error = path + ": " + decoded.error;
            return false;
        }
        loaded.cells[task.point * plan.cells + task.cell].merge(*decoded.part);
        ++loaded.shardRecords;
        loaded.validBytes = at.end;
        return loaded.shardRecords < limit;
    };
    try {
        foldLineBlocks<ForensicsLine>(
            in, 0,
            [&] { return resolveWorkerThreads(threads, plan.tasks.size()); },
            [&](std::string_view text, const LineSpan &) {
                return decodeForensicsLine(text, plan);
            },
            fold);
    } catch (const std::exception &e) {
        loaded.error = path + ": " + e.what();
    }
    loaded.ok = loaded.error.empty();
    return loaded;
}

} // namespace

LoadedForensics
loadForensics(const std::string &path, const Plan &plan,
              std::uint64_t maxShards, unsigned threads)
{
    XED_TRACE_SPAN_LATE_ARG(span, "forensics.load", "io", "records");
    LoadedForensics loaded = readForensics(path, plan, maxShards, threads);
    XED_TRACE_SET_ARG(span, loaded.shardRecords);
    return loaded;
}

bool
printForensics(const LoadedForensics &forensics, const CampaignSpec &spec,
               const Plan &plan, std::ostream &os, std::string *error)
{
    if (!forensics.ok) {
        if (error)
            *error = forensics.error;
        return false;
    }
    const std::vector<faultsim::McResult> &cells = forensics.cells;
    for (unsigned point = 0; point < plan.points; ++point) {
        bool any = false;
        for (unsigned cell = 0; cell < plan.cells; ++cell)
            any |= cells[point * plan.cells + cell].attribution.total() >
                   0;
        if (!any)
            continue;
        std::string title = "Failure forensics: " + spec.name;
        if (spec.sweep.active())
            title += ": " + spec.sweep.parameter + " = " +
                     json::formatDouble(spec.sweep.values[point]);

        Table kindsTable(
            {"Scheme", "Class", "Fault kinds", "Failed systems"});
        Table outcomeTable(
            {"Scheme", "Detection outcome", "Failed systems"});
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            const auto &attribution =
                cells[point * plan.cells + cell].attribution;
            const std::string label = cellLabel(spec, cell);
            for (unsigned c = 0; c < obs::numFailureClasses; ++c)
                for (unsigned m = 0;
                     m < obs::FailureAttribution::maxKindMasks; ++m)
                    if (const auto count =
                            attribution.byClassKinds[c][m])
                        kindsTable.addRow(
                            {label,
                             obs::failureClassName(
                                 static_cast<obs::FailureClass>(c)),
                             kindsMaskName(m), std::to_string(count)});
            for (unsigned o = 0; o < obs::numDetectionOutcomes; ++o)
                if (const auto count = attribution.byOutcome[o])
                    outcomeTable.addRow(
                        {label,
                         obs::detectionOutcomeName(
                             static_cast<obs::DetectionOutcome>(o)),
                         std::to_string(count)});
        }
        kindsTable.print(os, title);
        os << "\n";
        outcomeTable.print(os, title + " (detection outcomes)");
        os << "\n";

        Table autopsyTable({"Scheme", "System", "Time (years)", "Type",
                            "Fault kinds", "Class", "Outcome"});
        constexpr std::size_t exemplarsPerCell = 4;
        bool haveAutopsy = false;
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            const auto &exemplars =
                cells[point * plan.cells + cell].autopsy;
            const std::string label = cellLabel(spec, cell);
            for (std::size_t i = 0;
                 i < std::min(exemplars.size(), exemplarsPerCell); ++i) {
                const auto &rec = exemplars[i];
                autopsyTable.addRow(
                    {label, std::to_string(rec.system),
                     Table::fmt(rec.timeHours / hoursPerYear, 2),
                     rec.type, kindsMaskName(rec.kindsMask),
                     obs::failureClassName(rec.cls),
                     obs::detectionOutcomeName(rec.outcome)});
                haveAutopsy = true;
            }
        }
        if (haveAutopsy) {
            autopsyTable.print(os,
                               title + " (autopsy exemplars, first " +
                                   std::to_string(exemplarsPerCell) +
                                   " per scheme)");
            os << "\n";
        }
    }
    return true;
}

} // namespace xed::campaign
