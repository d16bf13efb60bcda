#include "campaign/store.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/forensics.hh"
#include "campaign/line_blocks.hh"
#include "common/env.hh"
#include "obs/trace.hh"

namespace xed::campaign
{

namespace
{

/** Per-cohort series fields, in the fleet payload's canonical order. */
constexpr const char *cohortSeriesKeys[] = {
    "installs", "removals", "due", "sdc", "replacements", "retirements",
};

const std::vector<std::uint64_t> *
cohortSeriesField(const fleet::CohortSeries &series, std::size_t field)
{
    const std::vector<std::uint64_t> *fields[] = {
        &series.installs,     &series.removals,     &series.due,
        &series.sdc,          &series.replacements, &series.retirements,
    };
    return fields[field];
}

std::vector<std::uint64_t> *
cohortSeriesField(fleet::CohortSeries &series, std::size_t field)
{
    return const_cast<std::vector<std::uint64_t> *>(cohortSeriesField(
        static_cast<const fleet::CohortSeries &>(series), field));
}

json::Value
fleetResultToJson(const fleet::FleetResult &fleet)
{
    auto result = json::Value::object();
    auto cohorts = json::Value::array();
    for (const auto &series : fleet.cohorts) {
        auto entry = json::Value::object();
        for (std::size_t f = 0; f < std::size(cohortSeriesKeys); ++f) {
            auto deltas = json::Value::array();
            for (const std::uint64_t v : *cohortSeriesField(series, f))
                deltas.push(v);
            entry.set(cohortSeriesKeys[f], std::move(deltas));
        }
        const auto attribution = attributionJson(series.attribution);
        entry.set("failures", *attribution.find("failures"));
        entry.set("outcomes", *attribution.find("outcomes"));
        cohorts.push(std::move(entry));
    }
    result.set("cohorts", std::move(cohorts));
    return result;
}

bool
fleetResultFromJson(const json::Value &result, const CampaignSpec &spec,
                    fleet::FleetResult &fleet)
{
    const unsigned epochs = fleetConfigFor(spec).epochs();
    const json::Value *cohorts = result.find("cohorts");
    if (!cohorts || !cohorts->isArray() ||
        cohorts->size() != spec.fleet.cohorts.size())
        return false;
    fleet.cohorts.resize(cohorts->size());
    for (std::size_t c = 0; c < cohorts->size(); ++c) {
        const json::Value &entry = cohorts->at(c);
        if (!entry.isObject())
            return false;
        fleet::CohortSeries &series = fleet.cohorts[c];
        series.resize(epochs);
        for (std::size_t f = 0; f < std::size(cohortSeriesKeys); ++f) {
            const json::Value *deltas = entry.find(cohortSeriesKeys[f]);
            if (!deltas || !deltas->isArray() ||
                deltas->size() != epochs)
                return false;
            std::vector<std::uint64_t> &field =
                *cohortSeriesField(series, f);
            for (unsigned e = 0; e < epochs; ++e) {
                if (!deltas->at(e).isIntegral())
                    return false;
                field[e] = deltas->at(e).asUint();
            }
        }
        if (!parseAttribution(entry, series.attribution, nullptr))
            return false;
    }
    return true;
}

json::Value
mcResultToJson(const faultsim::McResult &mc)
{
    auto result = json::Value::object();
    auto years = json::Value::array();
    for (unsigned y = 1; y <= 7; ++y) {
        auto pair = json::Value::array();
        pair.push(mc.failByYear[y].successes());
        pair.push(mc.failByYear[y].trials());
        years.push(std::move(pair));
    }
    result.set("failByYear", std::move(years));
    auto types = json::Value::object();
    for (const auto &[name, count] : mc.failureTypes.all())
        types.set(name, count);
    result.set("failureTypes", std::move(types));
    return result;
}

bool
mcResultFromJson(const json::Value &result, faultsim::McResult &mc)
{
    const json::Value *years = result.find("failByYear");
    if (!years || !years->isArray() || years->size() != 7)
        return false;
    for (unsigned y = 1; y <= 7; ++y) {
        const json::Value &pair = years->at(y - 1);
        if (!pair.isArray() || pair.size() != 2 ||
            !pair.at(0).isIntegral() || !pair.at(1).isIntegral())
            return false;
        mc.failByYear[y].addMany(pair.at(0).asUint(),
                                 pair.at(1).asUint());
    }
    const json::Value *types = result.find("failureTypes");
    if (!types || !types->isObject())
        return false;
    for (const auto &[name, count] : types->members()) {
        if (!count.isIntegral())
            return false;
        mc.failureTypes.inc(name, count.asUint());
    }
    return true;
}

} // namespace

json::Value
manifestRecord(const CampaignSpec &spec, const Plan &plan,
               const std::string &hash)
{
    auto record = json::Value::object();
    record.set("type", "manifest");
    record.set("format", storeFormatVersion);
    record.set("specHash", hash);
    record.set("spec", specToJson(spec));
    record.set("points", plan.points);
    record.set("cells", plan.cells);
    record.set("shards", std::uint64_t{plan.tasks.size()});
    return record;
}

json::Value
shardRecord(const CampaignSpec &spec, const ShardTask &task,
            const ShardResult &result)
{
    auto record = json::Value::object();
    record.set("type", "shard");
    record.set("index", task.index);
    record.set("point", task.point);
    record.set("cell", task.cell);
    record.set("label", cellLabel(spec, task.cell));
    record.set("begin", task.begin);
    record.set("end", task.end);
    if (spec.kind == CampaignKind::Reliability) {
        record.set("result", mcResultToJson(result.mc));
    } else if (spec.kind == CampaignKind::Fleet) {
        record.set("result", fleetResultToJson(result.fleet));
    } else {
        auto payload = json::Value::object();
        payload.set("detected", result.detected);
        payload.set("trials", result.trials);
        record.set("result", std::move(payload));
    }
    return record;
}

ShardResult
shardResultFromJson(const CampaignSpec &spec, const json::Value &record,
                    std::string *error)
{
    ShardResult out;
    const json::Value *result = record.find("result");
    bool ok = result && result->isObject();
    if (ok && spec.kind == CampaignKind::Reliability) {
        ok = mcResultFromJson(*result, out.mc);
    } else if (ok && spec.kind == CampaignKind::Fleet) {
        ok = fleetResultFromJson(*result, spec, out.fleet);
    } else if (ok) {
        const json::Value *detected = result->find("detected");
        const json::Value *trials = result->find("trials");
        ok = detected && detected->isIntegral() && trials &&
             trials->isIntegral() && detected->asUint() <= trials->asUint();
        if (ok) {
            out.detected = detected->asUint();
            out.trials = trials->asUint();
        }
    }
    if (ok)
        return out;
    if (error)
        *error = "malformed result payload";
    return ShardResult{};
}

std::optional<ShardResult>
decodeShardRecord(const CampaignSpec &spec, const ShardTask &task,
                  const json::Value &record, std::string *error)
{
    const auto is = [&](const char *key, std::uint64_t want) {
        const json::Value *v = record.find(key);
        return v && v->isIntegral() && v->asUint() == want;
    };
    const json::Value *type = record.find("type");
    std::string what;
    ShardResult result;
    if (!type || !type->isString() || type->asString() != "shard" ||
        !is("index", task.index))
        what = "out of plan order";
    else if (!is("point", task.point) || !is("cell", task.cell) ||
             !is("begin", task.begin) || !is("end", task.end))
        what = "does not match the spec's plan";
    else
        result = shardResultFromJson(spec, record, &what);
    if (what.empty())
        return result;
    if (error)
        *error = "shard record " + std::to_string(task.index) + ": " + what;
    return std::nullopt;
}

bool
fsyncPath(const std::string &path, std::string *error)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
        if (fd >= 0)
            ::close(fd);
        if (error)
            *error = "fsync failed on " + path;
        return false;
    }
    ::close(fd);
    return true;
}

bool
fsyncParentDir(const std::string &path, std::string *error)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    return fsyncPath(parent.string(), error);
}

StoreWriter::~StoreWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
StoreWriter::open(const std::string &path, long long appendAt,
                  std::string *error, bool durable)
{
    path_ = path;
    durable_ = durable;
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = ::open(path.c_str(),
                 O_WRONLY | O_CLOEXEC |
                     (appendAt >= 0 ? O_APPEND : O_CREAT | O_TRUNC),
                 0666);
    if (fd_ < 0) {
        if (error)
            *error = "cannot open result file " + path;
        return false;
    }
    if (appendAt >= 0 && ::ftruncate(fd_, appendAt) != 0) {
        if (error)
            *error = "cannot truncate " + path + ": " +
                     std::strerror(errno);
        return false;
    }
    // A commit's fsync covers the file, not its name: without this a
    // host crash can lose a fresh file, every committed line with it.
    return appendAt >= 0 || !durable_ || fsyncParentDir(path, error);
}

std::size_t
StoreWriter::commit(std::string_view lines, std::string *error)
{
    const auto newlines = [](std::string_view text) {
        return static_cast<std::size_t>(
            std::count(text.begin(), text.end(), '\n'));
    };
    const std::size_t given = newlines(lines);
    XED_TRACE_SPAN_ARG("store.write", "io", "records", given);
    std::string_view rest = lines;
    while (!rest.empty()) {
        const ssize_t n = ::write(fd_, rest.data(), rest.size());
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        rest.remove_prefix(static_cast<std::size_t>(n));
    }
    if (!rest.empty() && error)
        *error = "write failed on " + path_;
    // Written lines sit in the page cache; a host crash there would
    // break the documented kill-safe contract (store.hh), so push them
    // to stable storage before reporting them as committed.
    if (durable_ && ::fsync(fd_) != 0) {
        if (error)
            *error = "fsync failed on " + path_;
        return 0;
    }
    if (rest.empty())
        return given;
    return newlines(lines.substr(0, lines.size() - rest.size()));
}

bool
StoreWriter::write(const json::Value &record, std::string *error)
{
    std::string line = json::dump(record);
    line += '\n';
    return commit(line, error) == 1;
}

bool
StoreWriter::writeLine(std::string_view line, std::string *error)
{
    std::string text(line);
    text += '\n';
    return commit(text, error) == 1;
}

std::optional<StoreManifest>
decodeStoreManifest(std::string_view line, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return std::nullopt;
    };
    const auto record = json::parse(line);
    const json::Value *type = record ? record->find("type") : nullptr;
    if (!type || !type->isString() || type->asString() != "manifest")
        return fail("first record must be a manifest");
    const json::Value *format = record->find("format");
    if (!format || !format->isIntegral() ||
        format->asInt() != storeFormatVersion)
        return fail("unsupported store format");
    const json::Value *hash = record->find("specHash");
    const json::Value *shards = record->find("shards");
    const json::Value *spec = record->find("spec");
    if (!hash || !hash->isString() || !shards || !shards->isIntegral() ||
        !spec)
        return fail("manifest record lacks specHash, shards or spec");
    std::string specError;
    auto parsed = parseSpec(*spec, &specError);
    if (!parsed)
        return fail("manifest spec invalid: " + specError);
    return StoreManifest{hash->asString(), shards->asUint(),
                         std::move(*parsed)};
}

std::optional<StoreManifest>
readStoreManifest(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    std::string line;
    if (!std::getline(in, line)) {
        if (error)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    auto manifest = decodeStoreManifest(line, error);
    if (!manifest && error)
        *error = path + ": " + *error;
    return manifest;
}

namespace
{

/** One store line after the manifest, decoded on its own. */
struct StoreLine
{
    enum class Kind { Shard, Summary, Error };
    Kind kind = Kind::Error;
    ShardResult result; ///< Kind::Shard
    std::string error;  ///< Kind::Error, without the path
};

/** Decode line @p span.number after the manifest as the plan's shard
 *  of that index (only a file of shard records reaches it), the
 *  summary, or the error a serial read would stop on. */
StoreLine
decodeStoreLine(std::string_view line, const LineSpan &span,
                const CampaignSpec &spec, const Plan &plan)
{
    StoreLine out;
    const auto at = [&] { return " at byte " + std::to_string(span.begin); };
    std::string error;
    const auto record = json::parse(line, &error);
    if (!record || !record->isObject()) {
        // A malformed *interior* line means the file was edited or
        // corrupted, not torn by a kill; refuse to guess.
        out.error = ": corrupt record" + at() + ": " + error;
        return out;
    }
    const json::Value *type = record->find("type");
    const std::string typeName =
        type && type->isString() ? type->asString() : "";
    if (typeName == "shard") {
        if (span.number >= plan.tasks.size()) {
            out.error = ": more shard records than the plan has shards";
            return out;
        }
        auto result =
            decodeShardRecord(spec, plan.tasks[span.number], *record, &error);
        if (!result) {
            out.error = at() + ": " + error;
            return out;
        }
        out.kind = StoreLine::Kind::Shard;
        out.result = std::move(*result);
    } else if (typeName == "summary") {
        out.kind = StoreLine::Kind::Summary;
    } else {
        out.error = ": unknown record type \"" + typeName + "\"" + at();
    }
    return out;
}

LoadedStore
readStore(const std::string &path, const std::string &expectedHash,
          const CampaignSpec &spec, const Plan &plan, unsigned threads)
{
    LoadedStore loaded;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        loaded.error = "cannot open " + path;
        return loaded;
    }
    std::string line;
    if (!std::getline(in, line) || in.eof()) {
        loaded.error = path + ": no complete manifest record";
        return loaded;
    }
    std::string error;
    const auto manifest = decodeStoreManifest(line, &error);
    if (!manifest) {
        loaded.error = path + ": " + error;
        return loaded;
    }
    if (manifest->specHash != expectedHash) {
        loaded.error = path + ": spec hash mismatch (file " +
                       manifest->specHash + ", spec " + expectedHash +
                       "); refusing to resume a different campaign";
        return loaded;
    }
    if (manifest->shards != plan.tasks.size()) {
        loaded.error = path + ": manifest shard count does not match the "
                       "spec's plan";
        return loaded;
    }

    loaded.cells.resize(static_cast<std::size_t>(plan.points) * plan.cells);
    loaded.validBytes = static_cast<long long>(line.size() + 1);
    try {
        foldLineBlocks<StoreLine>(
            in, loaded.validBytes,
            [&] { return resolveWorkerThreads(threads, plan.tasks.size()); },
            [&](std::string_view text, const LineSpan &at) {
                return decodeStoreLine(text, at, spec, plan);
            },
            [&](StoreLine &decoded, std::string_view, const LineSpan &at) {
                if (decoded.kind == StoreLine::Kind::Error) {
                    loaded.error = path + decoded.error;
                    return false;
                }
                if (decoded.kind == StoreLine::Kind::Shard) {
                    const ShardTask &task =
                        plan.tasks[loaded.completedShards];
                    loaded.cells[task.point * plan.cells + task.cell].merge(
                        decoded.result);
                    loaded.completedUnits += task.end - task.begin;
                    ++loaded.completedShards;
                } else {
                    loaded.hasSummary = true;
                }
                loaded.validBytes = at.end;
                return !loaded.hasSummary;
            });
    } catch (const std::exception &e) {
        loaded.error = path + ": " + e.what();
    }
    if (!loaded.error.empty())
        return loaded;
    if (loaded.hasSummary && loaded.completedShards != plan.tasks.size()) {
        loaded.error = path + ": summary present but shards missing";
        return loaded;
    }
    loaded.ok = true;
    return loaded;
}

} // namespace

LoadedStore
loadStore(const std::string &path, const std::string &expectedHash,
          const CampaignSpec &spec, const Plan &plan, unsigned threads)
{
    XED_TRACE_SPAN_LATE_ARG(span, "store.load", "io", "records");
    LoadedStore loaded = readStore(path, expectedHash, spec, plan, threads);
    XED_TRACE_SET_ARG(span, loaded.completedShards);
    return loaded;
}

} // namespace xed::campaign
