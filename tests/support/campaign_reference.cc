#include "tests/support/campaign_reference.hh"

#include <algorithm>
#include <fstream>

#include "common/file.hh"

namespace xed::campaign::reference
{

LoadedStore
loadStore(const std::string &path, const std::string &expectedHash,
          const CampaignSpec &spec, const Plan &plan)
{
    LoadedStore loaded;
    const auto file = readFile(path);
    if (!file) {
        loaded.error = "cannot open " + path;
        return loaded;
    }
    const std::string &text = *file;
    std::size_t lineStart = text.find('\n');
    if (lineStart == std::string::npos) {
        loaded.error = path + ": no complete manifest record";
        return loaded;
    }
    std::string error;
    const auto manifest = decodeStoreManifest(
        std::string_view(text).substr(0, lineStart), &error);
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
    loaded.validBytes = static_cast<long long>(++lineStart);
    while (lineStart < text.size() && !loaded.hasSummary) {
        const std::size_t newline = text.find('\n', lineStart);
        if (newline == std::string::npos) {
            // Torn final line (killed mid-write): resume from here.
            break;
        }
        const std::string_view line(text.data() + lineStart,
                                    newline - lineStart);
        const auto at = [&] {
            return " at byte " + std::to_string(lineStart);
        };
        std::string parseError;
        const auto record = json::parse(line, &parseError);
        if (!record || !record->isObject()) {
            // A malformed *interior* line means the file was edited or
            // corrupted, not torn by a kill; refuse to guess.
            loaded.error = path + ": corrupt record" + at() + ": " +
                           parseError;
            return loaded;
        }
        const json::Value *type = record->find("type");
        const std::string typeName =
            type && type->isString() ? type->asString() : "";
        if (typeName == "shard") {
            if (loaded.completedShards >= plan.tasks.size()) {
                loaded.error = path + ": more shard records than the "
                               "plan has shards";
                return loaded;
            }
            const ShardTask &task = plan.tasks[loaded.completedShards];
            const auto result =
                decodeShardRecord(spec, task, *record, &error);
            if (!result) {
                loaded.error = path + at() + ": " + error;
                return loaded;
            }
            loaded.cells[task.point * plan.cells + task.cell].merge(*result);
            loaded.completedUnits += task.end - task.begin;
            ++loaded.completedShards;
        } else if (typeName == "summary") {
            loaded.hasSummary = true;
        } else {
            loaded.error = path + ": unknown record type \"" + typeName +
                           "\"" + at();
            return loaded;
        }
        lineStart = newline + 1;
        loaded.validBytes = static_cast<long long>(lineStart);
    }
    if (loaded.hasSummary && loaded.completedShards != plan.tasks.size()) {
        loaded.error = path + ": summary present but shards missing";
        return loaded;
    }
    loaded.ok = true;
    return loaded;
}

LoadedForensics
loadForensics(const std::string &path, const Plan &plan,
              std::uint64_t maxShards)
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
    std::string line;
    long long offset = 0;
    while (loaded.shardRecords < limit && std::getline(in, line)) {
        if (in.eof())
            break; // no trailing newline: torn final line
        offset += static_cast<long long>(line.size()) + 1;
        // A torn or foreign line ends the valid prefix quietly,
        // mirroring the store loader's kill tolerance. Summaries follow
        // the shard records; resume rewrites them, so they don't
        // extend validBytes.
        const auto record = json::parse(line);
        const json::Value *type = record ? record->find("type") : nullptr;
        if (!type || !type->isString())
            break;
        if (type->asString() == "forensics-summary")
            continue;
        if (type->asString() != "forensics")
            break;
        const ShardTask &task = plan.tasks[loaded.shardRecords];
        std::string error;
        const auto part = decodeForensicsRecord(task, *record, &error);
        if (!part) {
            loaded.error = path + ": " + error;
            return loaded;
        }
        loaded.cells[task.point * plan.cells + task.cell].merge(*part);
        ++loaded.shardRecords;
        loaded.validBytes = offset;
    }
    loaded.ok = true;
    return loaded;
}

} // namespace xed::campaign::reference
