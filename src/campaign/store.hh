/**
 * @file
 * JSONL result store for campaign runs.
 *
 * One campaign writes one append-only JSONL file:
 *
 *   {"type":"manifest", "format":1, "specHash":..., "spec":{...},
 *    "points":P, "cells":C, "shards":N}
 *   {"type":"shard", "index":0, "point":0, "cell":0, "label":...,
 *    "begin":0, "end":10000, "result":{...}}            x N, in order
 *   {"type":"summary", "results":[...], "metrics":{...}}
 *
 * Every record is dumped with the deterministic JSON writer and shard
 * records are flushed strictly in plan order, so the file's bytes are
 * a pure function of the spec: an interrupted file is a prefix of the
 * uninterrupted one (modulo at most one torn last line, which resume
 * truncates), and a resumed run completes it to the identical bytes.
 *
 * Volatile run metadata (host, git revision, wall-clock timings,
 * progress samples) deliberately lives in a telemetry sidecar file --
 * see telemetry.hh -- precisely so this file can stay deterministic.
 */

#ifndef XED_CAMPAIGN_STORE_HH
#define XED_CAMPAIGN_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.hh"
#include "common/json.hh"
#include "faultsim/engine.hh"

namespace xed::campaign
{

constexpr int storeFormatVersion = 1;

/** Result payload of one shard, any campaign kind. */
struct ShardResult
{
    faultsim::McResult mc;          ///< reliability campaigns
    std::uint64_t detected = 0;     ///< detection campaigns
    std::uint64_t trials = 0;       ///< detection campaigns
    fleet::FleetResult fleet;       ///< fleet campaigns

    void
    merge(const ShardResult &other)
    {
        mc.merge(other.mc);
        detected += other.detected;
        trials += other.trials;
        fleet.merge(other.fleet);
    }
};

json::Value manifestRecord(const CampaignSpec &spec, const Plan &plan,
                           const std::string &hash);
json::Value shardRecord(const CampaignSpec &spec, const ShardTask &task,
                        const ShardResult &result);

/** What a store's manifest record declares. */
struct StoreManifest
{
    std::string specHash;
    std::uint64_t shards = 0;
    /** The spec the store was written for, env overrides included. */
    CampaignSpec spec;
};

/** The store-manifest decoder every reader uses: type, format, hash,
 *  shard count and a spec that parses; nullopt and @p error otherwise. */
std::optional<StoreManifest> decodeStoreManifest(std::string_view line,
                                                 std::string *error);

/** Decode the manifest on a store's first line, for readers without a
 *  spec in hand (report, status); loadStore() then checks the rest. */
std::optional<StoreManifest> readStoreManifest(const std::string &path,
                                               std::string *error);

/** Decode the "result" payload of a shard record. A malformed one is
 *  corruption: it decodes to an empty result and sets @p error. */
ShardResult shardResultFromJson(const CampaignSpec &spec,
                                const json::Value &record,
                                std::string *error = nullptr);

/** The shard-record decoder every reader uses: a "shard" record whose
 *  index, point, cell and unit range are @p task's, with a well-formed
 *  payload; nullopt and @p error otherwise. */
std::optional<ShardResult> decodeShardRecord(const CampaignSpec &spec,
                                             const ShardTask &task,
                                             const json::Value &record,
                                             std::string *error);

/** fsync(2) the file at @p path (data + metadata). */
bool fsyncPath(const std::string &path, std::string *error);

/** fsync the directory containing @p path, making a just-created
 *  directory entry durable. */
bool fsyncParentDir(const std::string &path, std::string *error);

/** Line-oriented appender. A commit's lines reach the file in order,
 *  so a kill tears at most the final line, and (when durable) the
 *  commit is fsynced once, so a power loss does too. A durable writer
 *  fsyncs each commit before it reports its records as written, and
 *  the directory entry of a file it creates, so the kill-safe "plan
 *  prefix + at most one torn line" contract also survives power loss
 *  or a host crash, losing at most the commit in flight. */
class StoreWriter
{
  public:
    StoreWriter() = default;
    StoreWriter(const StoreWriter &) = delete;
    StoreWriter &operator=(const StoreWriter &) = delete;
    ~StoreWriter();

    /** Truncate-and-create (@p appendAt < 0) or reopen for append
     *  after truncating the file to @p appendAt bytes (resume).
     *  @p durable: fsync the directory entry of a created file and
     *  each commit (benches that only measure throughput pass false,
     *  the CLI's `--no-fsync`). */
    bool open(const std::string &path, long long appendAt,
              std::string *error, bool durable = true);
    /**
     * The one write path: append @p lines, whole lines each ending in a
     * newline, in order, stopping at the first write that fails; then,
     * when durable, fsync what was written. Returns how many lines were
     * committed: all of them, those written in full before a failed
     * write, or none when the fsync fails. Sets @p error whenever that
     * is fewer than the lines given.
     */
    std::size_t commit(std::string_view lines, std::string *error);
    /** A one-record commit. */
    bool write(const json::Value &record, std::string *error);
    /** A one-line commit of a pre-serialized record (no newline),
     *  verbatim. */
    bool writeLine(std::string_view line, std::string *error);

  private:
    std::string path_;
    int fd_ = -1;
    bool durable_ = false;
};

/** What loadStore() recovered from an existing result file. */
struct LoadedStore
{
    bool ok = false;
    std::string error;
    /** Shard records form the plan prefix [0, completedShards). */
    std::uint64_t completedShards = 0;
    /** Units (systems, trials, fleet slots) that prefix covers. */
    std::uint64_t completedUnits = 0;
    bool hasSummary = false;
    /** The prefix's decoded payloads merged per (point, cell), at
     *  index point * plan.cells + cell; a cell with no committed shard
     *  holds an empty result. */
    std::vector<ShardResult> cells;
    /** Byte offset where valid content ends; resume truncates here to
     *  drop a torn final line before appending. */
    long long validBytes = 0;
};

/**
 * Read and validate an existing store against the plan of the spec
 * being (re)run. Requires the manifest's specHash to equal
 * @p expectedHash and shard records to be exactly the plan prefix in
 * order, each one decoding (decodeShardRecord); a torn final line is
 * tolerated and reported via validBytes. Any other damage fails, at the
 * first damaged line in file order.
 *
 * The file is streamed through foldLineBlocks() (line_blocks.hh): its
 * first 64 lines as the serial loop read them, the rest in blocks of
 * lines, each decoded on resolveWorkerThreads(@p threads,
 * plan.tasks.size()) threads and folded on the calling thread in file
 * order. The result does not depend on the thread count. One "store.load" trace span covers the call, its "records"
 * argument the completedShards returned.
 */
LoadedStore loadStore(const std::string &path,
                      const std::string &expectedHash,
                      const CampaignSpec &spec, const Plan &plan,
                      unsigned threads = 0);

} // namespace xed::campaign

#endif // XED_CAMPAIGN_STORE_HH
