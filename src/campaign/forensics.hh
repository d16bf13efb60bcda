/**
 * @file
 * Failure-forensics sidecar for campaign runs.
 *
 * Reliability campaigns attribute every failed system (failure class,
 * contributing fault kinds, detection outcome -- see obs/forensics.hh)
 * but the result store's bytes are a pure function of the spec and
 * must stay that way. Forensics therefore stream to their own JSONL
 * sidecar, `<out>.forensics.jsonl`:
 *
 *   {"type":"forensics","index":i,"point":p,"cell":c,
 *    "failures":{"sdc":{kinds:count,...},"due":{...}},
 *    "outcomes":{outcome:count,...},
 *    "autopsy":[{"system":...,"timeHours":...,"type":...,
 *                "kinds":...,"class":...,"outcome":...},...]}  per shard
 *   {"type":"forensics-summary","point":p,"cell":c,"label":...,
 *    "failures":...,"outcomes":...}                 per cell, when done
 *
 * Kind sets are '+'-joined fault-kind names in ascending granularity
 * order ("single-bit+single-row"); autopsy arrays are the engine's
 * capped exemplar records. Shard records are written in plan order
 * immediately BEFORE the corresponding store record, so after a kill
 * the sidecar covers at least the store's shard prefix; resume
 * truncates it back to exactly that prefix and appends. A sidecar
 * that cannot cover the prefix (deleted, damaged) disables forensics
 * for the resumed run -- replayed store records carry no attribution
 * to rebuild it from.
 */

#ifndef XED_CAMPAIGN_FORENSICS_HH
#define XED_CAMPAIGN_FORENSICS_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "common/json.hh"
#include "faultsim/engine.hh"
#include "obs/forensics.hh"

namespace xed::campaign
{

/** Sidecar path for a result store: `<storePath>.forensics.jsonl`. */
std::string forensicsPath(const std::string &storePath);

/** '+'-joined kind names, ascending bit order; "none" for mask 0. */
std::string kindsMaskName(unsigned mask);
/** Inverse of kindsMaskName; nullopt for an unknown kind name. */
std::optional<unsigned> kindsMaskFromName(const std::string &name);

/** The "failures"/"outcomes" payload of an attribution (nonzero
 *  entries only, deterministic order). */
json::Value attributionJson(const obs::FailureAttribution &attribution);

/** One per-shard sidecar record (attribution + autopsy exemplars). */
json::Value forensicsShardRecord(const ShardTask &task,
                                 const faultsim::McResult &mc);

/** One per-cell summary record appended when the campaign completes. */
json::Value forensicsSummaryRecord(unsigned point, unsigned cell,
                                   const std::string &label,
                                   const faultsim::McResult &mc);

/** Accumulate a record's "failures"/"outcomes" payload into
 *  @p attribution; false + *error on unknown names or shapes. */
bool parseAttribution(const json::Value &record,
                      obs::FailureAttribution &attribution,
                      std::string *error);

/**
 * The forensics-record decoder every reader uses: a "forensics" record
 * of @p task (index, point and cell) with a well-formed attribution,
 * decoded into the McResult parts it carries -- the attribution and the
 * autopsy exemplars. Exemplars are best-effort evidence, not
 * accounting: a malformed one is skipped, not an error. Their type
 * labels are interned, so they never dangle.
 */
std::optional<faultsim::McResult>
decodeForensicsRecord(const ShardTask &task, const json::Value &record,
                      std::string *error);

/** What loadForensics() recovered from an existing sidecar. */
struct LoadedForensics
{
    bool ok = false;
    std::string error;
    /** Per-shard records forming the plan prefix [0, shardRecords). */
    std::uint64_t shardRecords = 0;
    /** Byte offset where the last loaded shard record ends; resume
     *  truncates here (dropping summaries, a torn line and any records
     *  past its prefix) to append. */
    long long validBytes = 0;
    /** Those records merged per (point, cell), point-major. */
    std::vector<faultsim::McResult> cells;
};

/**
 * Read and validate at most the first @p maxShards per-shard records
 * of a sidecar: in @p plan order from index 0, each one decoding
 * (decodeForensicsRecord); forensics-summary lines between them are
 * skipped. A torn final line, or any line that is not a forensics
 * record, quietly ends the prefix; a record out of plan order or with a
 * malformed attribution fails the load.
 *
 * The sidecar is streamed like a store (loadStore()): the first 64
 * lines as the serial loop read them, the rest in blocks of lines
 * decoded on resolveWorkerThreads(@p threads, plan.tasks.size())
 * threads and folded in file order on the calling thread, with the same
 * result at any thread count. One "forensics.load" trace span covers
 * the call, its "records" argument the shardRecords returned.
 */
LoadedForensics loadForensics(const std::string &path, const Plan &plan,
                              std::uint64_t maxShards,
                              unsigned threads = 0);

/** Render a loaded sidecar's per-cell attribution tables (class x
 *  kind set, detection outcomes, autopsy exemplars). Returns false when
 *  the sidecar did not load. */
bool printForensics(const LoadedForensics &forensics,
                    const CampaignSpec &spec, const Plan &plan,
                    std::ostream &os, std::string *error);

} // namespace xed::campaign

#endif // XED_CAMPAIGN_FORENSICS_HH
