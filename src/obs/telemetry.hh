/**
 * @file
 * Tolerant telemetry-sidecar reading and the histogram wire codec.
 *
 * Telemetry sidecars (`<out>.telemetry.jsonl`) are append-only JSONL
 * streams written by live processes that may be SIGKILLed
 * mid-append. A reader therefore has to tolerate exactly
 * the damage the store's resume path tolerates: a torn final line.
 * It also has to tolerate records it does not know -- the sidecar
 * schema grows (new record types, new keys) and an old dashboard
 * pointed at a new run must degrade gracefully, never error.
 *
 * readTelemetryRecords() implements that contract once, shared by the
 * status scanner, the HTTP endpoints and the tests: every
 * well-formed JSON *object* line is returned in file order; a torn or
 * otherwise unparseable line and any non-object line are skipped and
 * counted, not fatal. Only a file that cannot be opened or read at all
 * is an error.
 *
 * The histogram codec serializes a common/metrics Histogram as its
 * sparse nonzero buckets -- `[[bucketIndex, count], ...]` in ascending
 * index order -- which round-trips exactly (integer counts, integer
 * indices), so the status scanner's p50/p90/p99 come from the run's
 * real buckets. Decoding adds counts, so decoding several payloads
 * into one histogram is their exact Histogram::merge.
 */

#ifndef XED_OBS_TELEMETRY_HH
#define XED_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/metrics.hh"

namespace xed::obs
{

/** What readTelemetryRecords() recovered from a sidecar file. */
struct TelemetryRecords
{
    /** False only when the file could not be opened/read at all. */
    bool ok = false;
    std::string error;
    /** Every well-formed JSON object line, in file order. */
    std::vector<json::Value> records;
    /** Torn, unparseable or non-object lines skipped (a kill
     *  mid-append tears at most the final line; more than one skip
     *  means genuine corruption, which is still not fatal here --
     *  observability must not go down because a sidecar is
     *  damaged). */
    std::uint64_t skippedLines = 0;
};

/** Read a telemetry sidecar under the tolerance contract above. */
TelemetryRecords readTelemetryRecords(const std::string &path);

/** The last record of @p type (e.g. the newest cumulative "progress"
 *  sample), or nullptr. Records with no string "type" never match. */
const json::Value *lastRecordOfType(const TelemetryRecords &telemetry,
                                    std::string_view type);

/** Whether @p record is of string type @p type. */
bool recordIsType(const json::Value &record, std::string_view type);

/** Sparse encoding of a histogram: [[bucketIndex, count], ...] for
 *  the nonzero buckets in ascending index order. Exact round-trip. */
json::Value histogramJson(const Histogram &histogram);

/** Decode histogramJson() output, ADDING counts into @p histogram
 *  (so decoding N payloads into one histogram is the exact N-way
 *  Histogram::merge). Returns false on a malformed payload
 *  (wrong shape, out-of-range bucket index); @p histogram then holds
 *  whatever prefix was applied. */
bool histogramFromJson(const json::Value &payload, Histogram &histogram);

} // namespace xed::obs

#endif // XED_OBS_TELEMETRY_HH
