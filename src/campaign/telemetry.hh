/**
 * @file
 * Live run telemetry for campaign runs.
 *
 * A ProgressReporter thread samples the runner's RunCounters and the
 * engine's McProgress counters on a fixed interval and emits one
 * machine-readable JSON status line per tick:
 *
 *   {"type":"progress","elapsedSeconds":...,"shardsDone":...,
 *    "shardsTotal":...,"unitsDone":...,"unitsTotal":...,
 *    "unitsPerSec":...,"etaSeconds":...,"failedSystems":...,
 *    "shardSeconds":{p50,p90,p99},"shardUnitsPerSec":{...},
 *    "hist":{...},"failures":{label:count,...}}
 *
 * "etaSeconds" is present only while a live rate exists; a tick with
 * no simulated units yet (or replay only) omits the key entirely,
 * because 0.0 would be indistinguishable from "done now".
 *
 * Status lines go to a stream (stderr for the CLI) and, when a
 * sidecar path is configured, are appended to `<out>.telemetry.jsonl`
 * together with the volatile run manifest (spec hash, git describe,
 * host, start time, thread count) and a final "done" record with wall
 * time. Everything volatile lives here so the result store itself
 * stays byte-deterministic (see store.hh).
 */

#ifndef XED_CAMPAIGN_TELEMETRY_HH
#define XED_CAMPAIGN_TELEMETRY_HH

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/metrics.hh"
#include "faultsim/engine.hh"

namespace xed::campaign
{

/** Volatile run manifest: spec hash + host + git + start time. */
json::Value runMetadata(const std::string &specName,
                        const std::string &hash, unsigned threads,
                        std::uint64_t resumedFromShard);

/**
 * The runner's live counters, shared with the progress thread. The
 * plan totals are set before the reporter starts; the rest are relaxed
 * atomics the runner's threads update while the reporter reads them.
 */
struct RunCounters
{
    /** One failure counter per plan cell, named by @p cellLabels. */
    explicit RunCounters(std::vector<std::string> cellLabels = {})
        : cellLabels(std::move(cellLabels)),
          failures(this->cellLabels.size())
    {
    }

    std::uint64_t shardsTotal = 0;
    std::uint64_t unitsTotal = 0;
    /** Units a resume read back from the store instead of simulating. */
    std::uint64_t unitsReplayed = 0;
    Counter shardsDone;
    std::vector<std::string> cellLabels;
    /** Failed units of plan cell c, over every sweep point. */
    std::vector<Counter> failures;
    Histogram shardSeconds;
    Histogram shardUnitsPerSec;
};

class ProgressReporter
{
  public:
    struct Setup
    {
        /** Sampling period; <= 0 disables the thread entirely. */
        double intervalSeconds = 1.0;
        /** Stream for live status lines; nullptr = none. */
        std::ostream *statusOut = nullptr;
        /** Append-mode telemetry sidecar; empty = none. */
        std::string sidecarPath;
    };

    ProgressReporter(const Setup &setup, const RunCounters &counters,
                     const faultsim::McProgress &progress);
    ~ProgressReporter();

    /** Write the run record and start the sampling thread. Without a
     *  status stream or a sidecar there is nothing to record, and the
     *  runner skips this call and the run record it would build. */
    void start(const json::Value &runRecord);

    /** Emit one final progress sample plus a "done" record, then join
     *  the sampling thread. Safe to call more than once. If finish()
     *  is never called -- the runner unwound through an exception or
     *  a worker failure -- the destructor emits the final sample with
     *  an "aborted" record instead, so a telemetry stream always ends
     *  with exactly one terminal record. */
    void finish(bool complete);

    /** Build one progress record from the current counters. */
    json::Value sample() const;

  private:
    void loop();
    void emit(const json::Value &record);
    /** Shared tail of finish()/~ProgressReporter: join the sampler and
     *  emit the @p type terminal record. */
    void finishWith(const char *type, bool complete);

    Setup setup_;
    const RunCounters &counters_;
    const faultsim::McProgress &progress_;
    std::chrono::steady_clock::time_point started_;
    std::ofstream sidecar_;
    std::thread thread_;
    mutable std::mutex mutex_;
    std::mutex emitMutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    bool finished_ = false;
};

} // namespace xed::campaign

#endif // XED_CAMPAIGN_TELEMETRY_HH
