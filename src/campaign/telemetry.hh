/**
 * @file
 * Live run telemetry for campaign runs.
 *
 * A ProgressReporter thread samples the runner's metrics registry and
 * the engine's McProgress counters on a fixed interval and emits one
 * machine-readable JSON status line per tick:
 *
 *   {"type":"progress","elapsedSeconds":...,"shardsDone":...,
 *    "shardsTotal":...,"unitsDone":...,"unitsTotal":...,
 *    "unitsPerSec":...,"etaSeconds":...,"failures":{label:count,...}}
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

#include "common/json.hh"
#include "common/metrics.hh"
#include "faultsim/engine.hh"

namespace xed::campaign
{

/** Volatile run manifest: spec hash + host + git + start time. */
json::Value runMetadata(const std::string &specName,
                        const std::string &hash, unsigned threads,
                        std::uint64_t resumedFromShard);

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

    ProgressReporter(const Setup &setup, MetricsRegistry &registry,
                     const faultsim::McProgress &progress);
    ~ProgressReporter();

    /** Write the run record and start the sampling thread. */
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
    MetricsRegistry &registry_;
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
