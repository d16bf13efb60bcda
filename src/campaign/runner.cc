#include "campaign/runner.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "campaign/forensics.hh"
#include "campaign/telemetry.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "ecc/crc8atm.hh"
#include "ecc/detect_lanes.hh"
#include "ecc/hamming7264.hh"
#include "obs/trace.hh"

namespace xed::campaign
{

namespace
{

/** Shards each worker thread may run ahead of the writer (runCampaign
 *  parks a worker on shard i until the writer has committed
 *  i - window). It also caps the batch the writer commits at once. */
constexpr std::uint64_t reorderWindowPerThread = 16;

/** A finished shard waiting for the writer: its result and, with a
 *  store, the lines its worker encoded for the writer to commit. */
struct ReadyShard
{
    ShardResult result;
    std::string storeLine;     ///< newline-terminated; "" in memory
    std::string forensicsLine; ///< newline-terminated; "" without sidecar
};

/** json::dump(@p record) and a newline. */
std::string
recordLine(const json::Value &record)
{
    std::string line = json::dump(record);
    line += '\n';
    return line;
}

/** The column tables of a detection cell's code, built once per
 *  process. */
const ecc::DetectTables &
detectTables(const std::string &code)
{
    static const ecc::DetectTables hamming{ecc::Hamming7264()};
    static const ecc::DetectTables crc{ecc::Crc8Atm()};
    return code == "crc8atm" ? crc : hamming;
}

json::Value
sweepValueJson(const CampaignSpec &spec, unsigned point)
{
    return spec.sweep.active() ? json::Value(spec.sweep.values[point])
                               : json::Value(nullptr);
}

/**
 * Fleet-wide series derived from the merged per-cohort deltas at
 * summary time (DESIGN.md Section 4h): in-service counts, deployed
 * capacity, cumulative failure counts and scrub traffic. Partial
 * stores may have short (or missing) cohort series; everything is
 * padded to the full epoch count so report rendering never branches.
 */
struct FleetDerived
{
    unsigned epochs = 0;
    std::vector<fleet::CohortSeries> cohorts; ///< padded, per cohort
    std::vector<std::uint64_t> inService;     ///< fleet-wide, per epoch
    std::vector<std::uint64_t> deployed;      ///< capacity, per epoch
    std::vector<std::uint64_t> cumulativeDue;
    std::vector<std::uint64_t> cumulativeSdc;
    std::vector<std::uint64_t> cumulativeReplacements;
    /** Patrol-scrub passes issued during each epoch: in-service DIMMs
     *  x epochHours / scrubIntervalHours, summed over cohorts. */
    std::vector<double> scrubPasses;

    double
    availability(unsigned epoch) const
    {
        // Before anything is deployed there is nothing to be
        // unavailable; report the fleet as trivially whole.
        return deployed[epoch]
                   ? static_cast<double>(inService[epoch]) /
                         static_cast<double>(deployed[epoch])
                   : 1.0;
    }
};

FleetDerived
deriveFleet(const CampaignSpec &spec, const fleet::FleetResult &result)
{
    FleetDerived out;
    out.epochs = fleetConfigFor(spec).epochs();
    const auto &cohorts = spec.fleet.cohorts;
    out.cohorts.resize(cohorts.size());
    out.inService.assign(out.epochs, 0);
    out.deployed.assign(out.epochs, 0);
    out.cumulativeDue.assign(out.epochs, 0);
    out.cumulativeSdc.assign(out.epochs, 0);
    out.cumulativeReplacements.assign(out.epochs, 0);
    out.scrubPasses.assign(out.epochs, 0.0);
    for (std::size_t c = 0; c < cohorts.size(); ++c) {
        fleet::CohortSeries &series = out.cohorts[c];
        series.resize(out.epochs);
        if (c < result.cohorts.size())
            series.merge(result.cohorts[c]);
        const std::vector<std::uint64_t> inSvc =
            fleet::inServiceSeries(series);
        for (unsigned e = 0; e < out.epochs; ++e) {
            out.inService[e] += inSvc[e];
            if (e >= cohorts[c].deployEpoch)
                out.deployed[e] += cohorts[c].dimms;
            if (cohorts[c].scrubIntervalHours > 0)
                out.scrubPasses[e] +=
                    static_cast<double>(inSvc[e]) *
                    (spec.fleet.epochHours /
                     cohorts[c].scrubIntervalHours);
        }
    }
    std::uint64_t due = 0, sdc = 0, replacements = 0;
    for (unsigned e = 0; e < out.epochs; ++e) {
        for (const auto &series : out.cohorts) {
            due += series.due[e];
            sdc += series.sdc[e];
            replacements += series.replacements[e];
        }
        out.cumulativeDue[e] = due;
        out.cumulativeSdc[e] = sdc;
        out.cumulativeReplacements[e] = replacements;
    }
    return out;
}

json::Value
fleetSummaryJson(const CampaignSpec &spec,
                 const fleet::FleetResult &result)
{
    const FleetDerived derived = deriveFleet(spec, result);
    auto payload = json::Value::object();
    payload.set("epochs", derived.epochs);
    payload.set("epochHours", spec.fleet.epochHours);
    const auto u64Array = [](const std::vector<std::uint64_t> &values) {
        auto array = json::Value::array();
        for (const std::uint64_t v : values)
            array.push(v);
        return array;
    };
    payload.set("inService", u64Array(derived.inService));
    auto availability = json::Value::array();
    for (unsigned e = 0; e < derived.epochs; ++e)
        availability.push(json::Value(derived.availability(e)));
    payload.set("availability", std::move(availability));
    payload.set("cumulativeDue", u64Array(derived.cumulativeDue));
    payload.set("cumulativeSdc", u64Array(derived.cumulativeSdc));
    payload.set("cumulativeReplacements",
                u64Array(derived.cumulativeReplacements));
    auto scrub = json::Value::array();
    for (const double v : derived.scrubPasses)
        scrub.push(json::Value(v));
    payload.set("scrubPasses", std::move(scrub));
    auto cohortArray = json::Value::array();
    for (std::size_t c = 0; c < spec.fleet.cohorts.size(); ++c) {
        const fleet::FleetCohort &cohort = spec.fleet.cohorts[c];
        const fleet::CohortSeries &series = derived.cohorts[c];
        auto entry = json::Value::object();
        entry.set("name", cohort.name);
        entry.set("scheme", faultsim::schemeKindName(cohort.scheme));
        entry.set("dimms", cohort.dimms);
        entry.set("canary", cohort.canary);
        entry.set("installs", series.totalInstalls());
        entry.set("replacements", series.totalReplacements());
        entry.set("retirements", series.totalRetirements());
        entry.set("due", series.totalDue());
        entry.set("sdc", series.totalSdc());
        entry.set("finalInService",
                  derived.epochs
                      ? fleet::inServiceSeries(series).back()
                      : std::uint64_t{0});
        const auto alert =
            cohort.canary
                ? fleet::canaryAlertEpoch(
                      series, cohort.dimms,
                      spec.fleet.policies.canaryDueThreshold)
                : std::nullopt;
        entry.set("canaryAlertEpoch", alert
                                          ? json::Value(std::uint64_t{
                                                *alert})
                                          : json::Value(nullptr));
        cohortArray.push(std::move(entry));
    }
    payload.set("cohorts", std::move(cohortArray));
    return payload;
}

const char *
campaignKindName(CampaignKind kind)
{
    if (kind == CampaignKind::Reliability)
        return "reliability";
    return kind == CampaignKind::Fleet ? "fleet" : "detection";
}

} // namespace

std::map<std::string, std::uint64_t>
failuresByTypeOf(const CampaignSpec &spec, const ShardResult &result)
{
    if (spec.kind == CampaignKind::Detection)
        return {{"escape", result.trials - result.detected}};
    if (spec.kind == CampaignKind::Fleet) {
        std::uint64_t due = 0, sdc = 0;
        for (const auto &series : result.fleet.cohorts) {
            due += series.totalDue();
            sdc += series.totalSdc();
        }
        return {{"due", due}, {"sdc", sdc}};
    }
    const auto &types = result.mc.failureTypes.all();
    return {types.begin(), types.end()};
}

std::uint64_t
failedSystemsOf(const CampaignSpec &spec, const ShardResult &result)
{
    std::uint64_t failed = 0;
    for (const auto &[type, count] : failuresByTypeOf(spec, result))
        failed += count;
    return failed;
}

ShardResult
runReliabilityShard(const CampaignSpec &spec, const ShardTask &task,
                    faultsim::McProgress *progress)
{
    faultsim::McConfig cfg = mcConfigFor(spec, task.point);
    cfg.progress = progress;
    const auto scheme =
        makeScheme(spec.schemes[task.cell], onDieFor(spec, task.point));
    ShardResult out;
    out.mc = runMonteCarloShard(*scheme, cfg, task.begin, task.end);
    return out;
}

ShardResult
runFleetShard(const CampaignSpec &spec, const ShardTask &task,
              faultsim::McProgress *progress)
{
    ShardResult out;
    out.fleet = fleet::runFleetShard(fleetConfigFor(spec), task.begin,
                                     task.end, progress);
    return out;
}

ShardResult
runShard(const CampaignSpec &spec, const ShardTask &task,
         faultsim::McProgress *progress)
{
    if (spec.kind == CampaignKind::Reliability)
        return runReliabilityShard(spec, task, progress);
    if (spec.kind == CampaignKind::Fleet)
        return runFleetShard(spec, task, progress);
    return runDetectionShard(spec, task, progress);
}

ShardResult
runDetectionShard(const CampaignSpec &spec, const ShardTask &task,
                  faultsim::McProgress *progress)
{
    ShardResult out;
    out.trials = task.end - task.begin;
    runDetectionShards(spec, {&task, 1}, {&out.detected, 1}, progress);
    return out;
}

void
runDetectionShards(const CampaignSpec &spec,
                   std::span<const ShardTask> tasks,
                   std::span<std::uint64_t> detected,
                   faultsim::McProgress *progress)
{
    const auto otherCell = [&](const ShardTask &task) {
        return task.point != tasks[0].point || task.cell != tasks[0].cell;
    };
    if (tasks.empty() || tasks.size() > ecc::maxDetectLanes ||
        detected.size() != tasks.size() ||
        std::any_of(tasks.begin(), tasks.end(), otherCell))
        throw std::invalid_argument("runDetectionShards: 1 to 8 shards "
                                    "of one cell, one count each");
    XED_TRACE_SPAN_ARG2("detection-group", "campaign", "index",
                        tasks[0].index, "shards", tasks.size());
    const DetectionCell cell = detectionCell(spec, tasks[0].cell);
    std::array<ecc::DetectLane, ecc::maxDetectLanes> lanes;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
        const std::uint64_t shardOrdinal = tasks[k].begin / spec.shardTrials;
        lanes[k].rng = Rng::stream(
            spec.seed, (std::uint64_t{tasks[k].cell} << 40) + shardOrdinal);
        lanes[k].trials = tasks[k].end - tasks[k].begin;
    }
    ecc::detectLanes(detectTables(cell.code), cell.burst, cell.weight,
                     std::span(lanes).first(tasks.size()));
    for (std::size_t k = 0; k < tasks.size(); ++k) {
        detected[k] = lanes[k].detected;
        if (progress) {
            progress->systemsDone.fetch_add(lanes[k].trials,
                                            std::memory_order_relaxed);
            progress->failedSystems.fetch_add(
                lanes[k].trials - lanes[k].detected,
                std::memory_order_relaxed);
        }
    }
}

json::Value
summaryRecord(const CampaignSpec &spec,
              const std::vector<CellSummary> &cells)
{
    auto record = json::Value::object();
    record.set("type", "summary");
    auto results = json::Value::array();
    std::uint64_t units = 0;
    auto failures = json::Value::object();
    for (const auto &cell : cells) {
        auto entry = json::Value::object();
        entry.set("point", cell.point);
        if (spec.sweep.active()) {
            entry.set("parameter", spec.sweep.parameter);
            entry.set("value", sweepValueJson(spec, cell.point));
        }
        entry.set("cell", cell.cell);
        entry.set("label", cell.label);
        if (spec.kind == CampaignKind::Reliability) {
            const auto &mc = cell.result.mc;
            auto years = json::Value::array();
            for (unsigned y = 1; y <= 7; ++y) {
                auto pair = json::Value::array();
                pair.push(mc.failByYear[y].successes());
                pair.push(mc.failByYear[y].trials());
                years.push(std::move(pair));
            }
            entry.set("failByYear", std::move(years));
            entry.set("probFailure", mc.probFailure());
            entry.set("halfWidth95", mc.failByYear[7].halfWidth95());
            auto types = json::Value::object();
            for (const auto &[name, count] : mc.failureTypes.all())
                types.set(name, count);
            entry.set("failureTypes", std::move(types));
            units += mc.failByYear[7].trials();
        } else if (spec.kind == CampaignKind::Fleet) {
            entry.set("fleet",
                      fleetSummaryJson(spec, cell.result.fleet));
            units += spec.fleet.totalDimms();
        } else {
            entry.set("detected", cell.result.detected);
            entry.set("trials", cell.result.trials);
            entry.set("detectionRate",
                      cell.result.trials
                          ? static_cast<double>(cell.result.detected) /
                                static_cast<double>(cell.result.trials)
                          : 0.0);
            units += cell.result.trials;
        }
        const std::uint64_t failed = failedSystemsOf(spec, cell.result);
        if (const json::Value *existing = failures.find(cell.label))
            failures.set(cell.label, existing->asUint() + failed);
        else
            failures.set(cell.label, failed);
        results.push(std::move(entry));
    }
    record.set("results", std::move(results));
    auto metrics = json::Value::object();
    metrics.set("unitsSimulated", units);
    metrics.set("failures", std::move(failures));
    record.set("metrics", std::move(metrics));
    return record;
}

RunOutcome
runCampaign(const CampaignSpec &spec, const RunOptions &options)
{
    RunOutcome outcome;
    if (options.trace)
        obs::TraceRecorder::instance().setEnabled(true);
    XED_TRACE_SPAN("campaign.run", "campaign");
    const Plan plan = buildPlan(spec);
    const std::string hash = specHash(spec);

    outcome.cells.resize(
        static_cast<std::size_t>(plan.points) * plan.cells);
    for (unsigned point = 0; point < plan.points; ++point) {
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            auto &summary = outcome.cells[point * plan.cells + cell];
            summary.point = point;
            summary.cell = cell;
            summary.label = cellLabel(spec, cell);
        }
    }

    // -- Store setup: replay a resumable prefix, or start fresh. -----
    // The loads decode on the thread count the shards run on.
    const unsigned requestedThreads =
        options.threads ? options.threads : spec.threads;
    const bool useStore = !options.outPath.empty();
    StoreWriter writer;
    std::uint64_t firstPending = 0;
    std::uint64_t replayedUnits = 0;
    if (useStore) {
        const bool exists = std::filesystem::exists(options.outPath);
        if (exists && !options.resume) {
            outcome.error = options.outPath +
                            " already exists; use resume (or remove it) "
                            "so completed shards are not re-simulated";
            return outcome;
        }
        if (exists) {
            const LoadedStore loaded = loadStore(options.outPath, hash, spec,
                                                 plan, requestedThreads);
            if (!loaded.ok) {
                outcome.error = loaded.error;
                return outcome;
            }
            firstPending = loaded.completedShards;
            replayedUnits = loaded.completedUnits;
            for (std::size_t c = 0; c < outcome.cells.size(); ++c)
                outcome.cells[c].result.merge(loaded.cells[c]);
            outcome.shardsReplayed = firstPending;
            if (loaded.hasSummary) {
                // Nothing to do: resuming a finished run is a no-op.
                outcome.ok = true;
                outcome.complete = true;
                return outcome;
            }
            if (!writer.open(options.outPath, loaded.validBytes,
                             &outcome.error, options.durableStore))
                return outcome;
        } else {
            if (!writer.open(options.outPath, -1, &outcome.error,
                             options.durableStore))
                return outcome;
            if (!writer.write(manifestRecord(spec, plan, hash),
                              &outcome.error))
                return outcome;
        }
    }

    // -- Forensics sidecar: written alongside the store, shard record
    // i committed strictly BEFORE store record i, so after a kill the
    // sidecar always covers the store's shard prefix. On resume it is
    // truncated back to exactly that prefix; a sidecar that cannot
    // cover the prefix (deleted, foreign, torn early) is discarded and
    // forensics disabled for the run, because replayed store records
    // carry no attribution to rebuild it from.
    StoreWriter forensicsWriter;
    bool useForensics = useStore && options.forensicsSidecar &&
                        spec.kind == CampaignKind::Reliability;
    if (useForensics) {
        const std::string sidecar = forensicsPath(options.outPath);
        if (firstPending == 0) {
            if (!forensicsWriter.open(sidecar, -1, &outcome.error,
                                      options.durableStore))
                return outcome;
        } else {
            const LoadedForensics loaded = loadForensics(
                sidecar, plan, firstPending, requestedThreads);
            if (!loaded.ok || loaded.shardRecords < firstPending) {
                std::error_code ec;
                std::filesystem::remove(sidecar, ec);
                useForensics = false;
            } else {
                // The replayed prefix contributes its attributions.
                for (std::size_t c = 0; c < outcome.cells.size(); ++c)
                    outcome.cells[c].result.mc.attribution.merge(
                        loaded.cells[c].attribution);
                if (!forensicsWriter.open(sidecar, loaded.validBytes,
                                          &outcome.error,
                                          options.durableStore))
                    return outcome;
            }
        }
    }
    outcome.forensicsWritten = useForensics;

    // maxShards counts shard *records* (replayed included), so "run 2,
    // kill, resume to 5" composes the way an interrupt does.
    const std::uint64_t limit =
        options.maxShards == 0
            ? plan.tasks.size()
            : std::min<std::uint64_t>(
                  plan.tasks.size(),
                  std::max(options.maxShards, firstPending));

    // -- Telemetry. ---------------------------------------------------
    MetricsRegistry registry;
    faultsim::McProgress progress;
    const std::uint64_t totalUnits =
        static_cast<std::uint64_t>(plan.points) * plan.cells *
        spec.unitsPerCell();
    registry.counter("shards.total").add(plan.tasks.size());
    registry.counter("shards.done").add(firstPending);
    registry.counter("units.total").add(totalUnits);
    registry.counter("units.replayed").add(replayedUnits);
    progress.systemsDone.fetch_add(replayedUnits);
    for (unsigned cell = 0; cell < plan.cells; ++cell)
        registry.counter("failed." + cellLabel(spec, cell)).add(0);
    for (const auto &cell : outcome.cells) {
        registry.counter("failed." + cell.label)
            .add(failedSystemsOf(spec, cell.result));
        progress.failedSystems.fetch_add(
            failedSystemsOf(spec, cell.result));
    }

    unsigned threads = 1;
    try {
        threads = resolveWorkerThreads(requestedThreads, limit - firstPending);
    } catch (const std::exception &e) {
        outcome.error = e.what();
        return outcome;
    }
    ProgressReporter::Setup telemetry;
    telemetry.intervalSeconds = options.progressIntervalSeconds;
    telemetry.statusOut = options.progressOut;
    if (useStore && options.telemetrySidecar)
        telemetry.sidecarPath = options.outPath + ".telemetry.jsonl";
    ProgressReporter reporter(telemetry, registry, progress);
    reporter.start(runMetadata(spec.name, hash, threads, firstPending));

    // -- Execute pending shards; write strictly in plan order. --------
    // The writer is fsync-bound and workers are not, so a worker that
    // claims shard i first waits until the writer has committed shard
    // i - window: at most `window` results wait in `ready` and in the
    // batch being committed, whatever the disk's latency.
    const std::uint64_t window = reorderWindowPerThread * threads;
    std::atomic<std::uint64_t> next{firstPending};
    std::atomic<bool> abort{false};
    std::mutex mutex;
    std::condition_variable readyCv;  ///< writer: shard `taken` ready
    std::condition_variable windowCv; ///< workers: `taken` advanced
    std::map<std::uint64_t, ReadyShard> ready;
    std::uint64_t taken = firstPending; ///< first uncommitted shard
    std::string workerError; ///< first failure; guarded by mutex
    // Every abort path goes through here: abort is set under the mutex,
    // so no waiter can test it between its check and its sleep, and
    // both sides are woken.
    const auto abortRun = [&] {
        {
            std::lock_guard<std::mutex> lock(mutex);
            abort.store(true);
        }
        readyCv.notify_all();
        windowCv.notify_all();
    };

    // Shard-time distributions feed the telemetry quantiles. The
    // references are resolved once here so workers never touch the
    // registry mutex on the hot path.
    Histogram &shardSeconds = registry.histogram("shard.seconds");
    Histogram &shardRate = registry.histogram("shard.unitsPerSec");

    // A worker claims shards [first, end): on a detection spec up to
    // ecc::maxDetectLanes consecutive shards of one (point, cell) -- the
    // plan orders shards point, cell, shard -- which it runs side by
    // side, otherwise one shard. False once the plan is claimed.
    const bool detection = spec.kind == CampaignKind::Detection;
    const std::uint64_t claimMost = detection ? ecc::maxDetectLanes : 1;
    const auto claim = [&](std::uint64_t &first, std::uint64_t &end) {
        first = next.load(std::memory_order_relaxed);
        do {
            if (first >= limit)
                return false;
            const std::uint64_t cellEnd =
                (first / plan.shardsPerCell + 1) * plan.shardsPerCell;
            end = std::min({first + claimMost, cellEnd, limit});
        } while (!next.compare_exchange_weak(first, end,
                                             std::memory_order_relaxed));
        return true;
    };

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            std::uint64_t first = 0, end = 0;
            while (!abort.load(std::memory_order_relaxed) &&
                   claim(first, end)) {
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    windowCv.wait(lock, [&] {
                        return end - 1 < taken + window ||
                               abort.load(std::memory_order_relaxed);
                    });
                    if (abort.load(std::memory_order_relaxed))
                        break;
                }
                // A throwing shard (bad spec interaction, OOM) must
                // not terminate the process: surface the first error,
                // wake the drain loop, and unwind cleanly so the
                // reporter can emit its "aborted" record.
                try {
                    const std::span<const ShardTask> tasks(
                        plan.tasks.data() + first, end - first);
                    std::array<std::uint64_t, ecc::maxDetectLanes> detected{};
                    ShardResult result; // a reliability or fleet shard
                    const auto t0 = std::chrono::steady_clock::now();
                    if (detection) {
                        runDetectionShards(
                            spec, tasks,
                            std::span(detected).first(tasks.size()),
                            &progress);
                    } else {
                        XED_TRACE_SPAN_ARG(
                            spec.kind == CampaignKind::Reliability
                                ? "reliability-shard"
                                : "fleet-shard",
                            "campaign", "index", first);
                        result = runShard(spec, tasks[0], &progress);
                    }
                    // Shards run side by side share the group's time.
                    const double dt =
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count() /
                        static_cast<double>(tasks.size());
                    for (std::size_t k = 0; k < tasks.size(); ++k) {
                        const ShardTask &task = tasks[k];
                        ReadyShard shard;
                        if (detection) {
                            shard.result.trials = task.end - task.begin;
                            shard.result.detected = detected[k];
                        } else {
                            shard.result = std::move(result);
                        }
                        shardSeconds.update(dt);
                        if (dt > 0)
                            shardRate.update(
                                static_cast<double>(task.end -
                                                    task.begin) /
                                dt);
                        // The worker, not the writer, encodes its
                        // shards' lines, so the writer only
                        // concatenates a batch.
                        if (useStore) {
                            XED_TRACE_SPAN_ARG("shard.encode", "campaign",
                                               "records",
                                               useForensics ? 2 : 1);
                            if (useForensics)
                                shard.forensicsLine =
                                    recordLine(forensicsShardRecord(
                                        task, shard.result.mc));
                            shard.storeLine = recordLine(
                                shardRecord(spec, task, shard.result));
                        }
                        std::lock_guard<std::mutex> lock(mutex);
                        ready.emplace(first + k, std::move(shard));
                    }
                    readyCv.notify_one();
                } catch (const std::exception &e) {
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        if (workerError.empty())
                            workerError = e.what();
                    }
                    abortRun();
                    break;
                }
            }
        });
    }

    // The writer takes every consecutive ready shard at once -- at most
    // `window` of them, since no worker runs further ahead -- and
    // commits the batch with one fsync per file. The sidecar's lines
    // are committed strictly before the store's, and the store gets
    // only the lines the sidecar took, so after a kill or a failed
    // write the sidecar is never behind the store; resume truncates it
    // back. Only the shards whose store line was committed are merged
    // and counted, and only then does the window advance past them.
    bool writeFailed = false;
    std::vector<ReadyShard> batch;
    std::string lines; ///< one batch's records, newline-terminated
    for (std::uint64_t i = firstPending; i < limit;) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(mutex);
            readyCv.wait(lock, [&] {
                return ready.count(i) != 0 ||
                       abort.load(std::memory_order_relaxed);
            });
            for (auto it = ready.begin();
                 it != ready.end() && it->first == i + batch.size();
                 it = ready.erase(it))
                batch.push_back(std::move(it->second));
        }
        if (batch.empty())
            break; // worker aborted before producing shard i
        std::size_t committed = batch.size();
        if (useForensics) {
            lines.clear();
            for (const ReadyShard &shard : batch)
                lines += shard.forensicsLine;
            committed = forensicsWriter.commit(lines, &outcome.error);
        }
        if (useStore && committed > 0) {
            lines.clear();
            for (std::size_t k = 0; k < committed; ++k)
                lines += batch[k].storeLine;
            committed = writer.commit(lines, &outcome.error);
        }
        for (std::size_t k = 0; k < committed; ++k) {
            const ShardTask &task = plan.tasks[i + k];
            outcome.cells[task.point * plan.cells + task.cell]
                .result.merge(batch[k].result);
            registry.counter("failed." + cellLabel(spec, task.cell))
                .add(failedSystemsOf(spec, batch[k].result));
        }
        registry.counter("shards.done").add(committed);
        outcome.shardsRun += committed;
        i += committed;
        if (committed < batch.size()) {
            writeFailed = true;
            abortRun(); // workers parked on the window must wake
            break;
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            taken = i;
        }
        windowCv.notify_all();
    }
    for (auto &worker : workers)
        worker.join();

    const auto exportTrace = [&] {
        const auto &recorder = obs::TraceRecorder::instance();
        if (!recorder.enabled())
            return;
        std::string path = options.traceOut;
        if (path.empty() && useStore)
            path = options.outPath + ".trace.json";
        if (path.empty())
            return;
        std::string traceError;
        if (recorder.exportTo(path, &traceError))
            outcome.tracePath = path;
        else if (options.progressOut)
            *options.progressOut
                << "trace export failed: " << traceError << "\n";
    };

    if (!workerError.empty()) {
        outcome.error = "shard execution failed: " + workerError;
        exportTrace();
        // No reporter.finish(): its destructor emits the "aborted"
        // record, distinguishing a crash from a clean partial run.
        return outcome;
    }
    if (writeFailed) {
        reporter.finish(false);
        exportTrace();
        return outcome;
    }

    outcome.complete = limit == plan.tasks.size();
    if (outcome.complete && useForensics) {
        for (const auto &cell : outcome.cells) {
            if (!forensicsWriter.write(
                    forensicsSummaryRecord(cell.point, cell.cell,
                                           cell.label, cell.result.mc),
                    &outcome.error)) {
                reporter.finish(false);
                exportTrace();
                return outcome;
            }
        }
    }
    if (outcome.complete && useStore &&
        !writer.write(summaryRecord(spec, outcome.cells),
                      &outcome.error)) {
        reporter.finish(false);
        exportTrace();
        return outcome;
    }
    reporter.finish(outcome.complete);
    exportTrace();
    outcome.ok = true;
    return outcome;
}

void
printPlan(const CampaignSpec &spec, std::ostream &os)
{
    const Plan plan = buildPlan(spec);
    os << "spec:     " << spec.name << " (" << campaignKindName(spec.kind)
       << ")\nspecHash: " << specHash(spec) << "\nresolved: "
       << json::dump(specToJson(spec)) << "\n\n";

    Table table({"Point", spec.sweep.active() ? spec.sweep.parameter
                                              : "-",
                 "Cell", "Label", "Units", "Shards", "Shard size"});
    for (unsigned point = 0; point < plan.points; ++point) {
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            table.addRow(
                {std::to_string(point),
                 spec.sweep.active()
                     ? json::formatDouble(spec.sweep.values[point])
                     : "-",
                 std::to_string(cell), cellLabel(spec, cell),
                 std::to_string(spec.unitsPerCell()),
                 std::to_string(plan.shardsPerCell),
                 std::to_string(spec.unitsPerShard())});
        }
    }
    table.print(os, "Shard plan (dry run): " +
                        std::to_string(plan.tasks.size()) +
                        " shards total");
    os << "\ntotal shards: " << plan.tasks.size()
       << "\ntotal units:  "
       << static_cast<std::uint64_t>(plan.points) * plan.cells *
              spec.unitsPerCell()
       << "\n";
}

bool
printReport(const std::string &storePath, std::ostream &os,
            std::string *error, unsigned threads)
{
    const auto manifest = readStoreManifest(storePath, error);
    if (!manifest)
        return false;
    const CampaignSpec &spec = manifest->spec;
    const Plan plan = buildPlan(spec);
    const LoadedStore loaded =
        loadStore(storePath, specHash(spec), spec, plan, threads);
    if (!loaded.ok) {
        if (error)
            *error = loaded.error;
        return false;
    }

    const std::vector<ShardResult> &cells = loaded.cells;

    os << "campaign: " << spec.name << "   shards: "
       << loaded.completedShards << "/" << plan.tasks.size()
       << (loaded.hasSummary ? " (complete)" : " (partial)") << "\n\n";

    for (unsigned point = 0; point < plan.points; ++point) {
        std::string title = spec.name;
        if (spec.sweep.active())
            title += ": " + spec.sweep.parameter + " = " +
                     json::formatDouble(spec.sweep.values[point]);
        if (spec.kind == CampaignKind::Reliability) {
            Table table({"Scheme", "Y1", "Y2", "Y3", "Y4", "Y5", "Y6",
                         "Y7 P(fail)", "95% CI half-width"});
            for (unsigned cell = 0; cell < plan.cells; ++cell) {
                const auto &mc = cells[point * plan.cells + cell].mc;
                std::vector<std::string> row{cellLabel(spec, cell)};
                for (unsigned y = 1; y <= 7; ++y)
                    row.push_back(
                        Table::sci(mc.failByYear[y].value(), 2));
                row.push_back(
                    Table::sci(mc.failByYear[7].halfWidth95(), 1));
                table.addRow(row);
            }
            table.print(os, title);
        } else if (spec.kind == CampaignKind::Fleet) {
            const FleetDerived derived =
                deriveFleet(spec, cells[point].fleet);
            Table cohortTable({"Cohort", "Scheme", "DIMMs", "Installs",
                               "Repl", "Retired", "DUE", "SDC",
                               "Canary alert"});
            for (std::size_t c = 0; c < spec.fleet.cohorts.size();
                 ++c) {
                const auto &cohort = spec.fleet.cohorts[c];
                const auto &series = derived.cohorts[c];
                const auto alert =
                    cohort.canary
                        ? fleet::canaryAlertEpoch(
                              series, cohort.dimms,
                              spec.fleet.policies.canaryDueThreshold)
                        : std::nullopt;
                cohortTable.addRow(
                    {cohort.name,
                     faultsim::schemeKindName(cohort.scheme),
                     std::to_string(cohort.dimms),
                     std::to_string(series.totalInstalls()),
                     std::to_string(series.totalReplacements()),
                     std::to_string(series.totalRetirements()),
                     std::to_string(series.totalDue()),
                     std::to_string(series.totalSdc()),
                     alert ? "epoch " + std::to_string(*alert)
                           : (cohort.canary ? "none" : "-")});
            }
            cohortTable.print(os, title + ": cohorts");
            os << "\n";

            // Fleet-wide time series, one row per simulated year
            // (plus the final partial epoch when the horizon is not a
            // whole number of years).
            const unsigned stride = std::max<unsigned>(
                1, static_cast<unsigned>(
                       hoursPerYear / spec.fleet.epochHours + 0.5));
            Table seriesTable({"Epoch", "Years", "In service",
                               "Availability", "DUE (cum)", "SDC (cum)",
                               "Repl (cum)"});
            for (unsigned e = stride - 1; e < derived.epochs;
                 e += stride) {
                const bool last = e + stride >= derived.epochs;
                const unsigned row =
                    last ? derived.epochs - 1 : e;
                const double years =
                    static_cast<double>(row + 1) *
                    spec.fleet.epochHours / hoursPerYear;
                seriesTable.addRow(
                    {std::to_string(row),
                     json::formatDouble(years),
                     std::to_string(derived.inService[row]),
                     Table::pct(derived.availability(row)),
                     std::to_string(derived.cumulativeDue[row]),
                     std::to_string(derived.cumulativeSdc[row]),
                     std::to_string(
                         derived.cumulativeReplacements[row])});
                if (last)
                    break;
            }
            seriesTable.print(os, title + ": fleet time series");
        } else {
            std::vector<std::string> headers{"Errors"};
            const unsigned pairs = static_cast<unsigned>(
                spec.codes.size() * spec.patterns.size());
            for (unsigned pair = 0; pair < pairs; ++pair) {
                const unsigned cell = pair * spec.maxWeight;
                const DetectionCell d = detectionCell(spec, cell);
                headers.push_back(d.code +
                                  (d.burst ? " burst" : " random"));
            }
            Table table(headers);
            for (unsigned weight = 1; weight <= spec.maxWeight;
                 ++weight) {
                std::vector<std::string> row{std::to_string(weight)};
                for (unsigned pair = 0; pair < pairs; ++pair) {
                    const unsigned cell =
                        pair * spec.maxWeight + (weight - 1);
                    const auto &r = cells[point * plan.cells + cell];
                    row.push_back(
                        r.trials
                            ? Table::pct(static_cast<double>(
                                             r.detected) /
                                         static_cast<double>(r.trials))
                            : "-");
                }
                table.addRow(row);
            }
            table.print(os, title);
        }
        os << "\n";
    }

    const std::string sidecar = forensicsPath(storePath);
    if (spec.kind != CampaignKind::Reliability ||
        !std::filesystem::exists(sidecar))
        return true; // no sidecar: forensics were disabled
    // The sidecar may run a batch ahead of the store: only the store's
    // shard prefix counts, as in status.
    return printForensics(
        loadForensics(sidecar, plan, loaded.completedShards, threads), spec,
        plan, os, error);
}

} // namespace xed::campaign
