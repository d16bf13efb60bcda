/**
 * @file
 * Per-layer harness of the repository benchmark (benchmark/run.py
 * --layers). Times calls into the public functions of each module a
 * benchmark workload reaches -- perfsim, faultsim, ecc, campaign and
 * common/json -- and prints one JSON document on stdout:
 *
 *   {"harness_s": ...,         // wall time of all groups, no export
 *    "metrics": {"perfsim.simulate.busy_s": ..., ...},
 *    "counts": {...},          // work done; checks the work happened
 *    "perfsim_runs": [...],    // every RunResult of the perfsim matrix
 *    "trace": {"enabled": ..., "events": ..., "dropped_events": ...}}
 *
 * Each group of calls runs inside its own obs::ScopedSpan, so a traced
 * run (--trace-out) exports a Chrome trace whose per-(cat, name) self
 * times benchmark/trace_summary.py tabulates. The spans the program
 * records itself (perfsim.simulate, detect.batch, store.write, ...)
 * nest inside them.
 *
 * usage: xed_layers --work <dir> [--trace-out <file>] [--smoke]
 *
 *   --work       scratch directory for the store files (must exist)
 *   --trace-out  enable the trace recorder and export to this path;
 *                without it the run measures trace.overhead_frac first
 *   --smoke      minimum-scale sizes (checks the harness runs, in ms)
 *
 * Sizes are fixed (no seed knob): every input is derived from constant
 * seeds, so the perfsim RunResults -- and therefore their digest in
 * benchmark/digests.json -- repeat exactly.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/spec.hh"
#include "campaign/store.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "ecc/crc8atm.hh"
#include "ecc/error_patterns.hh"
#include "ecc/hamming7264.hh"
#include "faultsim/engine.hh"
#include "faultsim/fault_model.hh"
#include "faultsim/scheme.hh"
#include "obs/trace.hh"
#include "perfsim/system.hh"
#include "perfsim/tracegen.hh"
#include "perfsim/workloads.hh"

using namespace xed;

namespace
{

using Clock = std::chrono::steady_clock;

/** Work sizes of one harness run; full() is what --layers measures. */
struct Scale
{
    std::size_t perfWorkloads;       ///< leading paperWorkloads() used
    std::uint64_t perfOpsPerCore;    ///< simulate() trace length
    std::uint64_t tracegenOps;       ///< TraceGen::next() per workload
    std::uint64_t sampleDimms;       ///< sampled DIMM lifetimes
    std::size_t evalDimms;           ///< non-empty DIMMs per scheme
    unsigned evalRepeats;            ///< passes over those DIMMs
    std::uint64_t mcSystems;         ///< runMonteCarlo per 1-thread run
    std::uint64_t patternWords;      ///< generated error patterns
    std::uint64_t detectWords;       ///< words through detectMany
    std::uint64_t detectionTrials;   ///< per detection cell
    std::uint64_t reliabilitySystems; ///< per reliability cell
    unsigned jsonRepeats;            ///< encode/parse passes
    std::uint64_t durableRecords;    ///< fsync'd StoreWriter lines
    std::uint64_t bufferedRecords;   ///< un-fsync'd StoreWriter lines
    std::uint64_t storeSystems;      ///< per cell of the loaded store
    unsigned storeRepeats;           ///< loadStore / printReport passes
    unsigned overheadRounds;         ///< untraced/traced probe pairs

    static Scale
    full()
    {
        return {.perfWorkloads = 31,
                .perfOpsPerCore = 8000,
                .tracegenOps = 400000,
                .sampleDimms = 4000000,
                .evalDimms = 20000,
                .evalRepeats = 20,
                .mcSystems = 4000000,
                .patternWords = 16000000,
                .detectWords = 256000000,
                .detectionTrials = 500000,
                .reliabilitySystems = 1000000,
                .jsonRepeats = 60,
                .durableRecords = 1000,
                .bufferedRecords = 50000,
                .storeSystems = 1000000,
                .storeRepeats = 10,
                .overheadRounds = 9};
    }

    static Scale
    smoke()
    {
        return {.perfWorkloads = 2,
                .perfOpsPerCore = 200,
                .tracegenOps = 1000,
                .sampleDimms = 20000,
                .evalDimms = 100,
                .evalRepeats = 1,
                .mcSystems = 20000,
                .patternWords = 8192,
                .detectWords = 8192,
                .detectionTrials = 1024,
                .reliabilitySystems = 20000,
                .jsonRepeats = 1,
                .durableRecords = 4,
                .bufferedRecords = 64,
                .storeSystems = 20000,
                .storeRepeats = 1,
                .overheadRounds = 2};
    }
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Wall time of one call of @p body, in seconds. */
template <typename Body>
double
timed(Body &&body)
{
    const auto t0 = Clock::now();
    body();
    return secondsSince(t0);
}

campaign::CampaignSpec
specFrom(const std::string &text)
{
    std::string error;
    const auto doc = json::parse(text, &error);
    if (!doc)
        throw std::runtime_error("harness spec: " + error);
    auto spec = campaign::parseSpec(*doc, &error);
    if (!spec)
        throw std::runtime_error("harness spec: " + error);
    return *spec;
}

/** The fig07 scheme set as a campaign spec of @p systems per cell. */
campaign::CampaignSpec
reliabilitySpec(std::uint64_t systems, std::uint64_t shardSystems)
{
    return specFrom(
        R"({"name": "layers_reliability", "kind": "reliability",
            "seed": 61799, "schemes": ["secded", "xed", "chipkill"],
            "systems": )" +
        std::to_string(systems) +
        R"(, "shardSystems": )" + std::to_string(shardSystems) + "}");
}

/** Table II's codes and pattern kinds, one shard of @p trials per cell. */
campaign::CampaignSpec
detectionSpec(std::uint64_t trials)
{
    return specFrom(
        R"({"name": "layers_detection", "kind": "detection",
            "seed": 2738, "codes": ["hamming7264", "crc8atm"],
            "patterns": ["random", "burst"], "maxWeight": 8,
            "trials": )" +
        std::to_string(trials) + R"(, "shardTrials": )" +
        std::to_string(trials) + "}");
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

json::Value
runJson(const perfsim::RunResult &run)
{
    auto stats = json::Value::object();
    stats.set("reads", run.stats.reads);
    stats.set("writes", run.stats.writes);
    stats.set("rowHits", run.stats.rowHits);
    stats.set("rankActivates", run.stats.rankActivates);
    stats.set("bankActivates", run.stats.bankActivates);
    stats.set("readBusCycles", run.stats.readBusCycles);
    stats.set("writeBusCycles", run.stats.writeBusCycles);
    stats.set("refreshes", run.stats.refreshes);
    stats.set("extraWrites", run.stats.extraWrites);
    auto power = json::Value::object();
    power.set("background", run.power.background);
    power.set("activate", run.power.activate);
    power.set("readWrite", run.power.readWrite);
    power.set("refresh", run.power.refresh);
    auto entry = json::Value::object();
    entry.set("workload", run.workload);
    entry.set("mode", run.mode);
    entry.set("cycles", run.cycles);
    entry.set("seconds", run.seconds);
    entry.set("stats", std::move(stats));
    entry.set("power", std::move(power));
    return entry;
}

class Harness
{
  public:
    Harness(const Scale &scale, std::filesystem::path work)
        : scale_(scale), work_(std::move(work))
    {
    }

    void
    perfsim()
    {
        using namespace perfsim;
        const auto &workloads = paperWorkloads();
        const std::size_t used =
            std::min(scale_.perfWorkloads, workloads.size());
        simulateMatrix(workloads, used);

        // TraceGen alone: the per-operation cost simulate() pays before
        // the memory system sees a request.
        obs::ScopedSpan span("layers.perfsim.tracegen", "perfsim");
        std::uint64_t checksum = 0;
        const double dt = timed([&] {
            for (std::size_t w = 0; w < used; ++w) {
                TraceGen gen(workloads[w], TraceGen::AddressSpace{},
                             0x5EED + w);
                for (std::uint64_t i = 0; i < scale_.tracegenOps; ++i) {
                    const MemOp op = gen.next();
                    checksum += op.gapInstrs + op.addr.row + op.isWrite;
                }
            }
        });
        metric("perfsim.tracegen.ops_per_s",
               static_cast<double>(used * scale_.tracegenOps) / dt);
        count("perfsim.tracegen.checksum", checksum);
    }

    void
    simulateMatrix(const std::vector<perfsim::Workload> &workloads,
                   std::size_t used)
    {
        using namespace perfsim;
        obs::ScopedSpan span("layers.perfsim.simulate", "perfsim");

        // Figures 11-14 normalize against the baseline; Double-Chipkill
        // (ganged channels, rank lockstep) and LOT-ECC (extra writes)
        // are the two modes whose memory systems differ most from it.
        const ProtectionMode modes[] = {ProtectionMode::SecdedBaseline,
                                        ProtectionMode::DoubleChipkill,
                                        ProtectionMode::LotEcc};
        PerfConfig config;
        config.memOpsPerCore = scale_.perfOpsPerCore;
        double busy = 0, lowNs = 0, highNs = 0;
        std::uint64_t calls = 0, cycles = 0, lowCycles = 0, highCycles = 0;
        auto runs = json::Value::array();
        for (std::size_t w = 0; w < used; ++w) {
            const Workload &workload = workloads[w];
            for (const ProtectionMode mode : modes) {
                RunResult run;
                const double dt =
                    timed([&] { run = simulate(workload, mode, config); });
                busy += dt;
                ++calls;
                cycles += run.cycles;
                // The MPKI bands split idle-dominated runs (where
                // skipping idle cycles pays) from queue-bound ones.
                if (workload.mpki < 5) {
                    lowNs += dt * 1e9;
                    lowCycles += run.cycles;
                } else if (workload.mpki >= 12) {
                    highNs += dt * 1e9;
                    highCycles += run.cycles;
                }
                runs.push(runJson(run));
            }
        }
        const double memOps = static_cast<double>(calls) * config.cores *
                              static_cast<double>(config.memOpsPerCore);
        metric("perfsim.simulate.busy_s", busy);
        metric("perfsim.simulate.calls", static_cast<double>(calls));
        metric("perfsim.simulate.sim_cycles_per_s", cycles / busy);
        metric("perfsim.simulate.mem_ops_per_s", memOps / busy);
        metric("perfsim.simulate.ns_per_sim_cycle.low_mpki",
               lowCycles ? lowNs / lowCycles : 0.0);
        metric("perfsim.simulate.ns_per_sim_cycle.high_mpki",
               highCycles ? highNs / highCycles : 0.0);
        count("perfsim.simulate.sim_cycles", cycles);
        perfsimRuns_ = std::move(runs);
    }

    void
    faultsim()
    {
        using namespace xed::faultsim;
        const AddressLayout layout(dram::ChipGeometry{});
        const FitTable fit;

        {
            obs::ScopedSpan span("layers.faultsim.sample", "faultsim");
            const auto scheme = makeScheme(SchemeKind::Secded, {});
            const SampleContext ctx(fit, layout, scheme->dimmShape(),
                                    evaluationHours);
            std::vector<FaultEvent> events;
            events.reserve(64);
            std::uint64_t nonzero = 0;
            const double dt = timed([&] {
                for (std::uint64_t s = 0; s < scale_.sampleDimms; ++s) {
                    Rng rng = Rng::stream(0xD1AA, s);
                    sampleDimmFaultsInto(rng, ctx, events);
                    nonzero += !events.empty();
                }
            });
            metric("faultsim.sample.dimms_per_s",
                   static_cast<double>(scale_.sampleDimms) / dt);
            metric("faultsim.sample.nonzero_frac",
                   static_cast<double>(nonzero) /
                       static_cast<double>(scale_.sampleDimms));
        }

        struct EvalCase
        {
            const char *label;
            SchemeKind kind;
            double scalingRate;
        };
        const EvalCase cases[] = {
            {"secded", SchemeKind::Secded, 0},
            {"xed", SchemeKind::Xed, 0},
            {"chipkill", SchemeKind::Chipkill, 0},
            {"xed_scaling", SchemeKind::Xed, 1e-4},
            {"double_chipkill_lockstep",
             SchemeKind::DoubleChipkillLockstep, 0},
        };
        for (const EvalCase &c : cases) {
            OnDieOptions onDie;
            onDie.scalingRate = c.scalingRate;
            const auto scheme = makeScheme(c.kind, onDie);
            const SampleContext ctx(fit, layout, scheme->dimmShape(),
                                    evaluationHours);

            // Pre-sample the DIMMs that reach evaluation in the engine
            // (the zero-fault ones never do), flattened with offsets.
            std::vector<FaultEvent> flat, events;
            std::vector<std::size_t> offsets{0};
            for (std::uint64_t s = 0; offsets.size() <= scale_.evalDimms;
                 ++s) {
                Rng rng = Rng::stream(0xE7A1, s);
                sampleDimmFaultsInto(rng, ctx, events);
                if (events.empty())
                    continue;
                flat.insert(flat.end(), events.begin(), events.end());
                offsets.push_back(flat.size());
            }

            obs::ScopedSpan span("layers.faultsim.evaluate", "faultsim");
            EvalScratch scratch;
            scratch.reserve(64);
            Rng rng(0xE7A2);
            std::uint64_t failures = 0;
            const double dt = timed([&] {
                for (unsigned r = 0; r < scale_.evalRepeats; ++r)
                    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
                        const std::span<const FaultEvent> dimm(
                            flat.data() + offsets[i],
                            offsets[i + 1] - offsets[i]);
                        if (scheme->evaluateDimm(dimm, layout, rng, scratch))
                            ++failures;
                    }
            });
            const double evaluated =
                static_cast<double>(scale_.evalDimms) * scale_.evalRepeats;
            metric(std::string("faultsim.evaluate.dimms_per_s.") + c.label,
                   evaluated / dt);
            count(std::string("faultsim.evaluate.failures.") + c.label,
                  failures);
        }

        McConfig config;
        config.seed = 61799;
        config.systems = scale_.mcSystems;
        config.threads = 1;
        double xedSerial = 0;
        const std::pair<const char *, SchemeKind> mcCases[] = {
            {"secded", SchemeKind::Secded},
            {"xed", SchemeKind::Xed},
            {"chipkill", SchemeKind::Chipkill}};
        for (const auto &[label, kind] : mcCases) {
            obs::ScopedSpan span("layers.faultsim.mc", "faultsim");
            const auto scheme = makeScheme(kind, {});
            McResult result;
            const double dt =
                timed([&] { result = runMonteCarlo(*scheme, config); });
            const double rate = static_cast<double>(config.systems) / dt;
            metric(std::string("faultsim.mc.systems_per_s.") + label, rate);
            count(std::string("faultsim.mc.failed.") + label,
                  result.failByYear[7].successes());
            if (kind == SchemeKind::Xed)
                xedSerial = rate;
        }
        {
            obs::ScopedSpan span("layers.faultsim.mc_4t", "faultsim");
            McConfig threaded = config;
            threaded.threads = 4;
            threaded.systems = 4 * config.systems;
            const auto scheme = makeScheme(SchemeKind::Xed, {});
            McResult result;
            const double dt =
                timed([&] { result = runMonteCarlo(*scheme, threaded); });
            const double rate = static_cast<double>(threaded.systems) / dt;
            metric("faultsim.mc.systems_per_s.xed_4t", rate);
            metric("faultsim.mc.thread_scaling", rate / xedSerial);
            count("faultsim.mc.failed.xed_4t",
                  result.failByYear[7].successes());
        }
    }

    void
    ecc()
    {
        constexpr std::size_t batchSize = 512;
        std::array<ecc::Word72, batchSize> batch;
        const std::uint64_t rounds =
            std::max<std::uint64_t>(1, scale_.patternWords / batchSize);

        obs::ScopedSpan span("layers.ecc", "ecc");
        const auto patternRate = [&](const char *label, auto &&fill) {
            Rng rng(0xBA7C);
            std::uint64_t checksum = 0;
            const double dt = timed([&] {
                for (std::uint64_t r = 0; r < rounds; ++r) {
                    fill(rng, std::span<ecc::Word72>(batch));
                    checksum += batch[r % batchSize].lo;
                }
            });
            metric(std::string("ecc.patterns.words_per_s.") + label,
                   static_cast<double>(rounds * batchSize) / dt);
            count(std::string("ecc.patterns.checksum.") + label, checksum);
        };
        patternRate("random_w4", [](Rng &rng, std::span<ecc::Word72> out) {
            ecc::randomPatternsInto(rng, 4, out);
        });
        // Table II's burst column draws solid bursts.
        patternRate("burst_l8", [](Rng &rng, std::span<ecc::Word72> out) {
            ecc::solidBurstPatternsInto(rng, 8, out);
        });

        const ecc::Hamming7264 hamming;
        const ecc::Crc8Atm crc;
        const std::pair<const char *, const ecc::Secded7264 *> codes[] = {
            {"hamming7264", &hamming}, {"crc8atm", &crc}};
        for (const auto &[label, code] : codes) {
            // 64 distinct batches of weight-4 errors on one codeword, so
            // the kernel streams from L1/L2 like a campaign shard does.
            constexpr std::size_t batches = 64;
            std::vector<ecc::Word72> words(batches * batchSize);
            Rng rng(0xDE7C);
            ecc::randomPatternsInto(rng, 4, words);
            const ecc::Word72 clean = code->encode(0x0123456789ABCDEFull);
            for (ecc::Word72 &word : words)
                word = clean ^ word;
            const std::uint64_t passes = std::max<std::uint64_t>(
                1, scale_.detectWords / words.size());
            std::uint64_t detected = 0;
            const double dt = timed([&] {
                for (std::uint64_t p = 0; p < passes; ++p)
                    for (std::size_t b = 0; b < batches; ++b)
                        detected += code->detectMany(
                            std::span<const ecc::Word72>(
                                words.data() + b * batchSize, batchSize));
            });
            metric(std::string("ecc.detect.words_per_s.") + label,
                   static_cast<double>(passes * words.size()) / dt);
            count(std::string("ecc.detect.detected.") + label, detected);
        }

        const auto spec = detectionSpec(scale_.detectionTrials);
        const campaign::Plan plan = campaign::buildPlan(spec);
        std::uint64_t trials = 0, detected = 0;
        const double dt = timed([&] {
            for (const auto &task : plan.tasks) {
                const auto result =
                    campaign::runDetectionShard(spec, task, nullptr);
                trials += result.trials;
                detected += result.detected;
            }
        });
        metric("campaign.detection_shard.trials_per_s",
               static_cast<double>(trials) / dt);
        count("campaign.detection_shard.detected", detected);
    }

    void
    campaignAndJson()
    {
        using namespace campaign;
        const CampaignSpec spec =
            reliabilitySpec(scale_.reliabilitySystems, 10000);
        const Plan plan = buildPlan(spec);

        std::vector<ShardResult> results;
        {
            obs::ScopedSpan span("layers.campaign.reliability_shard",
                                 "campaign");
            const double dt = timed([&] {
                for (const auto &task : plan.tasks)
                    results.push_back(
                        runReliabilityShard(spec, task, nullptr));
            });
            metric("campaign.reliability_shard.systems_per_s",
                   static_cast<double>(spec.systems * plan.cells) / dt);
        }

        std::vector<std::string> lines(plan.tasks.size());
        {
            obs::ScopedSpan span("layers.common.json", "common");
            std::uint64_t bytes = 0;
            double dt = timed([&] {
                for (unsigned r = 0; r < scale_.jsonRepeats; ++r)
                    for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
                        lines[i] = json::dump(
                            shardRecord(spec, plan.tasks[i], results[i]));
                        bytes += lines[i].size();
                    }
            });
            metric("common.json.encode_mb_per_s", bytes / 1e6 / dt);

            std::uint64_t failed = 0;
            bytes = 0;
            dt = timed([&] {
                for (unsigned r = 0; r < scale_.jsonRepeats; ++r)
                    for (const std::string &line : lines) {
                        const auto doc = json::parse(line);
                        if (!doc)
                            throw std::runtime_error(
                                "shard record does not parse");
                        failed += shardResultFromJson(spec, *doc)
                                      .mc.failByYear[7]
                                      .successes();
                        bytes += line.size();
                    }
            });
            metric("common.json.parse_mb_per_s", bytes / 1e6 / dt);
            count("common.json.failed_systems", failed);
        }

        {
            obs::ScopedSpan span("layers.campaign.store", "campaign");
            const auto writeRate = [&](const char *name, bool durable,
                                       std::uint64_t records) {
                const auto path = work_ / name;
                std::string error;
                double dt = 0;
                {
                    StoreWriter writer;
                    if (!writer.open(path.string(), -1, &error, durable))
                        throw std::runtime_error(error);
                    dt = timed([&] {
                        for (std::uint64_t i = 0; i < records; ++i)
                            if (!writer.writeLine(lines[i % lines.size()],
                                                  &error))
                                throw std::runtime_error(error);
                    });
                }
                std::filesystem::remove(path);
                return static_cast<double>(records) / dt;
            };
            const double durable = writeRate("layers_durable.jsonl", true,
                                             scale_.durableRecords);
            const double buffered = writeRate(
                "layers_buffered.jsonl", false, scale_.bufferedRecords);
            metric("campaign.store.records_per_s.durable", durable);
            metric("campaign.store.records_per_s.buffered", buffered);
            metric("campaign.store.fsync_wait_frac",
                   1.0 - durable / buffered);
        }

        {
            // A complete fig07-shaped store, 1000 systems per shard.
            const CampaignSpec storeSpec =
                reliabilitySpec(scale_.storeSystems, 1000);
            const Plan storePlan = buildPlan(storeSpec);
            const auto path = work_ / "layers_store.jsonl";
            RunOptions options;
            options.outPath = path.string();
            options.telemetrySidecar = false;
            options.forensicsSidecar = false;
            options.durableStore = false;
            // Building the store is untimed preparation. With recording
            // on, runCampaign would also export its own trace file.
            auto &recorder = obs::TraceRecorder::instance();
            const bool tracing = recorder.enabled();
            recorder.setEnabled(false);
            const RunOutcome outcome = runCampaign(storeSpec, options);
            recorder.setEnabled(tracing);
            if (!outcome.ok || !outcome.complete)
                throw std::runtime_error("store build: " + outcome.error);

            obs::ScopedSpan span("layers.campaign.load", "campaign");
            const std::string hash = specHash(storeSpec);
            const auto bytes = std::filesystem::file_size(path);
            std::uint64_t loaded = 0;
            double dt = timed([&] {
                for (unsigned r = 0; r < scale_.storeRepeats; ++r) {
                    const LoadedStore store =
                        loadStore(path.string(), hash, storeSpec, storePlan);
                    if (!store.ok || !store.hasSummary)
                        throw std::runtime_error("loadStore: " + store.error);
                    loaded += store.completedShards;
                }
            });
            metric("campaign.store.load_mb_per_s",
                   static_cast<double>(bytes) * scale_.storeRepeats / 1e6 /
                       dt);
            count("campaign.store.loaded_shards", loaded);

            std::size_t reportBytes = 0;
            dt = timed([&] {
                for (unsigned r = 0; r < scale_.storeRepeats; ++r) {
                    std::ostringstream os;
                    std::string error;
                    if (!printReport(path.string(), os, &error))
                        throw std::runtime_error("printReport: " + error);
                    reportBytes = os.str().size();
                }
            });
            metric("campaign.report_s", dt / scale_.storeRepeats);
            count("campaign.report_bytes", reportBytes);
            std::filesystem::remove(path);
        }
    }

    /**
     * trace.overhead_frac: the cost of recording, measured inside one
     * process so that the machine's drift between two runs does not
     * enter it. The probe is the densest span sites the workloads hit
     * (one detect.batch span per 512 detection trials, one store.write
     * span per record), run with the recorder off and on in alternating
     * order; the metric is the ratio of the medians minus one. Must run
     * before recording is armed for an export: it clears the rings.
     */
    void
    traceOverhead()
    {
        using namespace campaign;
        const CampaignSpec detection = detectionSpec(scale_.detectionTrials);
        const Plan detectionPlan = buildPlan(detection);
        const CampaignSpec records = reliabilitySpec(10000, 10000);
        const Plan recordsPlan = buildPlan(records);
        const std::string line = json::dump(
            shardRecord(records, recordsPlan.tasks[0],
                        runReliabilityShard(records, recordsPlan.tasks[0],
                                            nullptr)));
        const auto path = work_ / "layers_overhead.jsonl";

        const auto probe = [&] {
            for (const auto &task : detectionPlan.tasks)
                runDetectionShard(detection, task, nullptr);
            std::string error;
            StoreWriter writer;
            if (!writer.open(path.string(), -1, &error, false))
                throw std::runtime_error(error);
            for (std::uint64_t i = 0; i < scale_.bufferedRecords; ++i)
                if (!writer.writeLine(line, &error))
                    throw std::runtime_error(error);
        };
        auto &recorder = obs::TraceRecorder::instance();
        std::vector<double> off, on;
        for (unsigned r = 0; r < scale_.overheadRounds; ++r)
            for (const bool traced : {r % 2 == 1, r % 2 == 0}) {
                recorder.setEnabled(traced);
                (traced ? on : off).push_back(timed(probe));
                recorder.setEnabled(false);
            }
        recorder.clear();
        std::filesystem::remove(path);
        metric("trace.overhead_frac", median(on) / median(off) - 1.0);
    }

    json::Value
    document(bool traced, double seconds) const
    {
        const auto &recorder = obs::TraceRecorder::instance();
        auto trace = json::Value::object();
        trace.set("enabled", traced);
        trace.set("events", std::uint64_t{recorder.eventCount()});
        trace.set("dropped_events", recorder.droppedCount());
        auto doc = json::Value::object();
        doc.set("harness_s", seconds);
        doc.set("metrics", metrics_);
        doc.set("counts", counts_);
        doc.set("perfsim_runs", perfsimRuns_);
        doc.set("trace", std::move(trace));
        return doc;
    }

  private:
    void metric(const std::string &name, double value)
    {
        metrics_.set(name, value);
    }
    void count(const std::string &name, std::uint64_t value)
    {
        counts_.set(name, value);
    }

    Scale scale_;
    std::filesystem::path work_;
    json::Value metrics_ = json::Value::object();
    json::Value counts_ = json::Value::object();
    json::Value perfsimRuns_ = json::Value::array();
};

int
usage()
{
    std::cerr << "usage: xed_layers --work <dir> [--trace-out <file>] "
                 "[--smoke]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string work, traceOut;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--work" && i + 1 < argc)
            work = argv[++i];
        else if (arg == "--trace-out" && i + 1 < argc)
            traceOut = argv[++i];
        else
            return usage();
    }
    if (work.empty() || !std::filesystem::is_directory(work))
        return usage();

    Harness harness(smoke ? Scale::smoke() : Scale::full(), work);
    if (traceOut.empty())
        harness.traceOverhead();

    auto &recorder = obs::TraceRecorder::instance();
    recorder.setEnabled(!traceOut.empty());
    const double seconds = timed([&] {
        harness.perfsim();
        harness.faultsim();
        harness.ecc();
        harness.campaignAndJson();
    });

    recorder.setEnabled(false);
    std::string error;
    if (!traceOut.empty() && !recorder.exportTo(traceOut, &error)) {
        std::cerr << "xed_layers: " << error << "\n";
        return 1;
    }
    std::cout << json::dump(harness.document(!traceOut.empty(), seconds))
              << "\n";
    return 0;
} catch (const std::exception &e) {
    std::cerr << "xed_layers: " << e.what() << "\n";
    return 1;
}
