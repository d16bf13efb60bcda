/**
 * @file
 * Monte-Carlo sampling-kernel throughput on the fig07-shaped workload
 * (SECDED / XED / Chipkill, seed 61799): systems simulated per second,
 * serial and threaded, written as BENCH_mc_throughput.json.
 *
 * Knobs (see bench_util.hh): XED_MC_SYSTEMS scales the measured run
 * (default 1M), XED_MC_SEED / XED_MC_THREADS select
 * the workload variant, XED_BENCH_REPEATS (default 3) controls the
 * best-of repetition count, and XED_BENCH_OUT overrides the JSON
 * output path (empty string suppresses the file, e.g. for the
 * perf-smoke ctest label).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/build_info.hh"
#include "common/json.hh"
#include "common/simd.hh"
#include "faultsim/engine.hh"
#include "xed/controller.hh"

using namespace xed;
using namespace xed::faultsim;

namespace
{

double
seconds(const std::chrono::steady_clock::time_point &t0,
        const std::chrono::steady_clock::time_point &t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best-of-@p repeats wall time of one full runMonteCarlo call. */
double
bestSeconds(const Scheme &scheme, const McConfig &cfg, unsigned repeats)
{
    double best = 1e300;
    for (unsigned r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        runMonteCarlo(scheme, cfg);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, seconds(t0, t1));
    }
    return best;
}

} // namespace

int
main()
try {
    const std::uint64_t systems = bench::mcSystems(1000000);
    McConfig cfg = bench::mcConfig(61799, systems);
    cfg.systems = systems;

    unsigned repeats = static_cast<unsigned>(
        bench::envScale("XED_BENCH_REPEATS", 3));

    std::string outPath = "BENCH_mc_throughput.json";
    if (const char *env = std::getenv("XED_BENCH_OUT"))
        outPath = env;

    const SchemeKind kinds[] = {SchemeKind::Secded, SchemeKind::Xed,
                                SchemeKind::Chipkill};

    std::printf("Monte-Carlo sampling-kernel throughput "
                "(fig07 workload, %llu systems, seed %llu)\n",
                static_cast<unsigned long long>(cfg.systems),
                static_cast<unsigned long long>(cfg.seed));
    std::printf("%-12s %14s %14s %12s\n", "scheme", "serial sys/s",
                "threaded sys/s", "threads");

    auto results = json::Value::array();
    for (const SchemeKind kind : kinds) {
        const auto scheme = makeScheme(kind, OnDieOptions{});

        // Warm up allocators, page in the binary, settle the clock.
        {
            McConfig warm = cfg;
            warm.systems = std::min<std::uint64_t>(cfg.systems, 20000);
            warm.threads = 1;
            runMonteCarlo(*scheme, warm);
        }

        McConfig serialCfg = cfg;
        serialCfg.threads = 1;
        const double serialSec =
            bestSeconds(*scheme, serialCfg, repeats);

        const unsigned threads = bench::mcThreads();
        McConfig threadedCfg = cfg;
        threadedCfg.threads = threads;
        const double threadedSec =
            threads == 1 ? serialSec
                         : bestSeconds(*scheme, threadedCfg, repeats);

        const double serialRate = cfg.systems / serialSec;
        const double threadedRate = cfg.systems / threadedSec;
        std::printf("%-12s %14.4g %14.4g %12u\n", schemeKindName(kind),
                    serialRate, threadedRate, threads);

        auto entry = json::Value::object();
        entry.set("scheme", schemeKindName(kind));
        entry.set("serial_systems_per_sec", serialRate);
        entry.set("threaded_systems_per_sec", threadedRate);
        entry.set("threads", threads);
        results.push(std::move(entry));
    }

    // --- Table II read-path workload: stream cache-line reads through
    // the XED controller on its table2 configuration (CRC-8 ATM
    // on-die code) with one permanent single-bit fault injected, so a
    // small fraction of lines takes the scalar fallback the way real
    // faulty campaigns do. "Before" is the per-line readLine() loop;
    // "after" is readMany() over the same addresses -- results and
    // counters are byte-identical (pinned by the equivalence tests),
    // so the delta is pure read-path throughput from the batched
    // catch-word screen (DESIGN.md section 4j).
    auto readPathJson = json::Value::object();
    {
        const std::uint64_t trials =
            bench::envScale("XED_TRIALS", 200000);
        xed::XedControllerConfig ctrlCfg;
        xed::XedController ctrl(ctrlCfg);
        dram::Fault fault;
        fault.granularity = dram::FaultGranularity::SingleBit;
        fault.permanent = true;
        fault.addr = {0, 3, 17};
        fault.bitPos = 5;
        ctrl.chip(2).faults().add(fault);

        constexpr unsigned rows = 16;
        constexpr unsigned cols = 128;
        std::vector<dram::WordAddr> addrs;
        addrs.reserve(static_cast<std::size_t>(rows) * cols);
        for (unsigned row = 0; row < rows; ++row)
            for (unsigned col = 0; col < cols; ++col)
                addrs.push_back({0, row, col});
        std::vector<xed::LineReadResult> lineResults(addrs.size());
        const std::uint64_t rounds = std::max<std::uint64_t>(
            1, trials / addrs.size());
        const std::uint64_t lines = rounds * addrs.size();

        const auto timeLines = [&](auto &&body) {
            body(); // warm up
            double best = 1e300;
            for (unsigned r = 0; r < repeats; ++r) {
                const auto t0 = std::chrono::steady_clock::now();
                body();
                const auto t1 = std::chrono::steady_clock::now();
                best = std::min(best, seconds(t0, t1));
            }
            return best;
        };
        volatile std::uint64_t sink = 0;
        const double beforeSec = timeLines([&] {
            std::uint64_t clean = 0;
            for (std::uint64_t r = 0; r < rounds; ++r)
                for (std::size_t i = 0; i < addrs.size(); ++i)
                    clean += ctrl.readLine(addrs[i]).outcome ==
                             xed::ReadOutcome::Clean;
            sink = sink + clean;
        });
        const double afterSec = timeLines([&] {
            std::uint64_t clean = 0;
            for (std::uint64_t r = 0; r < rounds; ++r) {
                ctrl.readMany(addrs, lineResults);
                for (const auto &result : lineResults)
                    clean += result.outcome == xed::ReadOutcome::Clean;
            }
            sink = sink + clean;
        });
        const double beforeRate = lines / beforeSec;
        const double afterRate = lines / afterSec;
        std::printf("table2 read path (%zu lines/round, %llu rounds, "
                    "simd %s): readLine %.4g lines/s, readMany %.4g "
                    "lines/s, %.2fx\n",
                    addrs.size(),
                    static_cast<unsigned long long>(rounds),
                    simdLevelName(simdLevel()), beforeRate, afterRate,
                    afterRate / beforeRate);
        readPathJson.set("workload", "table2_read_path");
        readPathJson.set("lines_per_round",
                         static_cast<std::uint64_t>(addrs.size()));
        readPathJson.set("rounds", rounds);
        readPathJson.set("simd_level", simdLevelName(simdLevel()));
        readPathJson.set("readline_lines_per_sec", beforeRate);
        readPathJson.set("readmany_lines_per_sec", afterRate);
        readPathJson.set("speedup", afterRate / beforeRate);
    }

    if (!outPath.empty()) {
        auto doc = json::Value::object();
        doc.set("bench", "mc_throughput");
        doc.set("workload", "fig07");
        doc.set("table2_read_path", std::move(readPathJson));
        doc.set("systems", cfg.systems);
        doc.set("seed", cfg.seed);
        doc.set("repeats", repeats);
        doc.set("build", buildInfoJson());
        doc.set("results", std::move(results));
        std::ofstream out(outPath, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "mc_throughput: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
        out << json::dump(doc) << "\n";
        std::printf("-> %s\n", outPath.c_str());
    }
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "mc_throughput: %s\n", e.what());
    return 1;
}
