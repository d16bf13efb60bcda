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
#include "faultsim/engine.hh"

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

    if (!outPath.empty()) {
        auto doc = json::Value::object();
        doc.set("bench", "mc_throughput");
        doc.set("workload", "fig07");
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
