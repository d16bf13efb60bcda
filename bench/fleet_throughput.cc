/**
 * @file
 * Fleet-lifetime engine throughput: DIMM-lifetimes simulated per
 * second on a fleet_1m-shaped workload (SECDED / XED / chipkill
 * cohorts, Table I rates, 7-year horizon, monthly epochs), serial and
 * sharded across threads, written as BENCH_fleet.json.
 *
 * Knobs (see bench_util.hh): XED_MC_SYSTEMS scales the fleet size
 * (default 200k DIMMs, split 2:1:1 over the cohorts), XED_MC_SEED /
 * XED_MC_THREADS select the workload variant,
 * XED_BENCH_REPEATS (default 3) controls the best-of repetition
 * count, and XED_BENCH_OUT overrides the JSON output path (empty
 * string suppresses the file, e.g. for the perf-smoke ctest label).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/build_info.hh"
#include "common/json.hh"
#include "fleet/fleet.hh"

using namespace xed;
using namespace xed::fleet;

namespace
{

double
seconds(const std::chrono::steady_clock::time_point &t0,
        const std::chrono::steady_clock::time_point &t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The fleet_1m workload shape at an arbitrary scale. */
FleetConfig
workload(std::uint64_t dimms, std::uint64_t seed)
{
    FleetConfig config;
    config.seed = seed;
    const struct
    {
        const char *name;
        faultsim::SchemeKind scheme;
        std::uint64_t share; ///< quarters of the fleet
    } cohorts[] = {
        {"secded", faultsim::SchemeKind::Secded, 2},
        {"xed", faultsim::SchemeKind::Xed, 1},
        {"chipkill", faultsim::SchemeKind::Chipkill, 1},
    };
    for (const auto &c : cohorts) {
        FleetCohort cohort;
        cohort.name = c.name;
        cohort.scheme = c.scheme;
        cohort.dimms = dimms * c.share / 4;
        config.setup.cohorts.push_back(cohort);
    }
    return config;
}

/** One full fleet pass over [0, total), split over @p threads shards
 *  and merged -- the same partition the campaign runner uses. */
FleetResult
runOnce(const FleetConfig &config, unsigned threads)
{
    const std::uint64_t total = config.setup.totalDimms();
    if (threads <= 1)
        return runFleetShard(config, 0, total);
    std::vector<FleetResult> shards(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            const std::uint64_t lo = total * t / threads;
            const std::uint64_t hi = total * (t + 1) / threads;
            shards[t] = runFleetShard(config, lo, hi);
        });
    for (auto &worker : pool)
        worker.join();
    FleetResult merged;
    for (const auto &shard : shards)
        merged.merge(shard);
    return merged;
}

double
bestSeconds(const FleetConfig &config, unsigned threads,
            unsigned repeats)
{
    double best = 1e300;
    for (unsigned r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        runOnce(config, threads);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, seconds(t0, t1));
    }
    return best;
}

} // namespace

int
main()
try {
    const std::uint64_t dimms = bench::mcSystems(200000);
    const FleetConfig config = workload(dimms, bench::mcSeed(160301));
    const std::uint64_t total = config.setup.totalDimms();

    unsigned repeats = static_cast<unsigned>(
        bench::envScale("XED_BENCH_REPEATS", 3));

    std::string outPath = "BENCH_fleet.json";
    if (const char *env = std::getenv("XED_BENCH_OUT"))
        outPath = env;

    std::printf("Fleet-lifetime engine throughput "
                "(fleet_1m workload, %llu DIMMs, %u epochs, "
                "seed %llu)\n",
                static_cast<unsigned long long>(total),
                config.epochs(),
                static_cast<unsigned long long>(config.seed));

    // Warm up allocators, page in the binary, settle the clock.
    {
        FleetConfig warm = config;
        runFleetShard(warm, 0, std::min<std::uint64_t>(total, 20000));
    }

    const double serialSec = bestSeconds(config, 1, repeats);
    const unsigned threads = bench::mcThreads();
    const double threadedSec =
        threads == 1 ? serialSec
                     : bestSeconds(config, threads, repeats);

    const double serialRate = total / serialSec;
    const double threadedRate = total / threadedSec;
    std::printf("%-12s %14s %14s %12s\n", "", "serial DIMM/s",
                "threaded DIMM/s", "threads");
    std::printf("%-12s %14.4g %14.4g %12u\n", "fleet", serialRate,
                threadedRate, threads);

    if (!outPath.empty()) {
        auto doc = json::Value::object();
        doc.set("bench", "fleet_throughput");
        doc.set("workload", "fleet_1m");
        doc.set("dimms", total);
        doc.set("epochs", config.epochs());
        doc.set("seed", config.seed);
        doc.set("repeats", repeats);
        doc.set("build", buildInfoJson());
        auto entry = json::Value::object();
        entry.set("serial_dimms_per_sec", serialRate);
        entry.set("threaded_dimms_per_sec", threadedRate);
        entry.set("threads", threads);
        auto results = json::Value::array();
        results.push(std::move(entry));
        doc.set("results", std::move(results));
        std::ofstream out(outPath, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "fleet_throughput: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
        out << json::dump(doc) << "\n";
    }
    return 0;
} catch (const std::exception &error) {
    std::fprintf(stderr, "fleet_throughput: %s\n", error.what());
    return 1;
}
