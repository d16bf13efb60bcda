/**
 * Campaign API example: build a spec programmatically, run it in
 * memory with live progress, interrupt a stored run and resume it.
 *
 *   ./build/examples/campaign_api [systems]
 *
 * The same spec as JSON (the specs/ directory holds real ones):
 *
 *   {"name": "demo", "seed": 12345, "schemes": ["secded", "xed"],
 *    "systems": 20000, "shardSystems": 2000,
 *    "sweep": {"parameter": "scalingRate", "values": [0, 1e-4]}}
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "campaign/runner.hh"

using namespace xed;
using namespace xed::campaign;

int
main(int argc, char **argv)
{
    CampaignSpec spec;
    spec.name = "demo";
    spec.seed = 12345;
    spec.schemes = {faultsim::SchemeKind::Secded,
                    faultsim::SchemeKind::Xed};
    spec.systems = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
    spec.shardSystems = 2000;
    spec.sweep.parameter = "scalingRate";
    spec.sweep.values = {0, 1e-4};

    std::cout << "spec " << specHash(spec) << ":\n"
              << json::dumpPretty(specToJson(spec)) << "\n\n";

    // 1. In-memory run with live progress on stderr.
    RunOptions options;
    options.progressIntervalSeconds = 0.5;
    options.progressOut = &std::cerr;
    options.telemetrySidecar = false;
    auto outcome = runCampaign(spec, options);
    if (!outcome.ok) {
        std::cerr << "run failed: " << outcome.error << "\n";
        return 1;
    }
    const unsigned cells = spec.cellCount();
    for (unsigned point = 0; point < spec.sweep.points(); ++point) {
        std::printf("scalingRate %.0e:\n", spec.sweep.values[point]);
        for (unsigned cell = 0; cell < cells; ++cell) {
            const auto &mc = outcome.mc(point, cell, cells);
            std::printf("  %-8s P(fail, 7y) = %.2e\n",
                        cellLabel(spec, cell).c_str(),
                        mc.probFailure());
        }
    }

    // 2. Stored run, interrupted after 3 shards, then resumed. The
    //    completed file is byte-identical to an uninterrupted one.
    const std::string out = "campaign_api_demo.jsonl";
    std::filesystem::remove(out);
    std::filesystem::remove(out + ".telemetry.jsonl");
    options = RunOptions{};
    options.outPath = out;
    options.maxShards = 3;
    runCampaign(spec, options);
    std::printf("\ninterrupted after 3 shards; resuming %s\n",
                out.c_str());
    options.maxShards = 0;
    options.resume = true;
    outcome = runCampaign(spec, options);
    std::printf("resume: replayed %llu, ran %llu, complete=%d\n",
                static_cast<unsigned long long>(outcome.shardsReplayed),
                static_cast<unsigned long long>(outcome.shardsRun),
                int(outcome.complete));
    return outcome.complete ? 0 : 1;
}
