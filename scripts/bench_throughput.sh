#!/usr/bin/env sh
# Measure the hot-loop throughput benches and record them in the
# repository root:
#   - Monte-Carlo sampling kernel  -> BENCH_mc_throughput.json
#   - codec kernels (before/after) -> BENCH_codecs.json
#   - fleet-lifetime engine        -> BENCH_fleet.json
#
#   scripts/bench_throughput.sh [build-dir] [stage]
#
# stage: "mc", "codecs", "fleet", or "all" (default). Respects the
# usual knobs: XED_MC_SYSTEMS (default 1M; fleet default 200k DIMMs),
# XED_MC_SEED, XED_MC_THREADS for the mc and fleet
# stages; XED_CODEC_OPS (default 150k) for the codec stage;
# XED_BENCH_REPEATS for all. XED_BENCH_OUT overrides the output path,
# but only when a single stage is selected.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
stage=${2:-all}

run_stage() {
    bench="$build/bench/$1"
    out=$2
    if [ ! -x "$bench" ]; then
        echo "bench_throughput: $bench not built yet; run" >&2
        echo "  cmake -B \"$build\" -S \"$repo\" && cmake --build \"$build\" --target $1" >&2
        exit 1
    fi
    rm -f "$out"
    XED_BENCH_OUT="$out" "$bench"
    # A stage that exits 0 but writes no JSON is a silent baseline
    # loss (how BENCH_fleet.json went missing); fail loudly instead.
    if [ ! -s "$out" ]; then
        echo "bench_throughput: stage $1 produced no JSON at $out" >&2
        exit 1
    fi
}

case "$stage" in
mc)
    run_stage mc_throughput "${XED_BENCH_OUT:-"$repo/BENCH_mc_throughput.json"}"
    ;;
codecs)
    run_stage codec_throughput "${XED_BENCH_OUT:-"$repo/BENCH_codecs.json"}"
    ;;
fleet)
    run_stage fleet_throughput "${XED_BENCH_OUT:-"$repo/BENCH_fleet.json"}"
    ;;
all)
    run_stage mc_throughput "$repo/BENCH_mc_throughput.json"
    run_stage codec_throughput "$repo/BENCH_codecs.json"
    run_stage fleet_throughput "$repo/BENCH_fleet.json"
    ;;
*)
    echo "bench_throughput: unknown stage \"$stage\" (mc|codecs|fleet|all)" >&2
    exit 2
    ;;
esac
