#!/bin/sh
# One entry point for the sanitizer, SIMD and fleet checks. Each
# profile configures its own build directory, builds only what it
# runs, runs a ctest label set and then its CLI smokes:
#
#   tsan   ThreadSanitizer build (default dir build-tsan). ctest -L
#          'campaign|obs|fleet|perfsim|analysis' races the campaign
#          runner's worker pool and progress thread, the metrics
#          registry, the trace recorder, the fleet suite (the same pool
#          and store), status polled while a run writes its store
#          (scripts/status_smoke.sh), the perfsim run-matrix pool
#          (simulateAll) and the stream-scan workers behind Figure 6 and
#          Table III (scanStream, at 1 to 7 workers). A final traced
#          4-thread campaign races the span recorder against the worker
#          pool and the progress sampler on purpose. The Monte-Carlo
#          engine's shard threads are not in this profile: build
#          test_faultsim with -DXED_SANITIZE=thread to race them.
#   asan   AddressSanitizer build (default dir build-asan): ctest -L
#          'campaign|obs|json' runs the campaign runner's batched store
#          commits (failed writes, killed and resumed runs), the store,
#          forensics, telemetry and status readers of bytes other
#          processes wrote, the trace recorder's rings and the strict
#          JSON parser under mutation fuzz, each for out-of-bounds
#          access, use after free and leaks.
#   ubsan  UndefinedBehaviorSanitizer build (default dir build-ubsan):
#          ctest -L 'ecc|campaign|obs|simd|perfsim|json' runs every
#          codec table lookup, shift and scratch-array access (the net
#          for the GF256::div(a, 0) class of bugs), the SIMD dispatch
#          layer and per-level fuzz at every level the host executes,
#          the readers of bytes other processes wrote (the store and
#          forensics loaders, the status scanner, the telemetry reader
#          and the spec parser under mutation fuzz), the perfsim
#          memory controller's inline queues, InlineVec::erase and the
#          cores' request-ring indices, and the strict JSON parser under
#          mutation fuzz with its number I/O against the printf/strtod
#          reference.
#   simd   -DXED_NATIVE=ON Release build (default dir build-native),
#          DESIGN.md section 4i: under XED_SIMD=scalar, under the
#          detected level and, on an AVX-512 host, under XED_SIMD=avx2
#          too, ctest -L 'simd|ecc|golden' passes (the golden jobs run
#          fig06, table3, fig07, table2 and fig11-14, so all eight are
#          built); every vector level's fig07 stdout, table2 stdout at
#          XED_TRIALS=20000 and 170000 (1 and 4 shards per cell), smoke
#          store and table2 stores at both trial counts are
#          cmp-identical to the scalar level's, and the scalar stdout
#          to tests/golden/.
#   fleet  default build (default dir build): ctest -L fleet, then
#          scripts/fleet_smoke.sh (thread-count and resumed runs of the
#          fleet spec produce byte-identical stores).
#
# Usage: scripts/check.sh <tsan|asan|ubsan|simd|fleet> [build-dir]
set -eu

usage() {
    echo "usage: $0 <tsan|asan|ubsan|simd|fleet> [build-dir]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
profile=$1
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 2)
cli_rel=src/campaign/xed_campaign

case $profile in
tsan) build=${2:-"$repo/build-tsan"} ;;
asan) build=${2:-"$repo/build-asan"} ;;
ubsan) build=${2:-"$repo/build-ubsan"} ;;
simd) build=${2:-"$repo/build-native"} ;;
fleet) build=${2:-"$repo/build"} ;;
*) usage ;;
esac
cli="$build/$cli_rel"

# configure <cmake args...>; compile <targets...>; label <regex>
configure() { cmake -S "$repo" -B "$build" "$@"; }
compile() { cmake --build "$build" -j "$jobs" --target "$@"; }
label() { (cd "$build" && ctest -L "$1" --output-on-failure -j "$jobs"); }

case $profile in
tsan)
    configure -DCMAKE_BUILD_TYPE=RelWithDebInfo -DXED_SANITIZE=thread
    compile test_campaign test_obs test_fleet test_perfsim \
        test_analysis xed_campaign_cli
    label 'campaign|obs|fleet|perfsim|analysis'
    out="$build/tsan_trace_smoke.jsonl"
    rm -f "$out" "$out.trace.json" "$out.forensics.jsonl" \
        "$out.telemetry.jsonl"
    XED_TRACE=1 "$cli" run "$repo/specs/smoke.json" --out "$out" \
        --threads 4 --progress-interval 0.05 --quiet >/dev/null
    ;;

asan)
    configure -DCMAKE_BUILD_TYPE=RelWithDebInfo -DXED_SANITIZE=address
    compile test_campaign test_obs test_json xed_campaign_cli
    label 'campaign|obs|json'
    ;;

ubsan)
    configure -DCMAKE_BUILD_TYPE=RelWithDebInfo -DXED_SANITIZE=undefined
    compile test_ecc test_codec_equivalence test_codec_alloc test_simd \
        test_campaign test_obs test_perfsim test_json xed_campaign_cli
    label 'ecc|campaign|obs|simd|perfsim|json'
    ;;

simd)
    configure -DCMAKE_BUILD_TYPE=Release -DXED_NATIVE=ON
    compile test_simd test_codec_equivalence test_codec_alloc test_ecc \
        fig06_collision_probability table3_multi_catchword \
        fig07_xed_reliability table2_detection_rates fig11_exec_time \
        fig12_memory_power fig13_alternatives fig14_lotecc xed_campaign_cli
    work="$build/check_simd"
    mkdir -p "$work"

    # An unparseable override must fail loudly, not fall back.
    if XED_SIMD=bogus "$build/tests/test_simd" >/dev/null 2>&1; then
        echo "check simd: XED_SIMD=bogus was silently accepted" >&2
        exit 1
    fi

    # Each vector level is compared with scalar: the detected level
    # and, where that is AVX-512, AVX2 as well.
    unset XED_SIMD || true
    levels="scalar native"
    case $("$cli" version) in
    *'"detected":"avx512"'*) levels="scalar avx2 native" ;;
    esac
    outputs="fig07.txt table2_20000.txt table2_170000.txt smoke.jsonl
        table2_20000.jsonl table2_170000.jsonl"
    for level in $levels; do
        if [ "$level" = native ]; then
            unset XED_SIMD || true
        else
            export XED_SIMD=$level
        fi
        out="$work/$level"
        rm -rf "$out"
        mkdir -p "$out"
        echo "== ctest (simd|ecc|golden) at level: $level"
        label 'simd|ecc|golden'
        XED_MC_SYSTEMS=20000 XED_MC_THREADS=4 \
            "$build/bench/fig07_xed_reliability" >"$out/fig07.txt"
        "$cli" run "$repo/specs/smoke.json" --out "$out/smoke.jsonl" --quiet
        for trials in 20000 170000; do
            XED_TRIALS=$trials "$build/bench/table2_detection_rates" \
                >"$out/table2_$trials.txt"
            XED_TRIALS=$trials "$cli" run "$repo/specs/table2.json" \
                --out "$out/table2_$trials.jsonl" --quiet
        done
    done

    for level in $levels; do
        for file in $outputs; do
            cmp "$work/scalar/$file" "$work/$level/$file"
        done
    done
    cmp "$work/scalar/fig07.txt" "$repo/tests/golden/fig07_20000.txt"
    for trials in 20000 170000; do
        cmp "$work/scalar/table2_$trials.txt" \
            "$repo/tests/golden/table2_$trials.txt"
    done
    ;;

fleet)
    configure
    compile test_fleet xed_campaign_cli
    label fleet
    "$repo/scripts/fleet_smoke.sh" "$cli" "$repo/specs/fleet_smoke.json" \
        "$build/fleet_smoke_check"
    ;;
esac

echo "check $profile passed"
