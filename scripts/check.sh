#!/bin/sh
# One entry point for the sanitizer and SIMD checks. Each profile
# configures its own build directory, builds only what it runs, runs a
# ctest label set and then its CLI smokes:
#
#   tsan   ThreadSanitizer build (default dir build-tsan). ctest -L
#          'pool|campaign|obs|fleet|perfsim|analysis' races the ordered
#          worker pool (common/ordered_pool.hh: its own tests at 0 to 7
#          workers, then each of its callers -- the campaign runner and
#          its progress thread over the shared run counters, the store
#          and sidecar loaders, the perfsim run matrix and the stream
#          scans behind Figure 6 and Table III), the trace recorder and
#          status polled while a run writes its store
#          (scripts/status_smoke.sh). test_faultsim's EngineParallel and
#          EngineShard cases race the Monte-Carlo engine's workers on
#          their shared chunk index. A final traced 4-thread campaign
#          races the span recorder against the pool and the progress
#          sampler on purpose.
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
#          fig01, fig06-fig10, table2-table4, fig11-14 and the scrubbing
#          and on-die-code ablations, so all are built); every vector
#          level's fig07 stdout, fig01 and ablation_scrubbing stdout at
#          XED_MC_SYSTEMS=200000 (the survivor hand-off), table2 stdout at
#          XED_TRIALS=20000 and 170000 (1 and 4 shards per cell), smoke
#          store and table2 stores at both trial counts are
#          cmp-identical to the scalar level's, and the scalar stdout
#          to tests/golden/.
#
# Usage: scripts/check.sh <tsan|asan|ubsan|simd> [build-dir]
set -eu

usage() {
    echo "usage: $0 <tsan|asan|ubsan|simd> [build-dir]" >&2
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
    compile test_ordered_pool test_campaign test_obs test_fleet \
        test_perfsim test_analysis test_faultsim xed_campaign_cli
    label 'pool|campaign|obs|fleet|perfsim|analysis'
    "$build/tests/test_faultsim" --gtest_brief=1 \
        --gtest_filter='EngineParallel.*:EngineShard.*'
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
        fig12_memory_power fig13_alternatives fig14_lotecc \
        fig01_ondie_vs_dimm_ecc fig08_xed_scaling fig09_double_chipkill \
        fig10_double_chipkill_scaling table4_sdc_due ablation_scrubbing \
        ablation_ondie_code xed_campaign_cli
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
    outputs="fig07.txt fig01.txt ablation_scrubbing.txt table2_20000.txt
        table2_170000.txt smoke.jsonl table2_20000.jsonl
        table2_170000.jsonl"
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
        XED_MC_SYSTEMS=200000 "$build/bench/fig01_ondie_vs_dimm_ecc" \
            >"$out/fig01.txt"
        XED_MC_SYSTEMS=200000 "$build/bench/ablation_scrubbing" \
            >"$out/ablation_scrubbing.txt"
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
esac

echo "check $profile passed"
