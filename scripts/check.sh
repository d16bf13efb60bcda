#!/bin/sh
# One entry point for the sanitizer, SIMD and scale-out checks. Each
# profile configures its own build directory, builds only what it
# runs, runs a ctest label set and then its CLI smokes:
#
#   tsan   ThreadSanitizer build (default dir build-tsan). The runner's
#          worker pool, progress thread, metrics registry, trace
#          recorder and the distributed worker loop are the only
#          cross-thread code in the repo, so ctest -L
#          'campaign|obs|dist|fleet' covers every lock and atomic they
#          use (the fleet suite drives the same pool and store). A
#          final traced 4-thread campaign races the span recorder
#          against the worker pool and the progress sampler on purpose.
#   ubsan  UndefinedBehaviorSanitizer build (default dir build-ubsan):
#          ctest -L 'ecc|campaign|simd' runs every codec table lookup,
#          shift and scratch-array access (the net for the
#          GF256::div(a, 0) class of bugs), plus the SIMD dispatch
#          layer and per-level fuzz at every level the host executes.
#   simd   -DXED_NATIVE=ON Release build (default dir build-native),
#          DESIGN.md section 4i: under XED_SIMD=scalar and under the
#          detected level, ctest -L 'simd|ecc|golden' passes; fig07 and
#          table2 stdout are cmp-identical across the two levels and to
#          tests/golden/; the smoke and table2 campaign stores are
#          cmp-identical across the two levels.
#   dist   default build (default dir build): ctest -L dist (queue
#          protocol, worker/merge byte identity), the kill-and-reclaim
#          smoke on fig07 (scripts/dist_smoke.sh: 4 workers, one
#          SIGKILLed mid-shard, merge cmp-identical to one process) and
#          the observability smoke (scripts/status_smoke.sh).
#   fleet  default build (default dir build): ctest -L fleet, then
#          scripts/fleet_smoke.sh (thread-count, resume and 2-worker
#          runs of the fleet spec produce byte-identical stores).
#
# Usage: scripts/check.sh <tsan|ubsan|simd|dist|fleet> [build-dir]
set -eu

usage() {
    echo "usage: $0 <tsan|ubsan|simd|dist|fleet> [build-dir]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
profile=$1
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 2)
cli_rel=src/campaign/xed_campaign

case $profile in
tsan) build=${2:-"$repo/build-tsan"} ;;
ubsan) build=${2:-"$repo/build-ubsan"} ;;
simd) build=${2:-"$repo/build-native"} ;;
dist | fleet) build=${2:-"$repo/build"} ;;
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
    compile test_campaign test_obs test_dist test_fleet xed_campaign_cli
    label 'campaign|obs|dist|fleet'
    out="$build/tsan_trace_smoke.jsonl"
    rm -f "$out" "$out.trace.json" "$out.forensics.jsonl" \
        "$out.telemetry.jsonl"
    XED_TRACE=1 "$cli" run "$repo/specs/smoke.json" --out "$out" \
        --threads 4 --progress-interval 0.05 --quiet >/dev/null
    ;;

ubsan)
    configure -DCMAKE_BUILD_TYPE=RelWithDebInfo -DXED_SANITIZE=undefined
    compile test_ecc test_codec_equivalence test_codec_alloc test_simd \
        test_campaign xed_campaign_cli
    label 'ecc|campaign|simd'
    ;;

simd)
    configure -DCMAKE_BUILD_TYPE=Release -DXED_NATIVE=ON
    compile test_simd test_codec_equivalence test_codec_alloc test_ecc \
        fig07_xed_reliability table2_detection_rates xed_campaign_cli
    work="$build/check_simd"
    mkdir -p "$work"

    # An unparseable override must fail loudly, not fall back.
    if XED_SIMD=bogus "$build/tests/test_simd" >/dev/null 2>&1; then
        echo "check simd: XED_SIMD=bogus was silently accepted" >&2
        exit 1
    fi

    for level in scalar native; do
        if [ "$level" = scalar ]; then
            export XED_SIMD=scalar
        else
            unset XED_SIMD || true
        fi
        echo "== ctest (simd|ecc|golden) at level: $level"
        label 'simd|ecc|golden'
        XED_MC_SYSTEMS=20000 XED_MC_THREADS=4 \
            "$build/bench/fig07_xed_reliability" >"$work/fig07.$level.txt"
        XED_TRIALS=20000 \
            "$build/bench/table2_detection_rates" >"$work/table2.$level.txt"
        for spec in smoke table2; do
            store="$work/$spec.$level.jsonl"
            rm -f "$store" "$store.telemetry.jsonl"
            XED_TRIALS=20000 "$cli" run "$repo/specs/$spec.json" \
                --out "$store" --quiet
        done
    done

    cmp "$work/fig07.scalar.txt" "$work/fig07.native.txt"
    cmp "$work/table2.scalar.txt" "$work/table2.native.txt"
    cmp "$work/fig07.scalar.txt" "$repo/tests/golden/fig07_20000.txt"
    cmp "$work/table2.scalar.txt" "$repo/tests/golden/table2_20000.txt"
    cmp "$work/smoke.scalar.jsonl" "$work/smoke.native.jsonl"
    cmp "$work/table2.scalar.jsonl" "$work/table2.native.jsonl"
    ;;

dist)
    configure
    compile test_dist xed_campaign_cli
    label dist
    # fig07 shrunk to CI size; the override is part of the spec hash and
    # must be identical for every process of the smoke, so it is set
    # once for the whole script. The status smoke asserts its spec's own
    # unit count, so it runs without the override.
    XED_MC_SYSTEMS=${XED_MC_SYSTEMS:-30000} \
        "$repo/scripts/dist_smoke.sh" "$cli" "$repo/specs/fig07.json" \
        "$build/dist_smoke"
    (
        unset XED_MC_SYSTEMS
        "$repo/scripts/status_smoke.sh" "$cli" \
            "$repo/specs/status_smoke.json" "$build/status_smoke_check"
    )
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
