#!/bin/sh
# Fleet-lifetime CLI smoke: run the fleet spec three ways and require
# byte-identical result stores:
#
#   1. `xed_campaign run` on one thread (the reference),
#   2. the same spec on four threads,
#   3. an interrupted run (--max-shards 2) resumed to completion.
#
# Also checks that `xed_campaign version` emits parseable provenance
# (the report verb strict-parses every JSON this repo writes, so a
# plain grep on the mandatory keys suffices here) and that the report
# verb renders the fleet tables.
#
# Usage: scripts/fleet_smoke.sh <xed_campaign-binary> [spec] [workdir]
set -eu

cli=$1
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
spec=${2:-"$repo/specs/fleet_smoke.json"}
work=${3:-"$(pwd)/fleet_smoke"}

rm -rf "$work"
mkdir -p "$work"

echo "fleet_smoke: version provenance"
"$cli" version | grep -q '"compiler"'

echo "fleet_smoke: single-thread reference run"
"$cli" run "$spec" --out "$work/t1.jsonl" --threads 1 \
    --quiet >/dev/null

echo "fleet_smoke: 4-thread run"
"$cli" run "$spec" --out "$work/t4.jsonl" --threads 4 \
    --quiet >/dev/null
cmp "$work/t1.jsonl" "$work/t4.jsonl"

echo "fleet_smoke: interrupted run + resume"
"$cli" run "$spec" --out "$work/resume.jsonl" --max-shards 2 \
    --quiet >/dev/null
"$cli" resume "$spec" --out "$work/resume.jsonl" --quiet >/dev/null
cmp "$work/t1.jsonl" "$work/resume.jsonl"

echo "fleet_smoke: report renders the fleet tables"
"$cli" report "$work/t1.jsonl" | grep -q "fleet time series"

echo "fleet_smoke: stores byte-identical across all paths, passed"
