#!/bin/sh
# Trace-export smoke for the observability layer: run the tiny smoke
# spec with the span recorder on (XED_TRACE=1), then prove
#   - a Chrome-trace JSON file was exported and strict-parses
#     (validated with `xed_campaign checkjson`, i.e. common/json --
#     no external JSON tooling needed on the CI box),
#   - it contains complete-duration span events,
#   - the forensics sidecar was written in plan order, and
#   - the report still renders over the instrumented store.
#
# Usage: scripts/trace_smoke.sh <xed_campaign> <spec.json> <out.jsonl>
set -eu

cli=$1
spec=$2
out=$3

rm -f "$out" "$out.trace.json" "$out.forensics.jsonl" \
    "$out.telemetry.jsonl"

XED_TRACE=1 "$cli" run "$spec" --out "$out" --quiet >/dev/null

for file in "$out" "$out.trace.json" "$out.forensics.jsonl" \
    "$out.telemetry.jsonl"; do
    [ -s "$file" ] || { echo "missing output $file" >&2; exit 1; }
done

"$cli" checkjson "$out.trace.json"

grep -q '"traceEvents"' "$out.trace.json" ||
    { echo "trace JSON has no traceEvents array" >&2; exit 1; }
grep -q '"ph":"X"' "$out.trace.json" ||
    { echo "trace JSON has no duration spans" >&2; exit 1; }
grep -q '"name":"reliability-shard"' "$out.trace.json" ||
    { echo "trace JSON has no shard spans" >&2; exit 1; }

head -n 1 "$out.forensics.jsonl" |
    grep -q '"type":"forensics","index":0' ||
    { echo "forensics sidecar does not start at shard 0" >&2; exit 1; }
grep -q '"type":"forensics-summary"' "$out.forensics.jsonl" ||
    { echo "forensics sidecar has no completion summary" >&2; exit 1; }

"$cli" report "$out" >/dev/null

echo "trace smoke passed"
