#!/bin/sh
# Observability smoke over the real CLI (DESIGN.md section 4k):
#
#   1. `run --max-shards 2` writes a partial store (2 of 8 shards) and
#      its sidecars, which are copied aside,
#   2. `status --json`, `report --format=json`, and /status.json and
#      /metrics scraped from `serve --port 0` over a live socket must
#      all parse and agree on name, specHash, shards, units and
#      failures, with 2 of 8 shards done,
#   3. the store and every sidecar must be byte-identical to the copies
#      after all of the above: status is read-only by contract,
#   4. `status --json` is polled while a full run writes a fresh store:
#      every snapshot is valid JSON (an error document until the
#      manifest lands), shards.done never decreases once a snapshot
#      succeeds, and the finished store is cmp-identical to a
#      reference run's.
#
# Usage: scripts/status_smoke.sh <xed_campaign-binary> [spec] [workdir]
set -eu

cli=$1
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
spec=${2:-"$repo/specs/status_smoke.json"}
work=${3:-"$(pwd)/status_smoke"}

rm -rf "$work"
mkdir -p "$work/before"
store="$work/partial.jsonl"
sidecars="$store.telemetry.jsonl $store.forensics.jsonl"

echo "status_smoke: partial run (2 of 8 shards)"
"$cli" run "$spec" --out "$store" --max-shards 2 --quiet >/dev/null
for file in "$store" $sidecars; do
    cp "$file" "$work/before/"
done

echo "status_smoke: status --json and report --format=json"
"$cli" status "$store" --json > "$work/status.json"
"$cli" checkjson "$work/status.json"
"$cli" report "$store" --format=json > "$work/report.json"
"$cli" checkjson "$work/report.json"

echo "status_smoke: scraping serve endpoints"
"$cli" serve "$store" --port 0 > "$work/serve.port" \
    2> "$work/serve.log" &
server=$!
# `serve` prints "port N" on stdout once bound.
port=""
tries=0
while [ -z "$port" ] && [ "$tries" -lt 50 ]; do
    port=$(awk '$1 == "port" { print $2 }' "$work/serve.port" \
        2>/dev/null || true)
    [ -n "$port" ] || { tries=$((tries + 1)); sleep 0.1; }
done
[ -n "$port" ] || { echo "status_smoke: serve never bound" >&2; exit 1; }

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "http://127.0.0.1:$port$1"
    else
        python3 -c 'import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1]).read().decode())' \
            "http://127.0.0.1:$port$1"
    fi
}

fetch /status.json > "$work/served.json"
"$cli" checkjson "$work/served.json"
fetch /metrics > "$work/metrics.txt"

kill -INT "$server" 2>/dev/null || true
wait "$server" 2>/dev/null || true

python3 - "$work/status.json" "$work/report.json" "$work/served.json" \
    "$work/metrics.txt" <<'EOF'
import json, re, sys
views = [json.load(open(path)) for path in sys.argv[1:4]]
for key in ("name", "specHash", "shards", "units", "failures"):
    for view in views[1:]:
        assert view[key] == views[0][key], (key, view[key], views[0][key])
status = views[0]
assert status["shards"]["done"] == 2 and status["shards"]["total"] == 8
assert status["complete"] is False

metrics = {}
for line in open(sys.argv[4]):
    if not line.startswith("#"):
        name, value = line.rsplit(" ", 1)
        metrics[name] = value.strip()
info = 'xed_campaign_info{name="%s",specHash="%s"}' % (
    status["name"], status["specHash"])
assert metrics[info] == "1", info
assert int(metrics['xed_shards{state="done"}']) == 2
assert int(metrics['xed_shards{state="pending"}']) == 6
assert int(metrics["xed_shards_planned"]) == 8
assert int(metrics["xed_units_done_total"]) == status["units"]["done"]
assert int(metrics["xed_failed_units_total"]) == status["failures"]["total"]
for label, count in status["failures"]["byCell"].items():
    assert int(metrics['xed_cell_failures_total{cell="%s"}' % label]) \
        == count, label
assert metrics["xed_campaign_complete"] == "0"
print("status_smoke: status, report, /status.json and /metrics agree")
EOF

for file in "$store" $sidecars; do
    cmp "$work/before/$(basename "$file")" "$file"
done
echo "status_smoke: store and sidecars untouched by status/serve"

echo "status_smoke: polling status while a full run writes its store"
"$cli" run "$spec" --out "$work/reference.jsonl" --quiet >/dev/null
live="$work/live.jsonl"
mkdir -p "$work/snapshots"
"$cli" run "$spec" --out "$live" --quiet >/dev/null &
run=$!
n=0
while kill -0 "$run" 2>/dev/null; do
    n=$((n + 1))
    # Before the manifest lands a snapshot is an error document with a
    # nonzero exit; that must not end the poll.
    "$cli" status "$live" --json > "$work/snapshots/$n.json" || true
done
wait "$run"
"$cli" status "$live" --json > "$work/snapshots/final.json"

python3 - "$work/snapshots" "$n" <<'EOF'
import json, sys
directory, count = sys.argv[1], int(sys.argv[2])
names = [str(i) for i in range(1, count + 1)] + ["final"]
done = None
for name in names:
    snapshot = json.load(open("%s/%s.json" % (directory, name)))
    if "error" in snapshot:
        assert done is None, ("error after a success", name, snapshot)
        continue
    assert done is None or snapshot["shards"]["done"] >= done, name
    done = snapshot["shards"]["done"]
final = json.load(open("%s/final.json" % directory))
assert final["complete"] is True and final["shards"]["done"] == 8
print("status_smoke: %d snapshots parse, shards.done never fell" % count)
EOF

cmp "$work/reference.jsonl" "$live"
echo "status_smoke: the observed run wrote the reference bytes, passed"
