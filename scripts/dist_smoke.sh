#!/bin/sh
# Distributed-execution smoke: run a reliability campaign three ways
# and require byte-identical result stores (and forensics sidecars):
#
#   1. one single-process run (the reference),
#   2. a 4-worker fleet sharing one queue directory, where worker 0 is
#      SIGKILLed mid-campaign so its leased shard has to be re-claimed
#      by the survivors,
#   3. the merge of the fleet's fragments.
#
# The spec defaults to specs/dist_smoke.json (20 shards, CI-sized);
# pass specs/fig07.json with XED_MC_SYSTEMS exported to shrink the
# paper-scale spec instead (the override is part of the spec hash, so
# every process of one smoke must see the same value -- export it
# before calling, as scripts/check.sh dist does).
#
# Usage: scripts/dist_smoke.sh <xed_campaign-binary> [spec] [workdir]
set -eu

cli=$1
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
spec=${2:-"$repo/specs/dist_smoke.json"}
work=${3:-"$(pwd)/dist_smoke"}

rm -rf "$work"
mkdir -p "$work"
queue="$work/queue"

echo "dist_smoke: single-process reference run"
"$cli" run "$spec" --out "$work/single.jsonl" --quiet >/dev/null

echo "dist_smoke: starting 4 workers (worker 0 will be killed)"
# Short leases so the survivors re-claim the victim's shard quickly.
"$cli" worker "$spec" --queue-dir "$queue" --worker-id victim \
    --lease-seconds 1 --poll-interval 0.1 --quiet &
victim=$!
# Let the victim claim (and sit inside) a shard, then kill it dead:
# no cleanup, no lease release -- exactly a crashed fleet member.
sleep 1
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
echo "dist_smoke: worker 0 killed"

for w in 1 2 3; do
    "$cli" worker "$spec" --queue-dir "$queue" --worker-id "w$w" \
        --lease-seconds 1 --poll-interval 0.1 --quiet &
done
wait

echo "dist_smoke: merging fragments"
"$cli" merge "$spec" --queue-dir "$queue" \
    --out "$work/merged.jsonl" --quiet >/dev/null

cmp "$work/single.jsonl" "$work/merged.jsonl"
cmp "$work/single.jsonl.forensics.jsonl" \
    "$work/merged.jsonl.forensics.jsonl"

echo "dist_smoke: store and forensics sidecar byte-identical, passed"
