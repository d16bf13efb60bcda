#!/usr/bin/env python3
"""Regression gate between two benchmark/run.py results.

    scripts/bench_compare.py [--baseline BASELINE.json] FRESH.json

Both files are `python3 benchmark/run.py --out FILE` results. The
baseline defaults to BENCH_e2e.json in the repository root, recorded
from a clean tree with

    python3 benchmark/run.py --record --layers --seconds 10 --out BENCH_e2e.json

For every workload of the baseline, each end_to_end metric of
BENCHMARK.json is compared in its `better` direction: the fresh value
may be worse than the baseline's by at most the metric's `bound`, a
share of the baseline value. The gate fails when

  * a metric is worse than its bound allows;
  * a baseline workload or metric is missing from the fresh run;
  * the fresh run is not "correct", or failed a larger share of its
    commands than the baseline did;
  * the baseline lacks "recorded": true (run.py --record refuses a
    dirty tree);
  * the two provenance blocks name a different cpu or nproc, so the
    times are not comparable.

The per_layer metrics of the two `layers` blocks are printed with
their change but never gated: BENCHMARK.json gives them no bound.

Every check prints one row; a failing row starts with FAIL. The last
line is `bench_compare: OK` (exit 0) or `bench_compare: FAIL` (exit 1).
Stdlib only.
"""

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path, "rb") as handle:
        return json.load(handle)


def change(base, fresh):
    """Relative change from @p base to @p fresh."""
    if base == fresh:
        return 0.0
    return (fresh - base) / base if base else math.inf


def row(verdict, label, detail):
    print(f"{verdict:<4} {label:<40} {detail}")


def main():
    parser = argparse.ArgumentParser(
        description="gate a fresh benchmark/run.py result against the "
                    "recorded baseline")
    parser.add_argument("fresh", help="benchmark/run.py --out result")
    parser.add_argument("--baseline", default=str(ROOT / "BENCH_e2e.json"),
                        help="recorded result (default: BENCH_e2e.json in "
                             "the repository root)")
    args = parser.parse_args()
    contract = load(ROOT / "BENCHMARK.json")
    baseline = load(args.baseline)
    fresh = load(args.fresh)
    failures = 0

    def check(ok, label, detail):
        nonlocal failures
        failures += not ok
        row("ok" if ok else "FAIL", label, detail)

    check(baseline.get("recorded") is True, "baseline/recorded",
          f"{baseline.get('recorded')} in {args.baseline}")
    for key in ("cpu", "nproc"):
        base = baseline.get("provenance", {}).get(key)
        new = fresh.get("provenance", {}).get(key)
        check(base == new, f"provenance/{key}",
              f"baseline {base}, fresh {new}")
    check(fresh.get("correct") is True, "fresh/correct",
          str(fresh.get("correct")))

    def failed_share(result):
        return result.get("failed", 1) / max(result.get("attempted", 1), 1)

    check(failed_share(fresh) <= failed_share(baseline), "fresh/failed",
          f"{fresh.get('failed')} of {fresh.get('attempted')} commands "
          f"(baseline {baseline.get('failed')} of "
          f"{baseline.get('attempted')})")

    fresh_runs = fresh.get("workloads", {})
    for workload, base_run in baseline.get("workloads", {}).items():
        if workload not in fresh_runs:
            check(False, workload, "missing from the fresh run")
            continue
        for spec in contract["end_to_end"]:
            label = f"{workload}/{spec['name']}"
            base = base_run["metrics"].get(spec["name"])
            new = fresh_runs[workload]["metrics"].get(spec["name"])
            if base is None or new is None:
                side = "baseline" if base is None else "fresh run"
                check(False, label, f"missing from the {side}")
                continue
            moved = change(base, new)
            sign = 1 if spec["better"] == "lower" else -1
            check(sign * moved <= spec["bound"], label,
                  f"{base:10.4g} -> {new:10.4g} {spec['unit']:<3} "
                  f"{moved:+7.1%}  bound {sign * spec['bound']:+.0%}")

    base_layers = baseline.get("layers", {}).get("metrics", {})
    fresh_layers = fresh.get("layers", {}).get("metrics", {})
    for spec in contract["per_layer"]:
        name = spec["name"]
        if name in base_layers and name in fresh_layers:
            base, new = base_layers[name], fresh_layers[name]
            row("", f"layers/{name}",
                f"{base:10.4g} -> {new:10.4g} {spec['unit']:<5}"
                f"{change(base, new):+7.1%}  ({spec['better']} is better; "
                f"not gated)")

    print(f"bench_compare: {'FAIL' if failures else 'OK'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
