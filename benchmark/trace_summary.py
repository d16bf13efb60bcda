#!/usr/bin/env python3
"""Self-time table of a Chrome-trace export.

usage: python3 benchmark/trace_summary.py TRACE.json [--json]

Reads a Chrome-trace JSON document (the format obs::TraceRecorder
exports) and prints, for every (cat, name) pair of complete "X" spans,
the span count, the total time and the self time. A span's self time
is its duration minus the part of it covered by its direct child
spans on the same thread (pid, tid); spans on other threads never
count as children, however they overlap. Rows are sorted by self time,
largest first.

A recorder ring that wrapped has lost its oldest spans; the document
says how many in otherData.droppedEvents, and the table reports it,
because a parent whose children were dropped shows too much self time.
"""

import json
import sys
from collections import defaultdict


def summarize(doc):
    """Return {"rows": [...], "events": n, "dropped_events": n}.

    Each row is {"cat", "name", "count", "total_ms", "self_ms"}.
    """
    threads = defaultdict(list)
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        # Work in integer nanoseconds: the exporter writes ns / 1000.
        start = round(float(event["ts"]) * 1000)
        duration = round(float(event["dur"]) * 1000)
        key = (event.get("cat", ""), event["name"])
        threads[(event.get("pid"), event.get("tid"))].append(
            (start, duration, key))

    totals = defaultdict(lambda: [0, 0, 0])  # count, total_ns, self_ns
    events = 0
    for spans in threads.values():
        # A parent sorts before a child that starts at the same time.
        spans.sort(key=lambda span: (span[0], -span[1]))
        stack = []  # [end_ns, key, duration_ns, covered_ns]

        def close(entry):
            end, key, duration, covered = entry
            row = totals[key]
            row[0] += 1
            row[1] += duration
            row[2] += max(0, duration - covered)

        for start, duration, key in spans:
            events += 1
            end = start + duration
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[3] += min(end, parent[0]) - start
            stack.append([end, key, duration, 0])
        while stack:
            close(stack.pop())

    rows = [{"cat": cat, "name": name, "count": count,
             "total_ms": total / 1e6, "self_ms": own / 1e6}
            for (cat, name), (count, total, own) in totals.items()]
    rows.sort(key=lambda row: (-row["self_ms"], row["cat"], row["name"]))
    dropped = int(doc.get("otherData", {}).get("droppedEvents", 0))
    return {"rows": rows, "events": events, "dropped_events": dropped}


def format_table(summary):
    lines = [f"{'cat':<10} {'name':<34} {'count':>8} {'total_ms':>12} "
             f"{'self_ms':>12}"]
    for row in summary["rows"]:
        lines.append(f"{row['cat']:<10} {row['name']:<34} "
                     f"{row['count']:>8} {row['total_ms']:>12.3f} "
                     f"{row['self_ms']:>12.3f}")
    lines.append(f"{summary['events']} spans, "
                 f"{summary['dropped_events']} dropped")
    return "\n".join(lines)


def main(argv):
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--json"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        summary = summarize(json.load(handle))
    if len(argv) == 3:
        print(json.dumps(summary, indent=2))
    else:
        print(format_table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
