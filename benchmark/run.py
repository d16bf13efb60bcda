#!/usr/bin/env python3
"""Repository benchmark: the wall time to regenerate EXPERIMENTS.md, with
per-layer numbers under it. benchmark/README.md describes every workload
and metric.

usage:
  python3 benchmark/run.py [--workload NAME]... [--seed S] [--seconds T]
                           [--trace 0|1 | --layers] [--out FILE] [--record]
  python3 benchmark/run.py --smoke        every workload at minimum scale
  python3 benchmark/run.py --self-test    trace summary + digest checks
  python3 benchmark/run.py --stability N  N runs per workload, spreads
  python3 benchmark/run.py --pin          rewrite benchmark/digests.json

The first run builds the repository in Release into build-bench/repo and
the per-layer harness into build-bench/layers. Each workload then runs
an untimed warm-up, five set-up passes at minimum scale and timed passes
at full scale until --seconds have passed (at least one). Every command
runs as its own process, one at a time, with a clean XED_* environment.

Printed: one `workload metric value unit` line per metric, then, as the
last line, {"correct", "attempted", "failed", "metrics"}: the
BENCHMARK.json end_to_end metrics with --trace 0, its per_layer metrics
with --trace 1. When several workloads run, names gain "@workload".
The full result, provenance included, goes to --out.
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Leave no __pycache__ behind in benchmark/.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import trace_summary  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
REPO_BUILD = BUILD / "repo"
LAYERS_BUILD = BUILD / "layers"
WORK = BUILD / "work"
CLI = REPO_BUILD / "src" / "campaign" / "xed_campaign"
RUSAGE_EXEC = LAYERS_BUILD / "rusage_exec"
XED_LAYERS = LAYERS_BUILD / "xed_layers"
DIGESTS = BENCH / "digests.json"

# EXPERIMENTS.md document order.
PAPER_BINARIES = [
    "fig01_ondie_vs_dimm_ecc", "table2_detection_rates",
    "fig06_collision_probability", "table3_multi_catchword",
    "fig07_xed_reliability", "fig08_xed_scaling", "table4_sdc_due",
    "fig09_double_chipkill", "fig10_double_chipkill_scaling",
    "fig11_exec_time", "fig12_memory_power", "fig13_alternatives",
    "fig14_lotecc", "ablation_scrubbing", "ablation_diagnosis_threshold",
    "ablation_catchword_width", "ablation_ondie_code",
]
RELIABILITY_BINARIES = [
    "fig01_ondie_vs_dimm_ecc", "fig07_xed_reliability", "fig08_xed_scaling",
    "fig09_double_chipkill", "fig10_double_chipkill_scaling",
    "ablation_scrubbing", "ablation_ondie_code",
]

# Workload -> (binaries, full-scale knobs). campaign_store has no
# binaries: its steps come from campaign_plan().
WORKLOADS = {
    "reproduce_default": (PAPER_BINARIES, {}),
    "reliability_scaled": (RELIABILITY_BINARIES,
                           {"XED_MC_SYSTEMS": "20000000"}),
    "detection_scaled": (["table2_detection_rates"],
                         {"XED_TRIALS": "100000000"}),
    "campaign_store": ([], {}),
}
MIN_SCALE = {"XED_MC_SYSTEMS": "1", "XED_TRIALS": "1", "XED_PERF_OPS": "1"}
SETUP_PASSES = 5
HELD_OUT_SEED = 7
STEP_TIMEOUT_S = 150
# The layers harness's main thread records ~90k spans; each thread's
# ring must hold all of them for the self-time table to be complete.
TRACE_BUFFER_EVENTS = 1 << 17

# Units of the diagnostics printed beside the BENCHMARK.json metrics.
EXTRA_UNITS = {
    "failed_frac": "frac",
    "cpu_s": "s",
    "passes": "count",
    "perfsim.simulate.calls": "count",
    "faultsim.sample.nonzero_frac": "frac",
    "trace.dropped_events": "count",
}


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failure)."""


# ---------------------------------------------------------------- build

NPROC = len(os.sched_getaffinity(0))
# Worker threads of every command, passed as XED_MC_THREADS and as
# xed_campaign --threads.
THREADS = min(NPROC, 4)


def build():
    """Configure (once) and build both trees; output goes to a log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources next to {BENCH.name}/")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(THREADS)
    targets = PAPER_BINARIES + ["xed_campaign_cli"]
    # Ninja's up-to-date check takes ~0.02 s against make's ~2.5 s, and
    # every run repeats it.
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    commands = []
    for source, tree in ((ROOT, REPO_BUILD), (BENCH, LAYERS_BUILD)):
        if not (tree / "CMakeCache.txt").is_file():
            commands.append(["cmake", "-S", str(source), "-B", str(tree),
                             "-DCMAKE_BUILD_TYPE=Release", *generator])
    commands.append(["cmake", "--build", str(REPO_BUILD), "-j", jobs,
                     "--target", *targets])
    commands.append(["cmake", "--build", str(LAYERS_BUILD), "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for command in commands:
            log.write("$ " + " ".join(command) + "\n")
            log.flush()
            if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(command)} "
                                 f"(see {log_path})")


# ------------------------------------------------------------ processes

@dataclass
class Step:
    """One command of a workload pass."""
    name: str
    argv: list
    env: dict = field(default_factory=dict)
    pin_stdout: bool = True
    # (label, path) of output files whose bytes are pinned after the step.
    files: tuple = ()
    # The step's stdout must equal this earlier step's stdout.
    same_stdout_as: str = ""
    # The step's stdout must parse as JSON.
    json_stdout: bool = False


@dataclass
class Outcome:
    status: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env(knobs):
    env = {k: v for k, v in os.environ.items() if not k.startswith("XED_")}
    env.update(knobs)
    return env


def run_step(step):
    """Run @p step under rusage_exec; its own wall, CPU and peak RSS."""
    report = WORK / "rusage.txt"
    report.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [str(RUSAGE_EXEC), str(report), *map(str, step.argv)],
        env=child_env(step.env), cwd=WORK, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        return Outcome(-1, stdout, b"timed out\n" + stderr, 0, 0, 0)
    try:
        wall_ns, maxrss_kb, utime_us, stime_us = map(
            int, report.read_text().split())
    except (OSError, ValueError):
        return Outcome(proc.returncode or -1, stdout, stderr, 0, 0, 0)
    return Outcome(proc.returncode, stdout, stderr, wall_ns / 1e9,
                   (utime_us + stime_us) / 1e6, maxrss_kb / 1024)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ------------------------------------------------------------ workloads

@dataclass
class Plan:
    steps: list
    prepare: object = None
    # Steps are independent processes (any subset may be re-run alone).
    independent: bool = True


def bench_step(binary, knobs):
    return Step(binary, [REPO_BUILD / "bench" / binary], knobs)


def campaign_plan(seed, minimal):
    """run --max-shards (half the plan), resume, report, report json.

    The spec is a generated copy of benchmark/specs/campaign_store.json:
    --seed replaces its seed, and set-up passes shrink it to one shard
    per scheme.
    """
    spec = json.loads((BENCH / "specs" / "campaign_store.json").read_text())
    if seed:
        spec["seed"] = seed
    if minimal:
        spec["systems"] = spec["shardSystems"] = 1
    per_cell = -(-spec["systems"] // spec["shardSystems"])
    shards = len(spec["schemes"]) * per_cell
    directory = WORK / "campaign"
    spec_path = directory / "spec.json"
    store = directory / "store.jsonl"

    def prepare():
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        spec_path.write_text(json.dumps(spec, indent=2) + "\n")

    common = ["--out", store, "--quiet", "--threads", str(THREADS)]
    steps = [
        Step("campaign.run", [CLI, "run", spec_path, *common,
                              "--max-shards", str(max(1, shards // 2))]),
        Step("campaign.resume", [CLI, "resume", spec_path, *common],
             files=(("campaign.store", store),
                    ("campaign.forensics",
                     Path(str(store) + ".forensics.jsonl")))),
        Step("campaign.report", [CLI, "report", store],
             same_stdout_as="campaign.resume"),
        # Embeds wall-clock timings: checked to parse, never pinned.
        Step("campaign.report_json", [CLI, "report", store, "--format=json"],
             pin_stdout=False, json_stdout=True),
    ]
    return Plan(steps, prepare, independent=False)


def workload_plan(workload, seed, minimal):
    if workload == "campaign_store":
        return campaign_plan(seed, minimal)
    binaries, full = WORKLOADS[workload]
    knobs = dict(MIN_SCALE if minimal else full)
    knobs["XED_MC_THREADS"] = str(THREADS)
    if seed:
        knobs["XED_MC_SEED"] = str(seed)
    return Plan([bench_step(binary, knobs) for binary in binaries])


def warmup_step(seed):
    knobs = {"XED_MC_THREADS": str(THREADS)}
    if seed:
        knobs["XED_MC_SEED"] = str(seed)
    return Step("fig07_xed_reliability",
                [REPO_BUILD / "bench" / "fig07_xed_reliability"], knobs,
                pin_stdout=False)


# ---------------------------------------------------------- measurement

def load_pins():
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())["pins"]


def pinned_digest(pins, key, seed):
    """The pinned digest of @p key at @p seed, or None when unpinned.
    "*" marks an output that does not depend on the seed."""
    entry = pins.get(key, {})
    return entry.get("*", entry.get(str(seed)))


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    # step name -> [wall_s, cpu_s, maxrss_mb]
    steps: dict = field(default_factory=dict)


class Run:
    """Counts commands and checks outputs for one workload measurement.

    An output is correct when it matches its pin for this seed; an
    unpinned output (a seed nobody pinned) must instead repeat exactly
    on a second execution, which verify() supplies if the timed passes
    did not.
    """

    def __init__(self, workload, seed, pins):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.seen = {}         # unpinned digest key -> first digest
        self.repeated = set()  # unpinned keys checked a second time
        self.digests = {}      # digest key -> digest, last pass

    def key(self, label, minimal):
        return f"{self.workload}/{label}" + ("@min" if minimal else "")

    def check(self, key, digest, minimal):
        """True when @p digest is right for @p key."""
        self.digests[key] = digest
        expected = None if minimal else pinned_digest(
            self.pins, key, self.seed)
        if expected is not None:
            return digest == expected
        if key not in self.seen:
            self.seen[key] = digest
            return True
        self.repeated.add(key)
        return self.seen[key] == digest

    def run_pass(self, plan, minimal=False):
        if plan.prepare:
            plan.prepare()
        result = PassResult()
        stdout_of = {}
        for step in plan.steps:
            outcome = run_step(step)
            self.attempted += 1
            result.wall_s += outcome.wall_s
            result.cpu_s += outcome.cpu_s
            result.maxrss_mb = max(result.maxrss_mb, outcome.maxrss_mb)
            result.steps[step.name] = [outcome.wall_s, outcome.cpu_s,
                                       outcome.maxrss_mb]
            problems = []
            if outcome.status != 0:
                problems.append(f"exit status {outcome.status}: "
                                + outcome.stderr.decode(errors="replace")
                                .strip()[-400:])
            stdout_of[step.name] = outcome.stdout
            if step.pin_stdout and not self.check(
                    self.key(step.name, minimal), sha256(outcome.stdout),
                    minimal):
                problems.append("stdout digest mismatch")
            for label, path in step.files:
                if not Path(path).is_file():
                    problems.append(f"{label}: {path} missing")
                elif not self.check(self.key(label, minimal),
                                    sha256_file(path), minimal):
                    problems.append(f"{label} digest mismatch")
            if (step.same_stdout_as
                    and stdout_of.get(step.same_stdout_as) != outcome.stdout):
                problems.append(f"stdout differs from {step.same_stdout_as}")
            if step.json_stdout and outcome.status == 0:
                try:
                    json.loads(outcome.stdout)
                except ValueError:
                    problems.append("stdout is not JSON")
            if problems:
                self.failed += 1
                self.errors.append(f"{self.workload} {step.name}"
                                   f"{' (min scale)' if minimal else ''}: "
                                   + "; ".join(problems))
        return result

    def verify(self, plan):
        """Re-run what no pin and no second pass has checked yet."""
        def unchecked(step):
            labels = [step.name] if step.pin_stdout else []
            labels += [label for label, _ in step.files]
            keys = [self.key(label, False) for label in labels]
            return any(pinned_digest(self.pins, k, self.seed) is None
                       and k not in self.repeated for k in keys)

        pending = [step for step in plan.steps if unchecked(step)]
        if not pending:
            return
        if plan.independent:
            plan = Plan(pending)
        self.run_pass(plan)


def measure_workload(workload, seed, seconds, pins):
    """Warm-up, set-up passes, timed passes, verification."""
    run = Run(workload, seed, pins)
    run.run_pass(Plan([warmup_step(seed)]))

    setup_plan = workload_plan(workload, seed, minimal=True)
    setups = [run.run_pass(setup_plan, minimal=True)
              for _ in range(SETUP_PASSES)]

    plan = workload_plan(workload, seed, minimal=False)
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run.run_pass(plan))
    run.verify(plan)

    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(p.wall_s for p in setups),
        "peak_rss_mb": max(p.maxrss_mb for p in passes),
        "failed_frac": run.failed / run.attempted,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "passes": len(passes),
    }
    return {
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "parallelism": statistics.median(p.cpu_s / p.wall_s for p in passes
                                         if p.wall_s > 0),
        "pass_walls_s": [p.wall_s for p in passes],
        "steps": {name: {"wall_s": statistics.median(p.steps[name][0]
                                                      for p in passes),
                         "cpu_s": statistics.median(p.steps[name][1]
                                                     for p in passes),
                         "maxrss_mb": max(p.steps[name][2] for p in passes)}
                  for name in passes[0].steps},
        "setup_walls_s": [p.wall_s for p in setups],
        "digests": run.digests,
    }


def perfsim_digest(doc):
    return sha256(json.dumps(doc["perfsim_runs"], sort_keys=True,
                             separators=(",", ":")).encode())


def measure_layers(smoke, pins):
    """xed_layers untraced (the metrics) and traced (the self times)."""
    args = [XED_LAYERS, "--work", WORK] + (["--smoke"] if smoke else [])
    trace_path = WORK / "layers.trace.json"
    trace_path.unlink(missing_ok=True)
    off = run_step(Step("xed_layers", args))
    on = run_step(Step("xed_layers", args + ["--trace-out", trace_path],
                       {"XED_TRACE_BUFFER": str(TRACE_BUFFER_EVENTS)}))
    errors = []
    for label, outcome in (("untraced", off), ("traced", on)):
        if outcome.status != 0:
            errors.append(f"xed_layers {label}: exit status "
                          f"{outcome.status}: "
                          + outcome.stderr.decode(errors="replace")[-400:])
    if errors:
        return {"metrics": {}, "attempted": 2, "failed": len(errors),
                "errors": errors}

    doc_off = json.loads(off.stdout)
    doc_on = json.loads(on.stdout)
    summary = trace_summary.summarize(json.loads(trace_path.read_text()))
    # Includes trace.overhead_frac, which the untraced run measures by
    # alternating the recorder off and on within its one process.
    metrics = dict(doc_off["metrics"])
    metrics["trace.dropped_events"] = doc_on["trace"]["dropped_events"]

    failed = 0
    digest = perfsim_digest(doc_off)
    if digest != perfsim_digest(doc_on):
        errors.append("xed_layers: tracing changed the perfsim results")
    expected = None if smoke else pinned_digest(pins, "layers/perfsim_runs",
                                                0)
    if expected is not None and digest != expected:
        errors.append("xed_layers: perfsim results digest mismatch")
    if metrics["trace.dropped_events"] or summary["dropped_events"]:
        errors.append("xed_layers: the trace ring dropped events")
    if errors:
        failed = 1
    return {"metrics": metrics, "counts": doc_off["counts"],
            "attempted": 2, "failed": failed, "errors": errors,
            "self_time": summary, "perfsim_digest": digest,
            "harness_s": {"untraced": doc_off["harness_s"],
                         "traced": doc_on["harness_s"]}}


# ----------------------------------------------------------- provenance

def git_describe():
    """`git describe --always --dirty` of the tree, or None."""
    # The ceiling keeps git from describing a repository that merely
    # encloses an exported (non-git) checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             env=env)
    except OSError:
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def provenance():
    info = {"nproc": NPROC, "threads": THREADS, "git": git_describe(),
            "python": platform.python_version(),
            "kernel": platform.release(), "machine": platform.machine()}
    version = subprocess.run([str(CLI), "version"], capture_output=True,
                             text=True)
    if version.returncode == 0:
        build_info = json.loads(version.stdout)
        info["compiler"] = build_info.get("compiler")
        info["build_type"] = build_info.get("buildType")
        info["flags"] = build_info.get("flags")
        info["simd"] = build_info.get("simd", {}).get("level")
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        info["cpu"] = next(line.split(":", 1)[1].strip()
                           for line in cpuinfo.splitlines()
                           if line.startswith("model name"))
        meminfo = Path("/proc/meminfo").read_text().split()
        info["mem_gb"] = round(int(meminfo[meminfo.index("MemTotal:") + 1])
                               / 2**20, 1)
    except (OSError, StopIteration, ValueError):
        pass
    return info


# --------------------------------------------------------------- output

def load_contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_errors(errors):
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)


def print_metric(scope, name, value, unit):
    print(f"{scope} {name} {value:.6g} {unit}")


def contract_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def pick(specs, values, suffix=""):
    """Contract metrics {name: {"value", "unit"}} from measured values."""
    return {spec["name"] + suffix: {"value": values[spec["name"]],
                                    "unit": spec["unit"]}
            for spec in specs}


def units(contract):
    table = dict(EXTRA_UNITS)
    for spec in contract["end_to_end"] + contract["per_layer"]:
        table[spec["name"]] = spec["unit"]
    return table


def measure(args, pins):
    """Measure the chosen workloads; print every metric, then the
    contract line. Returns the exit code."""
    contract = load_contract()
    unit_of = units(contract)
    seconds = args.seconds
    result = {"provenance": provenance(), "seed": args.seed,
              "seconds": seconds, "recorded": args.record, "workloads": {}}
    correct = True
    attempted = failed = 0
    final = {}
    several = len(args.workload) > 1
    for workload in args.workload:
        measured = measure_workload(workload, args.seed, seconds, pins)
        result["workloads"][workload] = measured
        attempted += measured["attempted"]
        failed += measured["failed"]
        for name, value in measured["metrics"].items():
            print_metric(workload, name, value, unit_of[name])
        suffix = f"@{workload}" if several else ""
        if args.trace:
            layer_values = {
                "proc.cpu_s": measured["metrics"]["cpu_s"],
                "proc.parallelism": measured["parallelism"]}
            for name, value in layer_values.items():
                print_metric(workload, name, value, unit_of[name])
            final.update(pick([s for s in contract["per_layer"]
                               if s["name"] in layer_values],
                              layer_values, suffix))
        else:
            final.update(pick(contract["end_to_end"], measured["metrics"],
                              suffix))
        print_errors(measured["errors"])

    if args.trace:
        layers = measure_layers(False, pins)
        result["layers"] = layers
        attempted += layers["attempted"]
        failed += layers["failed"]
        print_errors(layers["errors"])
        if layers["metrics"]:
            for name, value in layers["metrics"].items():
                print_metric("layers", name, value, unit_of[name])
            print(trace_summary.format_table(layers["self_time"]))
            final.update(pick([s for s in contract["per_layer"]
                               if not s["name"].startswith("proc.")],
                              layers["metrics"]))
        else:
            correct = False

    correct = correct and failed == 0
    result.update(correct=correct, attempted=attempted, failed=failed)
    out = Path(args.out) if args.out else BUILD / "result.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"result -> {out}")
    print(contract_line(correct, attempted, failed, final))
    return 0 if correct else 1


def stability(args, pins):
    """Each end-to-end metric's median, quartiles and IQR / median over
    args.stability runs of each workload, seeds 1..N."""
    contract = load_contract()
    report = {}
    ok = True
    for workload in args.workload:
        values = {spec["name"]: [] for spec in contract["end_to_end"]}
        for run in range(args.stability):
            measured = measure_workload(workload, run + 1, args.seconds,
                                        pins)
            ok = ok and measured["failed"] == 0
            print_errors(measured["errors"])
            for name in values:
                values[name].append(measured["metrics"][name])
        report[workload] = {}
        for spec in contract["end_to_end"]:
            series = values[spec["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            report[workload][spec["name"]] = {
                "values": series, "median": median, "q1": q1, "q3": q3,
                "rel_iqr": spread, "bound": spec["bound"]}
            print(f"{workload} {spec['name']} median {median:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} rel_iqr {spread:.4f} "
                  f"bound {spec['bound']}")
    out = Path(args.out) if args.out else BUILD / "stability.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"stability -> {out}")
    return 0 if ok else 1


def pin(args):
    """Rewrite benchmark/digests.json from the default and held-out
    seeds; outputs equal at both are pinned for every seed ("*")."""
    per_seed = {}
    for seed in (0, HELD_OUT_SEED):
        for workload in WORKLOADS:
            run = Run(workload, seed, {})
            run.run_pass(workload_plan(workload, seed, False))
            if run.failed:
                raise BenchError("; ".join(run.errors))
            for key, digest in run.digests.items():
                per_seed.setdefault(key, {})[str(seed)] = digest
    layers = measure_layers(False, {})
    if layers["failed"]:
        raise BenchError("; ".join(layers["errors"]))
    pins = {"layers/perfsim_runs": {"*": layers["perfsim_digest"]}}
    for key, by_seed in per_seed.items():
        values = set(by_seed.values())
        pins[key] = {"*": values.pop()} if len(values) == 1 else by_seed
    DIGESTS.write_text(json.dumps({"pins": pins}, indent=2,
                                  sort_keys=True) + "\n")
    print(f"pinned {len(pins)} outputs -> {DIGESTS}")
    return 0


def self_test(pins):
    """The trace summary on its fixture, and a wrong pin caught."""
    problems = []
    fixture = json.loads((BENCH / "fixtures" / "trace_fixture.json")
                         .read_text())
    summary = trace_summary.summarize(fixture)
    got = {(r["cat"], r["name"]): (r["count"], round(r["total_ms"] * 1e3, 3),
                                   round(r["self_ms"] * 1e3, 3))
           for r in summary["rows"]}
    # (count, total_us, self_us): nesting on tid 0, an overlapping but
    # separate thread (tid 1), two spans starting at the same instant.
    expected = {("t", "outer"): (1, 100.0, 50.0),
                ("t", "work"): (2, 50.0, 40.0),
                ("t", "leaf"): (2, 15.0, 15.0),
                ("t", "same_start"): (1, 10.0, 5.0),
                ("u", "other"): (1, 70.0, 59.5),
                ("u", "inner"): (1, 10.5, 10.5)}
    if got != expected:
        problems.append(f"trace summary: got {got}, expected {expected}")
    if summary["dropped_events"] != 4 or summary["events"] != 8:
        problems.append("trace summary: wrong event or dropped count")

    # A seed-independent, millisecond-long command against its real pin
    # and against a deliberately wrong one.
    plan = Plan([bench_step("ablation_catchword_width", {})])
    key = "reproduce_default/ablation_catchword_width"
    if key not in pins:
        problems.append(f"digests.json has no pin for {key}")
    wrong = copy.deepcopy(pins)
    wrong[key] = {"*": "0" * 64}
    for label, table, want_failed in (("real", pins, 0), ("wrong", wrong, 1)):
        run = Run("reproduce_default", 0, table)
        run.run_pass(plan)
        if run.failed != want_failed or run.attempted != 1:
            problems.append(f"{label} pin: failed {run.failed} of "
                            f"{run.attempted}, expected {want_failed}")
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print(f"self-test {'failed' if problems else 'passed'}")
    return len(problems)


def smoke(args, pins):
    """Every workload and xed_layers at minimum scale, plus --self-test."""
    failed = attempted = 0
    start = time.monotonic()
    for workload in WORKLOADS:
        run = Run(workload, 0, pins)
        plan = workload_plan(workload, 0, minimal=True)
        walls = [run.run_pass(plan, minimal=True).wall_s for _ in range(2)]
        attempted += run.attempted
        failed += run.failed
        print_errors(run.errors)
        print_metric(workload, "setup_s", statistics.median(walls), "s")
    layers = measure_layers(True, pins)
    attempted += layers["attempted"]
    failed += layers["failed"]
    print_errors(layers["errors"])
    failed += self_test(pins)
    print(f"smoke: {attempted} commands, {failed} failed, "
          f"{time.monotonic() - start:.1f} s")
    return 1 if failed else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see benchmark/README.md).")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 keeps every pinned default")
    parser.add_argument("--seconds", type=float, default=0,
                        help="timed-phase length (default: one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end")
    parser.add_argument("--layers", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", help="result JSON path")
    parser.add_argument("--record", action="store_true",
                        help="refuse to run from a dirty git tree")
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--smoke", action="store_true")
    modes.add_argument("--self-test", action="store_true")
    modes.add_argument("--stability", type=int, metavar="N")
    modes.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOADS)
    args.trace = args.trace or int(args.layers)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.stability is not None and args.stability < 2:
        parser.error("--stability needs at least 2 runs")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        if args.record:
            git = git_describe()
            if git is None or git.endswith("-dirty"):
                raise BenchError("--record needs a clean git tree")
        build()
        WORK.mkdir(parents=True, exist_ok=True)
        pins = load_pins()
        if args.smoke:
            return smoke(args, pins)
        if args.self_test:
            return 1 if self_test(pins) else 0
        if args.stability is not None:
            return stability(args, pins)
        if args.pin:
            return pin(args)
        return measure(args, pins)
    except BenchError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
