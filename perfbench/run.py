#!/usr/bin/env python3
"""mosqdyn benchmark: times the CLI end to end and, in a traced run, per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

The CLI is driven in-process through `mosqdyn.cli.main(argv)`, one
command at a time by one caller (a closed loop with a single client, no
threads).  Inputs come from `--seed` alone (see bench_workloads.py);
output files go to a scratch directory under `.perfbench/` in the
checkout, removed at the end.  Every command's exit code and outputs are
checked by a second route (bench_checks.py).

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh interpreters of importing mosqdyn.cli
               and running `classify`, which every invocation pays
  wall_s       median over passes of one pass's command time
  peak_mem_mb  peak resident set of this process at the end of its first
               pass, read before any output check runs
Both times are in reference-speed seconds (bench_speed.py): each is
scaled by how fast a fixed Python loop ran around it, so that the
host's speed drift cancels.  The raw times are in the run record.
--trace 1 reports the per-layer metrics of one traced pass (spans from
bench_trace.py, in raw seconds) after the same untraced passes, whose
raw median gives trace.overhead_s.

Each run writes a record with provenance to .perfbench/records/.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import bench_checks
import bench_speed
import bench_trace
from bench_workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 12345
DEFAULT_SECONDS = 35.0
MIN_PASSES = 3
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_mem_mb": "MB"}
PER_LAYER_UNITS = {
    "trajectory.iterate_orbit.calls": "count",
    "trajectory.iterate_orbit.steps": "count",
    "trajectory.iterate_orbit.busy_s": "s",
    "trajectory.iterate_orbit.steps_per_s": "1/s",
    "trajectory.iterate_orbit.steps_max": "count",
    "trajectory.iterate_orbit.call_p50_ms": "ms",
    "trajectory.iterate_orbit.call_tail_ms": "ms",
    "trajectory.iterate_orbit.survival_steps_mean": "count",
    "trajectory.iterate_orbit.exhausted_ratio": "ratio",
    "trajectory.iterate_orbit.rec_rows": "count",
    "trajectory.iterate_orbit.rec_use_ratio": "ratio",
    "trajectory.iterate_orbit.rec_alloc_mb": "MB",
    "trajectory.orbit_to_csv.busy_s": "s",
    "trajectory.orbit_to_csv.rows": "count",
    "trajectory.orbit_to_csv.rows_per_s": "1/s",
    "trajectory.iterate_general.busy_s": "s",
    "cli.self_s": "s",
    "ioutil.write.calls": "count",
    "ioutil.write.bytes": "bytes",
    "ioutil.write.busy_s": "s",
    "ode.integrate_flow.busy_s": "s",
    "ode.integrate_flow.rk4_steps": "count",
    "ode.integrate_flow.steps_per_s": "1/s",
    **{
        f"{name}.{metric}": unit
        for name in (
            "simplex.scan_periodic_points",
            "simplex.count_two_cycles_on_grid",
            "simplex.two_cycle_certificate",
            "simplex.check_interval_map_range",
            "spectral.find_fixed_points",
            "spectral.classify_origin",
        )
        for metric, unit in (("busy_s", "s"), ("calls", "count"))
    },
    **{f"{m}.errors": "count" for m in ("model", "spectral", "simplex", "trajectory", "ode", "ioutil")},
    "model.validate_parameters.calls": "count",
    "trace.overhead_s": "s",
}
NO_WAIT_NOTE = (
    "mosqdyn is single-threaded and runs one command at a time; no part "
    "waits on another, so there are no wait metrics"
)
SETUP_ARGV = ["classify", "--alpha", "0.6", "--beta", "0.5", "--mu", "0.48"]
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[2])
from bench_speed import time_reference
refs = [time_reference() for _ in range(3)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mosqdyn.cli
import contextlib, io
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = mosqdyn.cli.main(sys.argv[3:])
elapsed = time.perf_counter() - t0
refs += [time_reference() for _ in range(3)]
import json
print(json.dumps({"rc": rc, "s": elapsed, "refs": refs, "stdout": out.getvalue(), "file": mosqdyn.cli.__file__}))
"""


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None


def run_command(main, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a failed benchmark
            error = traceback.format_exc(limit=5)
        seconds = time.perf_counter() - t0
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, error)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


class Tally:
    """Commands attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)[:500]}")


def measure_setup(tally: Tally) -> tuple[list[float], list[float]]:
    """Import-and-classify time in fresh interpreters, raw and at
    reference speed (from reference loops timed just before and after in
    the same interpreter).  The first, which may compile bytecode, is
    discarded."""
    raw, normalized = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), *SETUP_ARGV],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT),
        )
        problems = []
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if res["rc"] != 0 or json.loads(res["stdout"])["classification"] != "saddle":
                problems.append(f"classify exit {res['rc']}: {res['stdout'][:200]}")
            if not Path(res["file"]).resolve().is_relative_to(SRC.resolve()):
                problems.append(f"imported mosqdyn from {res['file']}")
        except (ValueError, KeyError, IndexError):
            problems.append(f"setup child failed: {proc.stderr.strip()[-300:]}")
            res = None
        tally.add("setup-classify", problems)
        if i > 0 and res is not None:
            raw.append(res["s"])
            normalized.append(res["s"] * bench_speed.scale(res["refs"]))
    return raw, normalized


def run_pass(main, cmds, tracer=None, sampler=None) -> list[Outcome]:
    """Run every command once, each inside a command span when traced.
    Time the speed sampler spends inside a command is taken out of the
    command's time."""
    outcomes = []
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.cmd = i
            span = tracer.begin(bench_trace.COMMAND_SPAN)
        busy = sampler.busy if sampler is not None else 0.0
        outcome = run_command(main, cmd.argv)
        if sampler is not None:
            outcome.seconds -= sampler.busy - busy
        if tracer is not None:
            tracer.end(span)
        outcomes.append(outcome)
    return outcomes


def check_pass(cmds, outcomes, tally: Tally) -> float:
    """Check every outcome; returns the pass's summed command time."""
    for cmd, outcome in zip(cmds, outcomes):
        tally.add(cmd.label, bench_checks.check(cmd, outcome))
    return sum(o.seconds for o in outcomes)


@dataclass
class Passes:
    raw_s: list[float]  # summed command time of each pass
    scales: list[float]  # reference-speed factor of each pass
    peak_mem_mb: float

    @property
    def normalized_s(self) -> list[float]:
        return [w * k for w, k in zip(self.raw_s, self.scales)]


def timed_passes(main, cmds, tally: Tally, seconds: float) -> Passes:
    """Untraced passes for `seconds`: at least MIN_PASSES, and another
    only while it is expected to finish in time.  Also takes the peak
    resident set after the first pass, read before its outputs are
    checked, so that it is the program's peak and not the checker's."""
    passes = Passes([], [], 0.0)
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        gc.collect()
        with bench_speed.SpeedSampler() as sampler:
            outcomes = run_pass(main, cmds, sampler=sampler)
        if not passes.raw_s:
            passes.peak_mem_mb = peak_rss_mb()
        passes.raw_s.append(check_pass(cmds, outcomes, tally))
        passes.scales.append(sampler.scale())
        per_pass = time.perf_counter() - t_pass
        if len(passes.raw_s) >= MIN_PASSES and time.perf_counter() - t0 + per_pass > seconds:
            return passes


def file_digests(cmds) -> dict[str, dict]:
    out = {}
    for cmd in cmds:
        for path in cmd.outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                out[os.path.basename(path)] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return out


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mosqdyn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, passes: int) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "passes": passes,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def design_shares(focus: tuple[str, ...], spans, selfs) -> dict:
    """Self-time shares of command time, and how well the self times
    account for each command span."""
    command = bench_trace.COMMAND_SPAN
    total = sum(s.end - s.start for s in spans if s.name == command)
    by_fn: dict[str, float] = {}
    by_cmd: dict[int, float] = {}
    for s, st in zip(spans, selfs):
        by_fn[s.name] = by_fn.get(s.name, 0.0) + st
        by_cmd[s.cmd] = by_cmd.get(s.cmd, 0.0) + st
    gap = max(
        (abs((s.end - s.start) - by_cmd[s.cmd]) for s in spans if s.name == command), default=0.0
    )
    focus_s = sum(v for k, v in by_fn.items() if k.startswith(focus))
    by_module: dict[str, float] = {}
    for k, v in by_fn.items():
        mod = "cli.self" if k == command else k.split(".")[0]
        by_module[mod] = by_module.get(mod, 0.0) + v
    return {
        "focus": list(focus),
        "focus_share": focus_s / total if total else 0.0,
        "share_by_module": {k: v / total for k, v in sorted(by_module.items())} if total else {},
        "max_command_accounting_gap_s": gap,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally, dict]:
    import mosqdyn.cli as cli

    workload = WORKLOADS[name]
    tally = Tally()
    STATE_DIR.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=str(STATE_DIR))
    record: dict = {"workload": name, "why": workload.why, "trace": int(trace)}
    try:
        cmds = workload.build(seed, outdir)
        record["commands"] = [[a.replace(outdir, "<out>") for a in c.argv] for c in cmds]
        metrics: dict[str, float] = {}
        if not trace:
            setup_raw, setup = measure_setup(tally)
            metrics["setup_s"] = statistics.median(setup)
            record["setup_samples_s"] = setup
            record["setup_raw_samples_s"] = setup_raw
        passes = timed_passes(cli.main, cmds, tally, seconds)
        walls = passes.normalized_s
        record["pass_walls_s"] = walls
        record["pass_raw_walls_s"] = passes.raw_s
        record["pass_speed_scales"] = passes.scales
        q1, _, q3 = statistics.quantiles(walls, n=4)
        record["wall_quartiles_s"] = [q1, q3]
        if not trace:
            metrics["wall_s"] = statistics.median(walls)
            metrics["peak_mem_mb"] = passes.peak_mem_mb
        else:
            tracer = bench_trace.Tracer()
            gc.collect()
            with bench_trace.installed(tracer):
                outcomes = run_pass(cli.main, cmds, tracer)
            traced_wall = check_pass(cmds, outcomes, tally)
            leftover = bench_trace.installed_wrappers()
            if leftover:
                raise RuntimeError(f"wrappers left installed: {leftover}")
            bench_trace.require_layers(tracer.spans, workload.layers, name)
            selfs = bench_trace.self_times(tracer.spans)
            metrics, details = bench_trace.layer_metrics(tracer.spans, selfs)
            # Spans are raw seconds, so the overhead compares raw times.
            untraced = statistics.median(passes.raw_s)
            metrics["trace.overhead_s"] = traced_wall - untraced
            record["trace_details"] = details
            record["design"] = design_shares(workload.focus, tracer.spans, selfs)
            record["design"]["untraced_wall_s"] = untraced
            record["design"]["traced_wall_s"] = traced_wall
            record["note"] = NO_WAIT_NOTE
            record["spans"] = [
                [s.name, s.start, s.end, s.parent, s.cmd, s.error] for s in tracer.spans
            ]
        record["outputs"] = file_digests(cmds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    record["provenance"] = provenance(seed, len(passes.raw_s))
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["fail_ratio"] = tally.failed / tally.attempted
    record["problems"] = tally.problems
    return metrics, tally, record


def write_record(record: dict) -> Path:
    records = STATE_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / f"{record['workload']}-seed{record['provenance']['seed']}-trace{record['trace']}-{stamp}.json"
    spans = record.pop("spans", None)
    if spans is not None:
        spans_path = path.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
        record["spans_file"] = spans_path.name
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def report(name: str, metrics: dict, units: dict, record: dict) -> None:
    prov = record["provenance"]
    print(f"workload={name} seed={prov['seed']} passes={prov['passes']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"fail_ratio={record['fail_ratio']:.4g}")
    for key, value in metrics.items():
        print(f"  {key:<50} {value:>16.6g} {units[key]}")
    if "pass_raw_walls_s" in record and "wall_s" in metrics:
        print(f"  raw pass median {statistics.median(record['pass_raw_walls_s']):.4g} s, "
              f"reference-speed scale {statistics.median(record['pass_speed_scales']):.4g}")
    if "design" in record:
        d = record["design"]
        print(f"  design: {'+'.join(d['focus'])} self share {d['focus_share']:.3f}; "
              f"accounting gap {d['max_command_accounting_gap_s']:.2e} s")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def run_all(args) -> int:
    """Each workload in its own interpreter, so memory peaks stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=str(ROOT),
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (ValueError, IndexError):
            print(f"workload {name} produced no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the mosqdyn CLI end to end and per layer.")
    ap.add_argument("--workload", required=True, choices=("sweep", "battery", "dump", "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mosqdyn" / "cli.py").is_file():
        print(f"error: no mosqdyn sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    try:
        metrics, tally, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench_trace.LayerCoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    path = write_record(dict(record, metrics=result["metrics"]))
    report(args.workload, metrics, units, record)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
