"""Span tracing for the traced run, from outside the program.

`installed(tracer)` wraps the public functions of each layer module and
replaces every attribute of a loaded `mosqdyn` module that is the same
function object, so a call is caught whichever module it was imported
into.  Leaving the block puts every original object back.  Spans stay
in memory; the runner writes them out when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Summed over one command's spans, self times add up to the
command span exactly, so the layers plus `cli.self_s` account for every
traced second.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

PACKAGE = "mosqdyn"
LAYER_MODULES = ("model", "spectral", "simplex", "trajectory", "ode", "ioutil")
COMMAND_SPAN = "cli.main"
# Public functions left unwrapped.  fmt formats one number and runs
# several times per output row, so its cost is the row formatting of the
# caller, and a span per number would cost more than the work.
UNWRAPPED = frozenset({"ioutil.fmt"})
WRITE_FUNCTIONS = ("ioutil.atomic_write_text", "ioutil.atomic_write_lines", "ioutil.atomic_write_json")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    cmd: int = -1
    error: str | None = None
    info: dict | None = None


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.cmd = -1
        self._stack: list[int] = []
        self._counted: list[BaseException] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent=parent, cmd=self.cmd)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span, error: BaseException | None = None) -> None:
        span.end = self.clock()
        self._stack.pop()
        # An exception is counted once, at the innermost span it left.
        if error is not None and not any(e is error for e in self._counted):
            self._counted.append(error)
            span.error = type(error).__name__

    def wrap(self, name: str, fn, extract=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(span, exc)
                raise
            self.end(span)
            if extract is not None:
                span.info = extract(args, kwargs, result)
            return result

        return wrapper


def _orbit_info(args, kwargs, orbit) -> dict:
    cfg = orbit.config
    return {
        "steps": orbit.n_steps,
        "verdict": orbit.verdict.value,
        "rec_rows": len(orbit.steps),
        # iterate_orbit preallocates max_iters // record_every + 2 rows of
        # int64, float64, float64 (computed from the config, not measured)
        "rec_cap": cfg.max_iters // cfg.record_every + 2,
    }


def _csv_info(args, kwargs, text) -> dict:
    orbit = args[0] if args else kwargs["orbit"]
    return {"rows": len(orbit.steps)}


def _flow_info(args, kwargs, flow) -> dict:
    return {"rk4_steps": len(flow.ts) - 1}


def _write_info(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


EXTRACTORS = {
    "trajectory.iterate_orbit": _orbit_info,
    "trajectory.orbit_to_csv": _csv_info,
    "ode.integrate_flow": _flow_info,
    **{name: _write_info for name in WRITE_FUNCTIONS},
}


def layer_functions() -> dict[str, object]:
    """`module.function` -> function object, for every wrapped function."""
    found = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            name = f"{short}.{attr}"
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name not in UNWRAPPED:
                found[name] = obj
    return found


def _package_modules():
    return [
        mod
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == PACKAGE or modname.startswith(PACKAGE + "."))
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    originals = layer_functions()
    by_id = {id(fn): name for name, fn in originals.items()}
    wrappers = {name: tracer.wrap(name, fn, EXTRACTORS.get(name)) for name, fn in originals.items()}
    patches = []
    try:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                name = by_id.get(id(value))
                if name is not None and originals[name] is value:
                    setattr(mod, attr, wrappers[name])
                    patches.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in reversed(patches):
            setattr(mod, attr, value)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in kids]
        out.append((s.end - s.start) - _covered(clipped))
    return out


def tail_percentile(samples: list[float]) -> tuple[float | None, float]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond
    it (nearest rank), and its value.  With fewer than twenty samples no
    percentile qualifies: returns (None, max)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None, 0.0
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None, ordered[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], selfs: list[float]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced pass, and the details behind them
    (call counts, the percentile used for the tail, per-function self
    times)."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def busy(name: str) -> float:
        return sum(selfs[i] for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def info_sum(name: str, key: str) -> int:
        return sum(spans[i].info[key] for i in by_name.get(name, ()))

    m: dict[str, float] = {}
    orbit = "trajectory.iterate_orbit"
    infos = [spans[i].info for i in by_name.get(orbit, ())]
    durations_ms = [1e3 * (spans[i].end - spans[i].start) for i in by_name.get(orbit, ())]
    steps = [inf["steps"] for inf in infos]
    survival = [inf["steps"] for inf in infos if inf["verdict"] == "survival"]
    tail_pct, tail_ms = tail_percentile(durations_ms)
    rec_rows = sum(inf["rec_rows"] for inf in infos)
    rec_cap = sum(inf["rec_cap"] for inf in infos)
    m[f"{orbit}.calls"] = len(infos)
    m[f"{orbit}.steps"] = sum(steps)
    m[f"{orbit}.busy_s"] = busy(orbit)
    m[f"{orbit}.steps_per_s"] = _ratio(sum(steps), busy(orbit))
    m[f"{orbit}.steps_max"] = max(steps, default=0)
    m[f"{orbit}.call_p50_ms"] = statistics.median(durations_ms) if durations_ms else 0.0
    m[f"{orbit}.call_tail_ms"] = tail_ms
    m[f"{orbit}.survival_steps_mean"] = statistics.fmean(survival) if survival else 0.0
    m[f"{orbit}.exhausted_ratio"] = _ratio(sum(inf["verdict"] == "exhausted" for inf in infos), len(infos))
    m[f"{orbit}.rec_rows"] = rec_rows
    m[f"{orbit}.rec_use_ratio"] = _ratio(rec_rows, rec_cap)
    m[f"{orbit}.rec_alloc_mb"] = max((24 * inf["rec_cap"] / 1e6 for inf in infos), default=0.0)

    csv = "trajectory.orbit_to_csv"
    m[f"{csv}.busy_s"] = busy(csv)
    m[f"{csv}.rows"] = info_sum(csv, "rows")
    m[f"{csv}.rows_per_s"] = _ratio(m[f"{csv}.rows"], busy(csv))
    m["trajectory.iterate_general.busy_s"] = busy("trajectory.iterate_general")

    m["cli.self_s"] = busy(COMMAND_SPAN)

    top_writes = [
        i for name in WRITE_FUNCTIONS for i in by_name.get(name, ())
        if spans[i].parent is None or not spans[spans[i].parent].name.startswith("ioutil.")
    ]
    m["ioutil.write.calls"] = len(top_writes)
    m["ioutil.write.bytes"] = sum(spans[i].info["bytes"] for i in top_writes if spans[i].info)
    m["ioutil.write.busy_s"] = sum(busy(name) for name in WRITE_FUNCTIONS)

    flow = "ode.integrate_flow"
    m[f"{flow}.busy_s"] = busy(flow)
    m[f"{flow}.rk4_steps"] = info_sum(flow, "rk4_steps")
    m[f"{flow}.steps_per_s"] = _ratio(m[f"{flow}.rk4_steps"], busy(flow))

    for name in (
        "simplex.scan_periodic_points",
        "simplex.count_two_cycles_on_grid",
        "simplex.two_cycle_certificate",
        "simplex.check_interval_map_range",
        "spectral.find_fixed_points",
        "spectral.classify_origin",
    ):
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.calls"] = calls(name)

    for short in LAYER_MODULES:
        m[f"{short}.errors"] = sum(1 for s in spans if s.error and s.name.startswith(short + "."))
    m["model.validate_parameters.calls"] = calls("model.validate_parameters")

    details = {
        "iterate_orbit_tail_percentile": tail_pct,
        "iterate_orbit_calls": len(infos),
        "rec_use_ratio_note": "preallocated rows computed from OrbitConfig, not measured",
        "self_s_by_function": {name: busy(name) for name in sorted(by_name)},
        "calls_by_function": {name: calls(name) for name in sorted(by_name)},
    }
    return m, details


class LayerCoverageError(RuntimeError):
    """A layer function a workload exists to exercise was not reached."""


def require_layers(spans: list[Span], required: tuple[str, ...], workload: str) -> None:
    """Raise LayerCoverageError rather than report zeros for a layer the
    workload no longer reaches, or that is no longer a wrapped function
    (it moved, was renamed or was removed)."""
    wrapped = set(layer_functions())
    reached = {s.name for s in spans}
    missing = [name for name in required if name not in wrapped or name not in reached]
    if missing:
        raise LayerCoverageError(
            f"the traced run of {workload!r} never reached {', '.join(missing)}; "
            "update the layer list in bench_workloads.py"
        )


def installed_wrappers() -> list[str]:
    """`module.attribute` of every wrapper still installed in a loaded
    mosqdyn module; empty once `installed` has exited."""
    originals = {id(fn) for fn in layer_functions().values()}
    return [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if id(getattr(value, "__wrapped__", None)) in originals
    ]
