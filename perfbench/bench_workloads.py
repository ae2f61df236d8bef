"""Seeded workload generators.

Each workload is a fixed list of CLI invocations built from the seed
alone: the same seed gives the same argv, byte for byte.  The program
only ever sees the generated argv.  Output files go to `outdir`, which
the caller owns.

Ranges follow the README and the randomized trials of `certify`:
rates in (0, 1], |beta - mu| >= 0.01, start states uniform on [0, 10).
Where a workload narrows a range, the constant below says why.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Start states, as drawn by `certify --trials`.
START_RANGE = (0.0, 10.0)

# sweep: the README grid.  Alpha comes from the seed, in a +-0.025 band
# around the README's 0.6: one pass costs about 9% more per +0.1 of
# alpha (decision time of the survival cells), so a wider band would make
# the pass cost depend on the seed more than on the code.
SWEEP_ALPHA = (0.575, 0.625)
SWEEP_GRID = ("0.05", "1.0", "20")
SWEEP_RECORD_EVERY = 16

# battery: rates from the README grid range [0.05, 1], inside the trial
# range (0, 1].  The floor keeps every orbit decidable inside the default
# 1e6-step budget: survival takes about 1200 * sqrt(mu/alpha) / (beta - mu)
# steps, which is unbounded as alpha -> 0.
BATTERY_RATES = (0.05, 1.0)
BATTERY_MIN_GAP = 0.01
BATTERY_SETS_PER_SIDE = 24
# The strata of (alpha, gap, low rate) are paired by fixed permutations,
# so every seed visits the same cells of parameter space and only the
# position inside each cell moves.  This keeps the pass cost steady
# across seeds without leaving any part of the range out.
BATTERY_DESIGN_SEED = 20200707

# dump: the reference configurations of scripts/reference_runs.py and
# the tests, orbit CSV for all three, orbit JSON for one.
REFERENCE_CONFIGS = {
    "ref1": (0.6, 0.5, 0.48),
    "ref2": (0.4, 0.35, 0.3),
    "ref3": (0.9, 0.9, 0.88),
}
JSON_REFERENCE = "ref2"
# compare: the README example (reduced, beta < mu) and a general map
# with both larval mortality terms, over a long horizon.
COMPARE_CONFIGS = {
    "reduced": (0.5, 0.3, 0.6, 0.0, 0.0),
    "general": (0.5, 0.9, 0.3, 0.05, 0.01),
}
COMPARE_STEPS = 50_000
COMPARE_T_END = 500.0
COMPARE_DT = 0.01


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output check needs to know."""

    label: str
    argv: tuple[str, ...]
    kind: str
    params: dict = field(default_factory=dict)
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, str], list[Command]]
    # Layer functions this workload exists to exercise; the traced run
    # fails if one of them is never reached.
    layers: tuple[str, ...]
    # Span-name prefixes whose self time should be most of the command
    # time; the traced run reports their share.
    focus: tuple[str, ...]


def _num(v: float) -> str:
    return repr(float(v))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _start(rng: np.random.Generator) -> tuple[float, float]:
    x0, y0 = rng.uniform(*START_RANGE, size=2)
    return float(x0), float(y0)


def build_sweep(seed: int, outdir: str) -> list[Command]:
    rng = _rng(seed, 0)
    alpha = float(rng.uniform(*SWEEP_ALPHA))
    x0, y0 = _start(rng)
    out = os.path.join(outdir, "sweep.csv")
    argv = (
        "sweep",
        "--alpha-range", _num(alpha), _num(alpha), "1",
        "--beta-range", *SWEEP_GRID,
        "--mu-range", *SWEEP_GRID,
        "--x0", _num(x0), "--y0", _num(y0),
        "--record-every", str(SWEEP_RECORD_EVERY),
        "--out", out,
    )
    lo, hi, n = (float(v) for v in SWEEP_GRID)
    params = {"grid": np.linspace(lo, hi, int(n)).tolist()}
    return [Command("sweep", argv, "sweep", params, (out,))]


def battery_sets(seed: int) -> list[tuple[float, float, float, float, float]]:
    """(alpha, beta, mu, x0, y0) for the battery, extinction side first.

    Per side, (beta, mu) is uniform on the triangle lo <= low,
    low + gap_min <= high <= hi, stratified: the extra gap g beyond
    gap_min is drawn by inverting its marginal, which falls linearly,
    and `low` uniformly on what is left.  alpha is stratified on
    [lo, hi].  Extinction takes beta = low, survival beta = high.
    """
    lo, hi = BATTERY_RATES
    k = BATTERY_SETS_PER_SIDE
    span = hi - lo - BATTERY_MIN_GAP
    design = np.random.default_rng(BATTERY_DESIGN_SEED)
    rng = _rng(seed, 1)
    sets = []
    for survival in (False, True):
        perms = [design.permutation(k) for _ in range(3)]
        jitter = rng.random((k, 3))
        for i in range(k):
            ua, ug, ul = ((perms[d][i] + jitter[i, d]) / k for d in range(3))
            alpha = lo + (hi - lo) * ua
            g = span * (1.0 - math.sqrt(1.0 - ug))
            low = lo + ul * (span - g)
            high = low + BATTERY_MIN_GAP + g
            beta, mu = (high, low) if survival else (low, high)
            x0, y0 = _start(rng)
            sets.append((float(alpha), float(beta), float(mu), x0, y0))
    return sets


def build_battery(seed: int, outdir: str) -> list[Command]:
    cmds = []
    for i, (alpha, beta, mu, x0, y0) in enumerate(battery_sets(seed)):
        argv = (
            "certify",
            "--alpha", _num(alpha), "--beta", _num(beta), "--mu", _num(mu),
            "--x0", _num(x0), "--y0", _num(y0),
        )
        cmds.append(Command(f"certify-{i}", argv, "certify", {"beta": beta, "mu": mu}))
    return cmds


def build_dump(seed: int, outdir: str) -> list[Command]:
    rng = _rng(seed, 2)
    cmds = []
    for name, (alpha, beta, mu) in REFERENCE_CONFIGS.items():
        x0, y0 = _start(rng)
        base = (
            "simulate",
            "--alpha", _num(alpha), "--beta", _num(beta), "--mu", _num(mu),
            "--x0", _num(x0), "--y0", _num(y0),
        )
        params = {"alpha": alpha, "beta": beta, "mu": mu, "x0": x0, "y0": y0}
        csv_path = os.path.join(outdir, f"{name}.csv")
        cmds.append(
            Command(f"simulate-{name}-csv", base + ("--out", csv_path), "simulate-csv", params, (csv_path,))
        )
        if name == JSON_REFERENCE:
            json_path = os.path.join(outdir, f"{name}.json")
            cmds.append(
                Command(
                    f"simulate-{name}-json",
                    base + ("--format", "json", "--out", json_path),
                    "simulate-json",
                    dict(params, csv=csv_path),
                    (json_path,),
                )
            )
    for name, (alpha, beta, mu, d0, d1) in COMPARE_CONFIGS.items():
        x0, y0 = _start(rng)
        path = os.path.join(outdir, f"compare-{name}.csv")
        argv = (
            "compare",
            "--alpha", _num(alpha), "--beta", _num(beta), "--mu", _num(mu),
            "--d0", _num(d0), "--d1", _num(d1),
            "--x0", _num(x0), "--y0", _num(y0),
            "--steps", str(COMPARE_STEPS), "--t-end", _num(COMPARE_T_END), "--dt", _num(COMPARE_DT),
            "--out", path,
        )
        params = {"reduced": d0 == 0.0 and d1 == 0.0, "t_end": COMPARE_T_END, "dt": COMPARE_DT}
        cmds.append(Command(f"compare-{name}", argv, "compare", params, (path,)))
    return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "README 20x20 beta x mu sweep at stride 16: the orbit loop and survival detector do nearly all the work",
            build_sweep,
            ("trajectory.iterate_orbit", "spectral.classify_origin", "model.validate_parameters",
             "ioutil.atomic_write_lines"),
            ("trajectory.iterate_orbit",),
        ),
        Workload(
            "battery",
            "certify on 48 seeded sets split across beta<mu and beta>mu: the simplex and spectral scans dominate",
            build_battery,
            ("simplex.scan_periodic_points", "simplex.count_two_cycles_on_grid",
             "simplex.two_cycle_certificate", "simplex.check_interval_map_range",
             "spectral.find_fixed_points", "spectral.classify_origin", "trajectory.iterate_orbit",
             "trajectory.check_growth_lower_bound", "trajectory.check_decreasing_totals"),
            ("simplex.", "spectral."),
        ),
        Workload(
            "dump",
            "full-resolution orbits to CSV and JSON plus long compare runs: the write path and RK4 dominate",
            build_dump,
            ("trajectory.iterate_orbit", "trajectory.orbit_to_csv", "trajectory.iterate_general",
             "ode.integrate_flow", "ioutil.atomic_write_text", "ioutil.atomic_write_lines"),
            ("trajectory.orbit_to_csv", "cli.main", "ioutil."),
        ),
    )
}
