"""Verdict-level checks, each decided in one place and returned as data
for the command line interface and the scripts to print and write.

* `expected_fate`: the dichotomy, extinction for beta < mu and survival
  for beta > mu; `thresholds_agree` holds the flow's r0 threshold to it.
* `sweep`: classify and simulate every cell of a rate grid, each orbit
  stopped at its survival certificate (`iterate_orbit`'s
  `stop_at_certificate`).  A cell agrees when its orbit is accepted and
  the origin is attracting for beta < mu, a saddle or repeller for
  beta > mu; a nonhyperbolic origin counts as disagreement.
* `run_certificates`: the certificate battery for one parameter set, each
  certificate re-deriving a statement of the theory by an independent
  route; `run_trials` adds cheaper checks on random rates.

All three hold their orbits to one acceptance rule (`_orbit_accepted`):
the verdict is the fate expected from the start, and the online monitors
saw no adult-bound or pattern violation and no identity residual beyond
a few ulps of the largest total.  The start at the origin, a fixed point
in either regime, is expected to end in extinction whatever the rates.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import VerificationError
from .ioutil import fmt
from .model import Mode, Parameters, State, validate_parameters
from .ode import offspring_number
from .simplex import (
    check_interval_map_range,
    count_two_cycles_on_grid,
    scan_periodic_points,
    two_cycle_certificate,
)
from .spectral import (
    Classification,
    classify_origin,
    find_fixed_points,
    stability_inequalities,
)
from .trajectory import (
    Orbit,
    OrbitConfig,
    Verdict,
    check_decreasing_totals,
    check_growth_lower_bound,
    iterate_orbit,
)

__all__ = [
    "Certificate",
    "SweepCell",
    "SWEEP_CSV_HEADER",
    "expected_fate",
    "sweep",
    "run_certificates",
    "run_trials",
    "thresholds_agree",
]

SWEEP_CSV_HEADER = "alpha,beta,mu,d0,d1,in_condition,classification,verdict,n_steps,y_limit_estimate,agree"


def expected_fate(p: Parameters) -> tuple[str, str]:
    """The dichotomy's prediction from the rates alone, as
    (rate comparison, fate): ("beta<mu", "extinction"),
    ("beta>mu", "survival") or ("beta=mu", "none")."""
    if p.beta < p.mu:
        return ("beta<mu", Verdict.EXTINCTION.value)
    if p.beta > p.mu:
        return ("beta>mu", Verdict.SURVIVAL.value)
    return ("beta=mu", "none")


def thresholds_agree(p: Parameters) -> bool:
    """Whether the flow's threshold (r0 > 1) and the map's dichotomy
    (beta > mu) point the same way; with no larval mortality r0 = beta/mu,
    so for the reduced map they must."""
    return (offspring_number(p) > 1.0) == (expected_fate(p)[1] == Verdict.SURVIVAL.value)


def _orbit_accepted(p: Parameters, s0: State, orbit: Orbit) -> bool:
    """The orbit acceptance rule: the verdict is the expected fate from
    s0, and the monitors are clean, the total-increment residual held to
    a few ulps of the largest total (x + y is monotone along the orbit,
    so that total is the first or the last one), floored at 1e-9."""
    fate = Verdict.EXTINCTION.value if s0.x == 0.0 and s0.y == 0.0 else expected_fate(p)[1]
    mon = orbit.monitors
    total = max(1.0, s0.x + s0.y, float(orbit.xs[-1]) + float(orbit.ys[-1]))
    return (
        orbit.verdict.value == fate
        and mon.y_bound_violations == 0
        and mon.pattern_violations == 0
        and mon.sum_identity_max_err <= max(1e-9, 8 * sys.float_info.epsilon * total)
    )


# ---------------------------------------------------------------- sweep


@dataclass(frozen=True)
class SweepCell:
    """One grid cell.  `classification` is "" where the rates admit no
    origin linearization.  Cells outside the reduced condition are not
    simulated: their verdict, n_steps, y_limit_estimate and agree are
    None."""

    params: Parameters
    classification: str
    verdict: str | None = None
    n_steps: int | None = None
    y_limit_estimate: float | None = None
    agree: bool | None = None

    @property
    def in_condition(self) -> bool:
        return self.verdict is not None

    def csv_row(self) -> str:
        """The cell as one row under SWEEP_CSV_HEADER."""
        p = self.params
        sim = ",,," if self.verdict is None else (
            f"{self.verdict},{self.n_steps},{fmt(self.y_limit_estimate)},{'true' if self.agree else 'false'}"
        )
        return (
            f"{fmt(p.alpha)},{fmt(p.beta)},{fmt(p.mu)},{fmt(p.d0)},{fmt(p.d1)},"
            f"{'true' if self.in_condition else 'false'},{self.classification},{sim}"
        )


def sweep(
    alphas: Iterable[float],
    betas: Iterable[float],
    mus: Iterable[float],
    s0: State,
    config: OrbitConfig,
    tol: float = 1e-9,
) -> list[SweepCell]:
    """Classify the origin (unit-circle tolerance `tol`) and simulate the
    orbit from s0 on every cell of alphas x betas x mus, mu varying
    fastest.  A tolerance that is not positive is rejected before any
    cell runs."""
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    cells = []
    for a in alphas:
        for b in betas:
            for m in mus:
                p = Parameters(float(a), float(b), float(m))
                in_cond = validate_parameters(p, Mode.REDUCED).valid
                try:
                    cls = classify_origin(p, tol=tol).classification.value
                except ValueError:
                    cls = ""
                if not in_cond:
                    cells.append(SweepCell(p, cls))
                    continue
                orbit = iterate_orbit(p, s0, config, stop_at_certificate=True)
                cls_ok = (
                    cls == Classification.ATTRACTING.value
                    if p.beta < p.mu
                    else cls in (Classification.SADDLE.value, Classification.REPELLING.value)
                )
                ok = cls_ok and _orbit_accepted(p, s0, orbit)
                cells.append(SweepCell(p, cls, orbit.verdict.value, orbit.n_steps, orbit.y_limit_estimate, ok))
    return cells


# ------------------------------------------------------------ certificates


class Certificate(NamedTuple):
    name: str
    ok: bool
    detail: str


def run_certificates(p: Parameters, s0: State, config: OrbitConfig, p_max: int, grid: int) -> list[Certificate]:
    """The certificate battery for one reduced-map parameter set: the
    spectral and periodic-point certificates, the orbit from s0 under
    `config` with its monitors, and the growth or contraction certificate
    matching its verdict.  `p_max` and `grid` size the interval-map scan."""
    results: list[Certificate] = []

    rep = classify_origin(p)
    l1, l2 = rep.lambda1, rep.lambda2
    numeric = np.linalg.eigvals(np.asarray(rep.jacobian))
    numeric = np.sort(numeric.real)[::-1]
    eig_err = max(abs(l1 - numeric[0]), abs(l2 - numeric[1]))
    vieta_sum = abs((l1 + l2) - (2.0 - p.alpha - p.mu))
    vieta_prod = abs(l1 * l2 - ((1.0 - p.alpha) * (1.0 - p.mu) - p.alpha * p.beta))
    ok = eig_err <= 1e-12 and vieta_sum <= 1e-12 and vieta_prod <= 1e-12
    results.append(
        Certificate("spectral-agreement", ok, f"eig_err={eig_err:.2e} vieta=({vieta_sum:.2e},{vieta_prod:.2e})")
    )

    both = all(stability_inequalities(p))
    ok = both == (rep.classification is Classification.ATTRACTING)
    results.append(Certificate("stability-equivalence", ok, f"classification={rep.classification.value}"))

    ok = check_interval_map_range(p)
    results.append(Certificate("interval-map-range", ok, "T([0,1]) within [0,1]"))

    try:
        cert = two_cycle_certificate(p)
        ok = cert.signs_ok
        detail = f"A={cert.quad_a:.6g} B={cert.quad_b:.6g} C={cert.quad_c:.6g}"
    except VerificationError as exc:
        ok, detail = False, str(exc)
    results.append(Certificate("two-cycle-signs", ok, detail))

    try:
        roots_by_period = scan_periodic_points(p, p_max=p_max, grid_n=grid)
        n_roots = sum(len(r) for r in roots_by_period.values())
        ok, detail = True, f"periods 2..{p_max}: {n_roots} roots, all fixed points"
    except VerificationError as exc:
        ok, detail = False, str(exc)
    results.append(Certificate("periodic-scan", ok, detail))

    n_cycles = count_two_cycles_on_grid(p)
    results.append(Certificate("two-cycle-grid", n_cycles == 0, f"{n_cycles} non-origin period-two cells"))

    try:
        find_fixed_points(p)
        ok, detail = True, "origin only"
    except VerificationError as exc:
        ok, detail = False, str(exc)
    results.append(Certificate("fixed-point-scan", ok, detail))

    orbit = iterate_orbit(p, s0, config)
    mon = orbit.monitors
    results.append(
        Certificate(
            "orbit-dichotomy",
            _orbit_accepted(p, s0, orbit),
            f"verdict={orbit.verdict.value} n={orbit.n_steps} "
            f"y_bound={mon.y_bound_violations} patterns={mon.pattern_violations} "
            f"sum_err={mon.sum_identity_max_err:.2e}",
        )
    )

    if p.beta > p.mu and orbit.verdict is Verdict.SURVIVAL:
        onset = mon.monotone_onset_estimate
        # the bound needs adults at its anchor, which an orbit started
        # on the x-axis lacks until its first step
        anchor = max(onset, int(orbit.steps[np.argmax(orbit.ys > 0.0)]))
        try:
            ok = check_growth_lower_bound(orbit, anchor)
            detail = f"anchored at onset {onset}"
            if anchor != onset:
                detail = f"anchored at step {anchor}, the first with adults"
        except ValueError as exc:
            ok, detail = False, str(exc)
        results.append(Certificate("growth-lower-bound", ok, detail))
    elif p.beta < p.mu and orbit.verdict is Verdict.EXTINCTION:
        ok = check_decreasing_totals(orbit)
        results.append(Certificate("decreasing-totals", ok, "x+y and (mu/beta)x+y nonincreasing"))

    return results


def run_trials(n_trials: int, seed: int, config: OrbitConfig) -> list[Certificate]:
    """`n_trials` randomized checks, `trial-1` onward, drawn from `seed`:
    rates uniform on (0, 1] with abs(beta - mu) > 0.01 and a start in
    [0, 10)^2, each checked by the two-cycle signs, the interval-map
    range, a short periodic scan and its orbit under `config`, stopped at
    its survival certificate."""
    rng = np.random.default_rng(seed)
    results: list[Certificate] = []
    for i in range(n_trials):
        while True:
            a, b, m = 1.0 - rng.random(3)
            if abs(b - m) > 0.01:
                break
        p = Parameters(float(a), float(b), float(m))
        s0 = State(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0)))
        try:
            cert = two_cycle_certificate(p)
            range_ok = check_interval_map_range(p, grid_n=201)
            scan_periodic_points(p, p_max=4, grid_n=2001)
            orbit = iterate_orbit(p, s0, config, stop_at_certificate=True)
            ok = cert.signs_ok and range_ok and _orbit_accepted(p, s0, orbit)
            detail = (
                f"alpha={p.alpha:.6g} beta={p.beta:.6g} mu={p.mu:.6g} "
                f"verdict={orbit.verdict.value} n={orbit.n_steps}"
            )
        except VerificationError as exc:
            ok, detail = False, str(exc)
        results.append(Certificate(f"trial-{i + 1}", ok, detail))
    return results
