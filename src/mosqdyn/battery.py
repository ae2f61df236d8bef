"""Verdict-level checks, each decided in one place and returned as data
for the command line interface and the scripts to print and write.

* `expected_fate`: the dichotomy, extinction for beta < mu and survival
  for beta > mu; `thresholds_agree` holds the flow's r0 threshold to it.
* `sweep`: classify and simulate every cell of a rate grid, each orbit
  stopped at its survival certificate (`iterate_orbit`'s
  `stop_at_certificate`).  A cell agrees when its orbit is accepted and
  the origin is attracting exactly when beta < mu: lambda1's side of 1,
  as the sign of p(1) = alpha (mu - beta) decides it, since on the box
  beta < mu forces p(-1) > 0 (`spectral.classify_origin`).  A
  nonhyperbolic origin with beta > mu, lambda2 = -1, agrees.
* `run_certificates`: the certificate battery for one parameter set, each
  certificate re-deriving a statement of the theory by an independent
  route.  Its orbit stops at its survival certificate too, and the adult
  limit is proved from the state there (`adult_limit_step`).
  `run_trials` runs the same battery on random rates and starts.

All three hold their orbits to one acceptance rule (`_orbit_accepted`),
which reads the orbit alone: the verdict is the fate expected from the
start, and the online monitors saw no adult-bound or pattern violation
and no identity residual beyond a few ulps of the largest total.  The
start at the origin, a fixed point in either regime, is expected to end
in extinction whatever the rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import VerificationError
from .ioutil import fmt
from .model import Mode, Parameters, State, _slack, validate_parameters
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
    CONV_TOL,
    Orbit,
    OrbitConfig,
    Verdict,
    adult_limit_step,
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


def _orbit_accepted(orbit: Orbit) -> bool:
    """The orbit acceptance rule: the verdict is the fate expected from
    the orbit's start, and the monitors are clean, the total-increment
    residual held to a few ulps of the largest total (x + y is monotone,
    so that total is the first or the last one), floored at 1e-9."""
    x0, y0 = float(orbit.xs[0]), float(orbit.ys[0])
    fate = Verdict.EXTINCTION.value if x0 == 0.0 and y0 == 0.0 else expected_fate(orbit.params)[1]
    mon = orbit.monitors
    total = max(x0 + y0, float(orbit.xs[-1]) + float(orbit.ys[-1]))
    return (
        orbit.verdict.value == fate
        and mon.y_bound_violations == 0
        and mon.pattern_violations == 0
        and mon.sum_identity_max_err <= _slack(total, 1e-9)
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
) -> list[SweepCell]:
    """Classify the origin and simulate the orbit from s0 on every cell
    of alphas x betas x mus, mu varying fastest."""
    cells = []
    for a in alphas:
        for b in betas:
            for m in mus:
                p = Parameters(float(a), float(b), float(m))
                in_cond = validate_parameters(p, Mode.REDUCED).valid
                try:
                    cls = classify_origin(p).classification.value
                except ValueError:
                    cls = ""
                if not in_cond:
                    cells.append(SweepCell(p, cls))
                    continue
                orbit = iterate_orbit(p, s0, config, stop_at_certificate=True)
                ok = (cls == Classification.ATTRACTING.value) == (p.beta < p.mu) and _orbit_accepted(orbit)
                cells.append(SweepCell(p, cls, orbit.verdict.value, orbit.n_steps, orbit.y_limit_estimate, ok))
    return cells


# ------------------------------------------------------------ certificates


class Certificate(NamedTuple):
    name: str
    ok: bool
    detail: str


def run_certificates(p: Parameters, s0: State, config: OrbitConfig) -> tuple[list[Certificate], Orbit]:
    """The certificate battery for one reduced-map parameter set: the
    spectral and periodic-point certificates, the orbit from s0 under
    `config` with its monitors, stopped at its survival certificate, and
    the growth or contraction certificate matching its verdict.  Where the
    orbit ends in the both-up region, `adult-limit` reports the step from
    which the adult count is proved within CONV_TOL of alpha/mu.  The rate
    certificates after `spectral-agreement` run in one loop, in which one
    that raises VerificationError fails alone, with the message as its
    detail.  Returns the certificates and the orbit."""
    results: list[Certificate] = []

    rep = classify_origin(p)
    l1, l2 = rep.lambda1, rep.lambda2
    numeric = np.linalg.eigvals(np.asarray(rep.jacobian))
    numeric = np.sort(numeric.real)[::-1]
    eig_err = max(abs(l1 - numeric[0]), abs(l2 - numeric[1]))
    vieta_sum = abs((l1 + l2) - (2.0 - p.alpha - p.mu))
    vieta_prod = abs(l1 * l2 - ((1.0 - p.alpha) * (1.0 - p.mu) - p.alpha * p.beta))
    # the residuals cancel terms of the eigenvalues' size, the product
    # terms of size alpha*beta, so their rounding grows with those
    scale = max(1.0, abs(l1), abs(l2))
    ok = eig_err <= 1e-12 * scale and vieta_sum <= 1e-12 * scale and vieta_prod <= 1e-12 * max(1.0, p.alpha * p.beta)
    results.append(
        Certificate("spectral-agreement", ok, f"eig_err={eig_err:.2e} vieta=({vieta_sum:.2e},{vieta_prod:.2e})")
    )

    attracting = rep.classification is Classification.ATTRACTING
    for name, scan, judge in (
        ("stability-equivalence", stability_inequalities,
         lambda ineqs: (all(ineqs) == attracting, f"classification={rep.classification.value}")),
        ("interval-map-range", check_interval_map_range, lambda ok: (ok, "T([0,1]) within [0,1]")),
        ("two-cycle-signs", two_cycle_certificate,
         lambda c: (c.signs_ok, f"A={c.quad_a:.6g} B={c.quad_b:.6g} C={c.quad_c:.6g}")),
        ("periodic-scan", scan_periodic_points,
         lambda roots: (True, f"periods 2..{max(roots)}: {sum(map(len, roots.values()))} roots, all fixed points")),
        ("two-cycle-grid", count_two_cycles_on_grid, lambda n: (n == 0, f"{n} non-origin period-two cells")),
        ("fixed-point-scan", find_fixed_points, lambda _: (True, "origin only")),
    ):
        try:
            ok, detail = judge(scan(p))
        except VerificationError as exc:
            ok, detail = False, str(exc)
        results.append(Certificate(name, ok, detail))

    orbit = iterate_orbit(p, s0, config, stop_at_certificate=True)
    mon = orbit.monitors
    results.append(
        Certificate(
            "orbit-dichotomy",
            _orbit_accepted(orbit),
            f"verdict={orbit.verdict.value} n={orbit.n_steps} "
            f"y_bound={mon.y_bound_violations} patterns={mon.pattern_violations} "
            f"sum_err={mon.sum_identity_max_err:.2e}",
        )
    )

    if p.beta > p.mu and orbit.verdict is Verdict.SURVIVAL:
        detail = f"anchored at onset {mon.monotone_onset_estimate}"
        results.append(Certificate("growth-lower-bound", check_growth_lower_bound(orbit), detail))
        onset = adult_limit_step(orbit)
        if onset is not None:
            detail = f"|y_n - alpha/mu| < {CONV_TOL:g} for n >= {onset} (proved from R at step {orbit.n_steps})"
            results.append(Certificate("adult-limit", True, detail))
    elif p.beta < p.mu and orbit.verdict is Verdict.EXTINCTION:
        detail = "x+y and (mu/beta)x+y nonincreasing"
        results.append(Certificate("decreasing-totals", check_decreasing_totals(orbit), detail))

    return results, orbit


def run_trials(n_trials: int, seed: int, config: OrbitConfig) -> list[Certificate]:
    """`n_trials` randomized batteries, `trial-1` onward, drawn from `seed`:
    rates uniform on (0, 1] with abs(beta - mu) > 0.01 and a start in
    [0, 10)^2, each put through `run_certificates` under `config`.  A
    trial passes when every certificate does; its detail names the rates,
    the orbit's verdict and length, and any certificates that failed."""
    rng = np.random.default_rng(seed)
    results: list[Certificate] = []
    for i in range(n_trials):
        while True:
            a, b, m = 1.0 - rng.random(3)
            if abs(b - m) > 0.01:
                break
        p = Parameters(float(a), float(b), float(m))
        s0 = State(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0)))
        certificates, orbit = run_certificates(p, s0, config)
        failed = ",".join(c.name for c in certificates if not c.ok)
        detail = (
            f"alpha={p.alpha:.6g} beta={p.beta:.6g} mu={p.mu:.6g} "
            f"verdict={orbit.verdict.value} n={orbit.n_steps}" + (f" failed={failed}" if failed else "")
        )
        results.append(Certificate(f"trial-{i + 1}", not failed, detail))
    return results
