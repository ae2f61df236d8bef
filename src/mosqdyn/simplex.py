"""Dynamics of the reduced map projected onto the unit simplex.

Normalizing total population away turns the reduced map into a map U of
the simplex segment {x + y = 1, x, y >= 0}, and through the
parametrization (x, 1 - x) into a one-dimensional rational map of [0, 1]:

    T(x) = ((1 - beta) x^2 + (1 - alpha) x + beta)
           / ((mu - beta) x^2 + x + beta - mu + 1).

T fixes [0, 1]: with a(x) the numerator and b(x) the denominator,
b - a = (mu - 1) x^2 + alpha x + 1 - mu is nonnegative on [0, 1] (it is
concave there with endpoint values 1 - mu and alpha), a >= 0, b > 0.

Period-two points correspond to roots of the quadratic
A x^2 + B x + C in [0, 1] via the exact polynomial identity

    numerator(T(T(x)) - x) = -numerator(T(x) - x) * (A x^2 + B x + C),

which `two_cycle_certificate` re-verifies numerically on every call
before reporting the sign conditions (A + B + C < 0, B < 0, C < 0) that
exclude such roots.  Higher low periods are excluded by direct scan
(`scan_periodic_points`), and `check_two_cycle_reduction` certifies the
planar statement: a two-periodic point of the reduced map forces the
emergence term to equal (mu - 2) y, which is negative off the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import VerificationError
from .model import Mode, Parameters, State, _map, require_valid, step_reduced

__all__ = [
    "PeriodCertificate",
    "simplex_step",
    "interval_map",
    "interval_map_parts",
    "check_interval_map_range",
    "two_cycle_certificate",
    "scan_periodic_points",
    "check_two_cycle_reduction",
    "count_two_cycles_on_grid",
]

SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class PeriodCertificate:
    """Certificate describing periodic-point exclusion for one parameter
    set: the quadratic coefficients with their sign verdict, the range of
    periods scanned on the interval map, every root of T^q(x) = x found
    per period, and the roots that were not fixed points of T (must be
    empty; a non-empty list never reaches the caller, the scan raises)."""

    alpha: float
    beta: float
    mu: float
    quad_a: float
    quad_b: float
    quad_c: float
    signs_ok: bool
    scanned_periods: tuple[int, int]
    roots_by_period: Mapping[int, tuple[float, ...]] = field(default_factory=dict)
    spurious_roots: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "mu": self.mu,
            "quad_a": self.quad_a,
            "quad_b": self.quad_b,
            "quad_c": self.quad_c,
            "signs_ok": self.signs_ok,
            "scanned_periods": list(self.scanned_periods),
            "roots_by_period": {str(q): list(r) for q, r in sorted(self.roots_by_period.items())},
            "spurious_roots": list(self.spurious_roots),
        }


def simplex_step(p: Parameters, s: State) -> State:
    """One step of the induced simplex map U.  The state must satisfy
    x + y = 1 within 1e-12; the image does so exactly in real arithmetic
    and to roundoff here."""
    require_valid(p, Mode.REDUCED)
    x = s.x
    y = s.y
    if abs((x + y) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"state must lie on the unit simplex, got x + y = {x + y!r}")
    den = (1.0 + x) * (x + (p.beta - p.mu + 1.0) * y)
    if not den > 0.0:
        raise ValueError("simplex map denominator vanished; state outside its domain")
    nx = ((1.0 + x) * (x + p.beta * y) - p.alpha * x) / den
    ny = (p.alpha * x + (1.0 + x) * ((1.0 - p.mu) * y)) / den
    return State(nx, ny)


def interval_map_parts(p: Parameters, x):
    """Numerator and denominator polynomials of T, evaluated at x
    (scalar or array): a(x) = (1-beta) x^2 + (1-alpha) x + beta,
    b(x) = (mu-beta) x^2 + x + (beta - mu + 1)."""
    a = ((1.0 - p.beta) * x) * x + (1.0 - p.alpha) * x + p.beta
    b = ((p.mu - p.beta) * x) * x + x + (p.beta - p.mu + 1.0)
    return a, b


def interval_map(p: Parameters, x):
    """The one-dimensional simplex coordinate map T on [0, 1].
    Accepts scalars or numpy arrays."""
    a, b = interval_map_parts(p, x)
    return a / b


def check_interval_map_range(p: Parameters, grid_n: int = 2001) -> bool:
    """Verify numerically that T maps [0, 1] into itself.

    Two routes to the gap polynomial h = b - a are compared: the direct
    difference and the closed form (mu - 1) x^2 + alpha x + (1 - mu);
    both must be nonnegative on the grid and agree, the endpoint values
    must equal 1 - mu and alpha to 1e-14, likewise T(0) = beta/(beta-mu+1)
    and T(1) = (2 - alpha)/2, and a >= 0, b > 0, T(x) in [0, 1]
    throughout (1e-12 slack on the inequalities).
    """
    require_valid(p, Mode.REDUCED)
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    xs = np.linspace(0.0, 1.0, grid_n)
    a, b = interval_map_parts(p, xs)
    h_direct = b - a
    h_closed = ((p.mu - 1.0) * xs) * xs + p.alpha * xs + (1.0 - p.mu)
    t = a / b
    checks = [
        bool(np.all(a >= -1e-12)),
        bool(np.all(b > 0.0)),
        bool(np.all(h_direct >= -1e-12)),
        bool(np.all(h_closed >= -1e-12)),
        bool(np.max(np.abs(h_direct - h_closed)) <= 1e-10),
        abs(float(h_closed[0]) - (1.0 - p.mu)) <= 1e-14,
        abs(float(h_closed[-1]) - p.alpha) <= 1e-14,
        abs(float(t[0]) - p.beta / (p.beta - p.mu + 1.0)) <= 1e-14,
        abs(float(t[-1]) - (2.0 - p.alpha) / 2.0) <= 1e-14,
        bool(np.all(t >= -1e-12)),
        bool(np.all(t <= 1.0 + 1e-12)),
    ]
    return all(checks)


def _two_cycle_coefficients(p: Parameters) -> tuple[float, float, float]:
    b = p.beta
    m = p.mu
    a = p.alpha
    qa = (1.0 - b) * (b - 2.0) + (b - m + 1.0) * (b - m)
    qb = (b - 2.0) * (b - m - a + 2.0) - b * (b - m)
    qc = (b - m + 1.0) * (a + m - b - 2.0) + b * (b - 1.0)
    return qa, qb, qc


def _verify_two_cycle_reduction_identity(
    p: Parameters, qa: float, qb: float, qc: float, n_sample: int = 33, rel_tol: float = 1e-9
) -> None:
    # numerator(T(T(x)) - x) must equal -numerator(T(x) - x) * (qa x^2 + qb x + qc)
    # exactly as polynomials; spot-check the identity pointwise before
    # trusting the quadratic.  The leading minus sign matters.
    xs = np.linspace(0.0, 1.0, n_sample)
    a1, b1 = interval_map_parts(p, xs)
    a2 = ((1.0 - p.beta) * a1) * a1 + ((1.0 - p.alpha) * a1) * b1 + p.beta * (b1 * b1)
    b2 = ((p.mu - p.beta) * a1) * a1 + a1 * b1 + (p.beta - p.mu + 1.0) * (b1 * b1)
    lhs = a2 - xs * b2
    quad = (qa * xs + qb) * xs + qc
    rhs = -(a1 - xs * b1) * quad
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    err = np.max(np.abs(lhs - rhs) / scale)
    if err > rel_tol:
        raise VerificationError(
            "two-cycle reduction identity failed: max relative residual "
            f"{err:.3e} at alpha={p.alpha}, beta={p.beta}, mu={p.mu}"
        )


def two_cycle_certificate(p: Parameters) -> PeriodCertificate:
    """Quadratic certificate excluding period-two points on the simplex.

    Computes A, B, C, re-verifies the reduction identity they come from
    (VerificationError on mismatch), and reports signs_ok = (A+B+C < 0
    and B < 0 and C < 0).  Those signs keep the quadratic negative on
    all of [0, 1]: the endpoint values are C and A + B + C, both
    negative; for A >= 0 the parabola is convex so its maximum on the
    interval sits at an endpoint, and for A < 0 the vertex -B/(2A) lies
    left of 0 (B < 0), making the parabola decreasing across [0, 1].
    No root, hence no period-two point.
    """
    require_valid(p, Mode.REDUCED)
    qa, qb, qc = _two_cycle_coefficients(p)
    _verify_two_cycle_reduction_identity(p, qa, qb, qc)
    signs_ok = (qa + qb + qc < 0.0) and (qb < 0.0) and (qc < 0.0)
    return PeriodCertificate(
        alpha=p.alpha,
        beta=p.beta,
        mu=p.mu,
        quad_a=qa,
        quad_b=qb,
        quad_c=qc,
        signs_ok=signs_ok,
        scanned_periods=(2, 2),
        roots_by_period={},
        spurious_roots=(),
    )


def _iterate_interval_scalar(p: Parameters, x: float, q: int) -> float:
    for _ in range(q):
        a, b = interval_map_parts(p, x)
        x = a / b
    return x


def _bisect_root(p: Parameters, q: int, lo: float, hi: float, flo: float, width: float = 1e-12) -> float:
    # f(x) = T^q(x) - x, sign change certified on [lo, hi]
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fmid = _iterate_interval_scalar(p, mid, q) - mid
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_periodic_points(p: Parameters, p_max: int = 8, grid_n: int = 10_000) -> PeriodCertificate:
    """Scan T^q(x) = x for q = 2..p_max on [0, 1] and certify that every
    root is an ordinary fixed point of T.

    Grid sign changes of T^q(x) - x are refined by bisection to width
    1e-12; a refined root r with |T(r) - r| >= 1e-10 would witness a
    genuine q-periodic point and raises VerificationError.  Returns the
    certificate carrying per-period root lists (every root found so far
    has been a fixed point of T, as the theory demands for q = 2 and the
    scan observes for the rest).
    """
    require_valid(p, Mode.REDUCED)
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    base = two_cycle_certificate(p)
    xs = np.linspace(0.0, 1.0, grid_n)
    cur = xs.copy()
    roots_by_period: dict[int, tuple[float, ...]] = {}
    spurious: list[float] = []
    for q in range(1, p_max + 1):
        a, b = interval_map_parts(p, cur)
        cur = a / b
        if q < 2:
            continue
        diff = cur - xs
        roots: list[float] = []
        exact = np.nonzero(np.abs(diff) < 1e-13)[0]
        roots.extend(float(xs[i]) for i in exact)
        sign = diff > 0.0
        flip = np.nonzero((sign[:-1] != sign[1:]) & (np.abs(diff[:-1]) >= 1e-13) & (np.abs(diff[1:]) >= 1e-13))[0]
        for i in flip:
            roots.append(_bisect_root(p, q, float(xs[i]), float(xs[i + 1]), float(diff[i])))
        dedup: list[float] = []
        for r in sorted(roots):
            if not dedup or r - dedup[-1] > 1e-9:
                dedup.append(r)
        for r in dedup:
            if abs(interval_map(p, r) - r) >= 1e-10:
                spurious.append(r)
        roots_by_period[q] = tuple(dedup)
    if spurious:
        raise VerificationError(
            f"periodic-point scan found roots that are not fixed points of the interval map: "
            f"{[round(r, 12) for r in spurious]} (alpha={p.alpha}, beta={p.beta}, mu={p.mu})"
        )
    return PeriodCertificate(
        alpha=p.alpha,
        beta=p.beta,
        mu=p.mu,
        quad_a=base.quad_a,
        quad_b=base.quad_b,
        quad_c=base.quad_c,
        signs_ok=base.signs_ok,
        scanned_periods=(2, p_max),
        roots_by_period=roots_by_period,
        spurious_roots=tuple(spurious),
    )


def check_two_cycle_reduction(p: Parameters, s: State, periodic_tol: float = 1e-10) -> bool:
    """Certify the planar two-cycle exclusion at a single state.

    If s is not two-periodic for the reduced map (residual of the second
    iterate >= periodic_tol), there is nothing to check and the answer
    is vacuously True.  If it is two-periodic, the pair equations force
    the emergence term alpha*x/(1+x), which is nonnegative, to equal
    (mu - 2)*y, which is negative unless y = 0; the only consistent
    state is the origin.  A two-periodic state away from the origin
    raises VerificationError.
    """
    require_valid(p, Mode.REDUCED)
    s2 = step_reduced(p, step_reduced(p, s))
    if max(abs(s2.x - s.x), abs(s2.y - s.y)) >= periodic_tol:
        return True
    if max(abs(s.x), abs(s.y)) < 1e-8:
        return True
    raise VerificationError(
        f"two-periodic state away from the origin: ({s.x!r}, {s.y!r}) "
        f"at alpha={p.alpha}, beta={p.beta}, mu={p.mu}"
    )


def count_two_cycles_on_grid(
    p: Parameters,
    x_max: float = 5.0,
    y_max: float = 5.0,
    n: int = 500,
    residual_tol: float = 1e-10,
    origin_radius: float = 1e-8,
) -> int:
    """Count grid states in [0, x_max] x [0, y_max] whose second iterate
    under the reduced map returns to them within residual_tol, excluding
    the origin ball.  Expected 0 for admissible rates."""
    require_valid(p, Mode.REDUCED)
    xs = np.linspace(0.0, x_max, n)
    ys = np.linspace(0.0, y_max, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mx, my = _map(p, *_map(p, gx, gy))
    res = np.maximum(np.abs(mx - gx), np.abs(my - gy))
    off_origin = np.maximum(np.abs(gx), np.abs(gy)) > origin_radius
    return int(np.count_nonzero((res < residual_tol) & off_origin))
