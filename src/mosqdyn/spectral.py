"""Fixed-point structure of the reduced map near the extinction state.

The linearization of the reduced map at (0, 0) is

    J = [[1 - alpha, beta],
         [alpha,     1 - mu]]

with real eigenvalues

    lambda_{1,2} = (2 - alpha - mu +- sqrt((alpha - mu)^2 + 4 alpha beta)) / 2,

always distinct since alpha*beta > 0.  The root is computed as twice
sqrt(((alpha - mu)/2)^2 + alpha beta), the same double wherever the
textbook form is finite, and finite up to beta = DBL_MAX.

`classify_origin` is the one entry point for J, its two eigenvalues and
the origin's label, returned together in a `SpectralReport`.  It decides
the origin's stability by the Jury (Schur-Cohn) test for a 2x2 map
(E. I. Jury, 1964), on the characteristic polynomial p(z) = det(zI - J):

    p(1)  = alpha (mu - beta),
    p(-1) = (2 - alpha)(2 - mu) - alpha beta.

On the admissible box lambda1 > 0 and lambda2 < 1, so the sign of p(1)
says on which side of 1 lambda1 lies, and the sign of p(-1) on which
side of -1 lambda2 lies (`tests/test_proofs.py`).  Both signs are exact:
the first is the float comparison of mu with beta, the second a float
evaluation, redone in `model._EXACT` inside its rounding band.  The
sign of beta - mu thus decides the local picture: the origin attracts
for beta < mu, and loses hyperbolicity exactly at beta = mu, where
lambda1 = 1.

`find_fixed_points` checks numerically that the reduced map has no
fixed point besides the origin in the strip [0, 50] x [0, inf), by a
scan along the adult nullcline y = e/mu, where the larval increment is
(beta/mu - 1) e.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import VerificationError
from .model import Mode, Parameters, State, _EXACT, _exact, _field, _slack, require_valid

__all__ = [
    "Classification",
    "SpectralReport",
    "classify_origin",
    "stability_inequalities",
    "find_fixed_points",
]


class Classification(str, Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NONHYPERBOLIC = "nonhyperbolic"


@dataclass(frozen=True)
class SpectralReport:
    """Jacobian at the origin, its eigenvalues (lambda1 >= lambda2, both
    real), and the resulting classification."""

    jacobian: tuple[tuple[float, float], tuple[float, float]]
    lambda1: float
    lambda2: float
    classification: Classification


def _require_linearizable(p: Parameters) -> None:
    # Classification works for the whole zero-larval-mortality family,
    # including beta == mu (reported as nonhyperbolic), so this is weaker
    # than reduced-mode validity.
    require_valid(p, Mode.GENERAL)
    if p.d0 != 0.0 or p.d1 != 0.0:
        raise ValueError(
            "origin linearization implemented for the zero-larval-mortality family only"
            f" (got d0={p.d0}, d1={p.d1})"
        )


def _half_root(p: Parameters) -> float:
    # sqrt((alpha - mu)^2 + 4 alpha beta) / 2 with every term scaled by a
    # power of two, so the same double wherever that form is finite;
    # alpha beta <= DBL_MAX for alpha <= 1, so this one never overflows
    return math.sqrt(((p.alpha - p.mu) / 2.0) ** 2 + p.alpha * p.beta)


def _at_minus_one(p):
    # p(-1) = det(-I - J), with integer literals so that it evaluates
    # alike in floats, decimals and sympy
    return (2 - p.alpha) * (2 - p.mu) - p.alpha * p.beta


def _sign_at_minus_one(p: Parameters) -> int:
    """The exact sign of p(-1) on the float rates: -1, 0 or 1.

    Rounding moves the float value by less than three ulps of
    max(4, alpha beta), which bounds both terms it cancels, so outside
    `_slack` of that its sign is exact; inside, p(-1) is evaluated in
    `_EXACT`.
    """
    v = _at_minus_one(p)
    if abs(v) <= _slack(max(4.0, p.alpha * p.beta), 0.0):
        with decimal.localcontext(_EXACT):
            v = _at_minus_one(_exact(p))
    return (v > 0) - (v < 0)


def classify_origin(p: Parameters) -> SpectralReport:
    """J, its eigenvalues in closed form (descending), and the origin's
    label, decided by the exact signs of p(1) and p(-1).

    Both positive is attracting, both negative repelling, either zero
    nonhyperbolic (beta = mu gives p(1) = 0: lambda1 = 1), one of each a
    saddle.
    """
    _require_linearizable(p)
    jacobian = ((1.0 - p.alpha, p.beta), (p.alpha, 1.0 - p.mu))
    half_trace = (2.0 - p.alpha - p.mu) / 2.0
    half_root = _half_root(p)
    signs = ((p.mu > p.beta) - (p.mu < p.beta), _sign_at_minus_one(p))
    if 0 in signs:
        cls = Classification.NONHYPERBOLIC
    elif signs[0] != signs[1]:
        cls = Classification.SADDLE
    else:
        cls = Classification.ATTRACTING if signs[0] > 0 else Classification.REPELLING
    return SpectralReport(jacobian, half_trace + half_root, half_trace - half_root, cls)


def stability_inequalities(p: Parameters) -> tuple[bool, bool]:
    """The two root-location inequalities behind the attracting verdict.

    With D = sqrt((alpha - mu)^2 + 4 alpha beta):

        first:   alpha + mu + D < 4
        second:  0 < alpha + mu - D  (and < 4)

    Their conjunction holds exactly when both eigenvalues lie strictly
    inside the unit circle: the first is p(-1) > 0, the second p(1) > 0,
    that is beta < mu (`tests/test_proofs.py`).  Each is decided in
    floats except inside its rounding band (`_slack`: alpha + mu + D
    within eight ulps of 4, alpha + mu - D within eight ulps of
    alpha + mu of 0), where it takes the matching exact sign instead, as
    a float filter does (J. R. Shewchuk, 1997).
    """
    _require_linearizable(p)
    d = 2.0 * _half_root(p)
    s = p.alpha + p.mu
    first = s + d < 4.0 if abs(s + d - 4.0) > _slack(4.0, 0.0) else _sign_at_minus_one(p) > 0
    second = 0.0 < s - d < 4.0 if abs(s - d) > _slack(s, 0.0) else p.beta < p.mu
    return (first, second)


def find_fixed_points(p: Parameters) -> list[State]:
    """Check that the origin is the only fixed point of the reduced map
    in [0, 50] x [0, inf).

    Both increments are affine in the adult count y, so a fixed point
    lies on the adult nullcline y = e/mu, where dy = 0, with
    e = alpha x/(1+x) the emergence.  There dx = g(x) = beta e/mu - e,
    which is (beta/mu - 1) e (`tests/test_proofs.py`), of the sign of
    beta - mu for every x > 0.  The scan evaluates g at the nodes x > 0
    of a step-0.05 grid on [0, 50].  It raises VerificationError where
    g is not finite (beta e/mu can overflow), where |g| is within
    `_slack` of the larger term it cancels, max(beta e/mu, e), with no
    floor, or where g changes sign between neighbouring nodes; otherwise
    it returns [State(0, 0)].  The bound is relative, so a state that
    barely moves (on the x-axis when alpha is tiny) is not taken for a
    fixed point.  Rounding moves g by about one ulp of that larger term,
    so where |beta - mu| is within twice `_slack` of max(beta, mu), the
    exact g may lie inside the band too; there a node inside it takes
    the sign of g on the exact nullcline, that of beta - mu, instead of
    reading as a fixed point (at one ulp, beta/mu - 1 = 2.2e-16).

    The scan can still miss a zero of g of even multiplicity between two
    nodes: g touches 0 there without changing sign, and stays above the
    rounding band at both nodes.
    """
    require_valid(p, Mode.REDUCED)
    xs = 0.05 * np.arange(1, 1001)
    _, emergence = _field(p, xs, 0.0)
    ys = emergence / p.mu
    with np.errstate(over="ignore"):
        g, _ = _field(p, xs, ys)
        hits = np.abs(g) < _slack(np.maximum(p.beta * ys, emergence), 0.0)
    bad = g.size - int(np.count_nonzero(np.isfinite(g)))
    if bad:
        raise VerificationError(f"fixed-point scan: {bad} of the {g.size} nullcline increments are not finite "
                                f"(alpha={p.alpha}, beta={p.beta}, mu={p.mu})")
    signs = np.sign(g)
    if abs(p.beta - p.mu) <= 2.0 * _slack(max(p.beta, p.mu), 0.0):
        signs[hits] = np.sign(p.beta - p.mu)
        hits[:] = False
    # a sign change is reported at its left node
    hits[:-1] |= signs[:-1] * signs[1:] < 0.0
    if np.any(hits):
        pts = [(round(float(a), 8), round(float(b), 8)) for a, b in zip(xs[hits], ys[hits])]
        raise VerificationError(f"unexpected fixed point candidates away from the origin: {pts[:5]}")
    return [State(0.0, 0.0)]
