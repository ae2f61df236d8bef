"""Fixed-point structure of the reduced map near the extinction state.

The linearization of the reduced map at (0, 0) is

    J = [[1 - alpha, beta],
         [alpha,     1 - mu]]

with real eigenvalues

    lambda_{1,2} = (2 - alpha - mu +- sqrt((alpha - mu)^2 + 4 alpha beta)) / 2,

always distinct since alpha*beta > 0.  The sign of beta - mu decides the
local picture: the origin attracts for beta < mu, is a saddle for
beta > mu inside the unit parameter box, and loses hyperbolicity exactly
at beta = mu where lambda_1 = 1 (the discriminant collapses to
(alpha + mu)^2).  `find_fixed_points` checks numerically that the
reduced map has no fixed point besides the origin in the strip
[0, 50] x [0, inf), by a scan along the adult nullcline y = e/mu, where
the larval increment is (beta/mu - 1) e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import VerificationError
from .model import Mode, Parameters, State, _field, _slack, require_valid

__all__ = [
    "Classification",
    "SpectralReport",
    "jacobian_at_origin",
    "origin_eigenvalues",
    "classify_origin",
    "stability_inequalities",
    "find_fixed_points",
]

UNIT_CIRCLE_TOL = 1e-9


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


def jacobian_at_origin(p: Parameters) -> tuple[tuple[float, float], tuple[float, float]]:
    """Jacobian of the reduced map at the extinction state (0, 0)."""
    _require_linearizable(p)
    return ((1.0 - p.alpha, p.beta), (p.alpha, 1.0 - p.mu))


def origin_eigenvalues(p: Parameters) -> tuple[float, float]:
    """Both eigenvalues of the origin Jacobian, closed form, descending.

    The discriminant (alpha - mu)^2 + 4 alpha beta is strictly positive
    for admissible rates, so the pair is real and distinct.
    """
    _require_linearizable(p)
    disc = (p.alpha - p.mu) ** 2 + 4.0 * p.alpha * p.beta
    root = math.sqrt(disc)
    half_trace = (2.0 - p.alpha - p.mu) / 2.0
    return (half_trace + root / 2.0, half_trace - root / 2.0)


def classify_origin(p: Parameters) -> SpectralReport:
    """Classify the origin by eigenvalue moduli.

    Any eigenvalue within UNIT_CIRCLE_TOL of the unit circle makes the
    verdict nonhyperbolic (beta = mu lands here exactly: lambda1 = 1).
    Otherwise both moduli below 1 is attracting, both above repelling,
    one of each a saddle.
    """
    l1, l2 = origin_eigenvalues(p)
    moduli = (abs(l1), abs(l2))
    if any(abs(m - 1.0) <= UNIT_CIRCLE_TOL for m in moduli):
        cls = Classification.NONHYPERBOLIC
    elif all(m < 1.0 for m in moduli):
        cls = Classification.ATTRACTING
    elif all(m > 1.0 for m in moduli):
        cls = Classification.REPELLING
    else:
        cls = Classification.SADDLE
    return SpectralReport(
        jacobian=jacobian_at_origin(p),
        lambda1=l1,
        lambda2=l2,
        classification=cls,
    )


def stability_inequalities(p: Parameters) -> tuple[bool, bool]:
    """The two root-location inequalities behind the attracting verdict.

    With D = sqrt((alpha - mu)^2 + 4 alpha beta):

        first:   alpha + mu + D < 4
        second:  0 < alpha + mu - D  (and < 4)

    Their conjunction holds exactly when both eigenvalues lie strictly
    inside the unit circle; the second fails precisely when beta >= mu.
    """
    _require_linearizable(p)
    d = math.sqrt((p.alpha - p.mu) ** 2 + 4.0 * p.alpha * p.beta)
    s = p.alpha + p.mu
    return (s + d < 4.0, 0.0 < s - d < 4.0)


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
    fixed point.

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
    # a sign change is reported at its left node
    hits[:-1] |= signs[:-1] * signs[1:] < 0.0
    if np.any(hits):
        pts = [(round(float(a), 8), round(float(b), 8)) for a, b in zip(xs[hits], ys[hits])]
        raise VerificationError(f"unexpected fixed point candidates away from the origin: {pts[:5]}")
    return [State(0.0, 0.0)]
