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
(alpha + mu)^2).  `find_fixed_points` certifies numerically that the
reduced map has no fixed point besides the origin in a window of the
quadrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import VerificationError
from .model import Mode, Parameters, State, _field, require_valid

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
    """Certify that the origin is the only fixed point of the reduced map
    in [0, 50] x [0, 50].

    Residual scan on a grid of step 0.05, then 200 steps of damped
    fixed-point refinement s <- s + 0.5*(map(s) - s) of every coarse
    candidate.  The damped iteration stays inside the quadrant (the
    x-update subtracts at most 0.5*emergence <= 0.5*x).  Candidates that
    settle away from the origin to a residual below 1e-10 of the largest
    term the increments cancel (emergence, beta*y, mu*y) raise
    VerificationError; otherwise returns [State(0, 0)].  The residual is
    relative, so a state that barely moves (on the x-axis when alpha is
    tiny) is not taken for a fixed point.

    A scan can miss a fixed point that repels the damped iteration; it
    cross-checks the proof: a step adds (beta - mu) y to x + y
    (`tests/test_proofs.py`), so a fixed point has y = 0, and y' = y
    then leaves no emergence alpha x/(1+x), so x = 0.
    """
    require_valid(p, Mode.REDUCED)
    grid_step = 0.05
    xs = np.arange(0.0, 50.0 + 0.5 * grid_step, grid_step)
    dx, dy = _field(p, xs[:, None], xs[None, :])
    # in place: fresh 1001x1001 temporaries made this scan twice as slow
    res = np.maximum(np.abs(dx, out=dx), np.abs(dy, out=dy), out=dx)
    # Residual components are Lipschitz in each variable with constant
    # at most max(1, beta) + 1, so a true fixed point leaves a residual
    # of at most this slack on the nearest grid node.
    coarse_tol = (max(1.0, p.beta) + 1.0) * grid_step
    ci, cj = np.nonzero(res < coarse_tol)
    cx = xs[ci].copy()
    cy = xs[cj].copy()
    for _ in range(200):
        dx, dy = _field(p, cx, cy)
        cx = cx + 0.5 * dx
        cy = cy + 0.5 * dy
    dx, dy = _field(p, cx, cy)
    final_res = np.maximum(np.abs(dx), np.abs(dy))
    # the increments are differences of emergence (mu*y + dy) and the
    # adult terms beta*y, mu*y; a fixed point cancels them to rounding
    terms = np.maximum(np.maximum(p.beta, p.mu) * cy, p.mu * cy + dy)
    keep = final_res < 1e-10 * terms
    off_origin = keep & ((np.abs(cx) > 1e-8) | (np.abs(cy) > 1e-8))
    if np.any(off_origin):
        pts = sorted(
            {(round(float(a), 8), round(float(b), 8)) for a, b in zip(cx[off_origin], cy[off_origin])}
        )
        raise VerificationError(f"unexpected fixed point candidates away from the origin: {pts[:5]}")
    return [State(0.0, 0.0)]
