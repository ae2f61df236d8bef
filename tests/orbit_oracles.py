"""Offline re-checks of the online monitors of `iterate_orbit`.

Each recomputes one monitor from the recorded rows of an orbit, in
numpy, apart from the loop that keeps it on the fly.  No command runs
them; the tests use them as oracles for the online monitors and feed
them doctored rows to show that each can fail.
"""

import numpy as np

from mosqdyn.model import _slack
from mosqdyn.trajectory import TIE_TOL, Y_BOUND_TOL, Orbit


def check_y_bound(orbit: Orbit) -> int:
    """Count recorded states violating the adult envelope
    y^(n) <= alpha/mu + (1-mu)^n (y^(0) - alpha/mu), beyond a few ulps
    of max(y^(0), alpha/mu), floored at 1e-12.  Offline counterpart of
    the online monitor; 0 on valid orbits.
    """
    p = orbit.params
    am = p.alpha / p.mu
    y0 = float(orbit.ys[0])
    decay = np.power(1.0 - p.mu, orbit.steps.astype(np.float64))
    bound = am + decay * (y0 - am)
    tol = _slack(max(y0, am), Y_BOUND_TOL)
    bad = (orbit.ys > bound + tol) | (orbit.ys < -tol)
    return int(np.count_nonzero(bad[1:]))


def check_sum_identity(orbit: Orbit) -> float:
    """Max float residual of the total-increment identity
    x^(n) + y^(n) = (beta - mu) y^(n-1) + x^(n-1) + y^(n-1)
    over consecutive recorded states.  Requires a full-resolution
    recording (record_every == 1); the identity links adjacent steps.
    """
    p = orbit.params
    if orbit.config.record_every != 1:
        raise ValueError("sum identity needs record_every == 1 (consecutive states)")
    if len(orbit.xs) < 2:
        return 0.0
    xs = orbit.xs
    ys = orbit.ys
    lhs = xs[1:] + ys[1:]
    rhs = ((p.beta - p.mu) * ys[:-1] + xs[:-1]) + ys[:-1]
    return float(np.max(np.abs(lhs - rhs)))


def count_forbidden_patterns(orbit: Orbit) -> int:
    """Scan a full-resolution growth-regime orbit for increment-sign
    patterns the dynamics forbids.  Returns a violation count; 0 on any
    orbit of the reduced map with beta > mu.

    Counted per step:
      (a) both coordinates strictly decreasing in one step (impossible:
          the increments sum to (beta - mu) y > 0);
      (b) any strict decrease after the first step where both
          coordinates strictly increased (the both-up regime is
          forward-invariant).

    `iterate_orbit` counts the same patterns online: (a) from its sign
    census, (b) from the first both-up step on.

    A strict inequality here means beyond the 1e-14 tie tolerance; the
    sub-tolerance churn of late orbits stays out of the counts.
    """
    p = orbit.params
    if not p.beta > p.mu:
        raise ValueError("forbidden patterns are statements about the growth regime (beta > mu)")
    if orbit.config.record_every != 1:
        raise ValueError("pattern scan needs record_every == 1 (consecutive states)")
    dx = np.diff(orbit.xs)
    dy = np.diff(orbit.ys)
    up_x = dx > TIE_TOL
    dn_x = dx < -TIE_TOL
    up_y = dy > TIE_TOL
    dn_y = dy < -TIE_TOL

    violations = int(np.count_nonzero(dn_x & dn_y))

    both_up = up_x & up_y
    idx = np.nonzero(both_up)[0]
    if idx.size:
        first = int(idx[0])
        violations += int(np.count_nonzero(dn_x[first + 1 :] | dn_y[first + 1 :]))
    return violations
