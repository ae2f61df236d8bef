"""Symbolic proofs of the identities the verdict rules and certificates
rest on, each taken over symbolic rates and states through the library's
own formulas, so that a change to those formulas is proved again.

sympy is part of the `test` extra and is imported unconditionally: the
survival certificate of `trajectory.iterate_orbit` rests on the
increment identities below, so they must never be skipped.
"""

from types import SimpleNamespace

import sympy

from mosqdyn.model import _map
from mosqdyn.simplex import _two_cycle_coefficients, interval_map_parts

x, y, alpha, beta, mu = sympy.symbols("x y alpha beta mu")
REDUCED = SimpleNamespace(alpha=alpha, beta=beta, mu=mu, d0=0, d1=0)


def vanishes(expr) -> bool:
    # the kernels write 1.0 for one; nsimplify makes every float exact
    return sympy.simplify(sympy.nsimplify(expr, rational=True)) == 0


def test_reduction_identity_holds_symbolically():
    # the identity the 33-point spot check samples, proved once over
    # symbolic rates with the library's own coefficient and map formulas
    p = SimpleNamespace(alpha=alpha, beta=beta, mu=mu)
    qa, qb, qc = _two_cycle_coefficients(p)
    num1, den1 = interval_map_parts(p, x)
    # T(T(x)) = num2 / den2 after clearing den1**2 from both parts
    num2, den2 = (sympy.cancel(part * den1**2) for part in interval_map_parts(p, num1 / den1))
    identity = (num2 - x * den2) + (num1 - x * den1) * (qa * x**2 + qb * x + qc)
    assert sympy.expand(sympy.nsimplify(identity, rational=True)) == 0


def test_total_increment_identity_holds_symbolically():
    # x' + y' - x - y = (beta - mu) y for the library's own map, over
    # symbolic rates and states: the premise of the planar two-cycle
    # exclusion that `count_two_cycles_on_grid` checks on a grid, and the
    # reason the both-up region is empty for beta < mu
    x1, y1 = _map(REDUCED, x, y)
    assert vanishes((x1 + y1 - x - y) - (beta - mu) * y)


def test_both_up_increment_identities_hold_symbolically():
    # with dx = x' - x, dy = y' - y and g = alpha / ((1 + x)(1 + x')):
    #   x'' - x' = (1 - g) dx + beta dy
    #   y'' - y' = (1 - mu) dy + g dx
    # For 0 < alpha <= 1, 0 < mu <= 1 and x' > x >= 0 every coefficient
    # is positive, so a state whose next step raises both coordinates
    # maps to another such state: the survival certificate of
    # `iterate_orbit`
    x1, y1 = _map(REDUCED, x, y)
    x2, y2 = _map(REDUCED, x1, y1)
    dx, dy = x1 - x, y1 - y
    g = alpha / ((1 + x) * (1 + x1))
    assert vanishes((x2 - x1) - ((1 - g) * dx + beta * dy))
    assert vanishes((y2 - y1) - ((1 - mu) * dy + g * dx))


def test_adult_deficit_identity_holds_symbolically():
    # with u = 1/(1+x) and e = y - (alpha/mu)(1 - u), one step gives
    #   e' = (1 - mu) e + (alpha/mu)(u' - u)
    # so e settles at (alpha/mu) du / mu, and the estimator
    # y + (alpha/mu) u - (alpha/mu) du / mu = alpha/mu + e - (alpha/mu) du / mu
    # of `iterate_orbit`'s survival window is off alpha/mu by the drift
    # of du alone
    x1, y1 = _map(REDUCED, x, y)
    am = alpha / mu
    u, u1 = 1 / (1 + x), 1 / (1 + x1)
    e, e1 = y - am * (1 - u), y1 - am * (1 - u1)
    assert vanishes(e1 - ((1 - mu) * e + am * (u1 - u)))
