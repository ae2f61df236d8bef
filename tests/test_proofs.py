"""Symbolic proofs of the identities the verdict rules and certificates
rest on, each taken over symbolic rates and states through the library's
own formulas, so that a change to those formulas is proved again.

sympy is part of the `test` extra and is imported unconditionally: the
survival certificate of `trajectory.iterate_orbit` rests on the
increment identities below, so they must never be skipped.
"""

import math
from types import SimpleNamespace

import sympy

import mosqdyn as mq
from mosqdyn.model import _field, _map
from mosqdyn.simplex import _two_cycle_coefficients, interval_map_parts
from mosqdyn.spectral import _at_minus_one

x, y, alpha, beta, mu, d0, d1 = sympy.symbols("x y alpha beta mu d0 d1")
REDUCED = SimpleNamespace(alpha=alpha, beta=beta, mu=mu, d0=0, d1=0)
FULL = SimpleNamespace(alpha=alpha, beta=beta, mu=mu, d0=d0, d1=d1)


def vanishes(expr) -> bool:
    # the kernels write 1.0 for one; nsimplify makes every float exact
    return sympy.simplify(sympy.nsimplify(expr, rational=True)) == 0


def test_map_is_identity_plus_field_symbolically():
    # the Euler link: the map, with larval mortality, is the unit-step
    # Euler scheme of the flow; in floats the two kernels round apart,
    # and every next state is computed by `_map`
    x1, y1 = _map(FULL, x, y)
    dx, dy = _field(FULL, x, y)
    assert vanishes(x1 - x - dx)
    assert vanishes(y1 - y - dy)


def test_map_halves_are_the_model_equations_symbolically():
    # the two counts of `_map` are the two equations of the model (module
    # docstring of `model`), larval mortality or not
    for rates in (REDUCED, FULL):
        x1, y1 = _map(rates, x, y)
        assert vanishes(x1 - (beta * y - alpha * x / (1 + x) - (rates.d0 + rates.d1 * x) * x + x))
        assert vanishes(y1 - (alpha * x / (1 + x) - mu * y + y))


def test_interval_map_is_the_simplex_projection_symbolically():
    # T = a / b is the reduced map read on the simplex: from (x, 1 - x)
    # the image projects to x' / (x' + y')
    x1, y1 = _map(REDUCED, x, 1 - x)
    num, den = interval_map_parts(REDUCED, x)
    assert vanishes(x1 / (x1 + y1) - num / den)


def test_positive_equilibrium_is_the_conjugate_root_symbolically():
    # with c = (alpha + d0)(r0 - 1) the larval balance at equilibrium is
    # d1 x^2 + (d0 + d1) x - c = 0; its positive root, rationalized as
    # 2 c / (sqrt((d0 + d1)^2 + 4 d1 c) + d0 + d1), adds two positive
    # terms where the textbook (sqrt(...) - d0 - d1) / (2 d1) cancels
    # them.  The flow's field vanishes there, and in floats
    # `positive_equilibrium` returns that root
    r0 = alpha * beta / ((alpha + d0) * mu)
    c = (alpha + d0) * (r0 - 1)
    x0 = 2 * c / (sympy.sqrt((d0 + d1) ** 2 + 4 * d1 * c) + d0 + d1)
    assert vanishes(d1 * x0**2 + (d0 + d1) * x0 - c)
    dx, dy = _field(FULL, x0, alpha * x0 / (mu * (1 + x0)))
    assert vanishes(dx) and vanishes(dy)
    root = sympy.lambdify((alpha, beta, mu, d0, d1), x0, "math")
    for rates in ((0.6, 0.8, 0.5, 0.1, 0.05), (0.5, 0.9, 0.3, 0.05, 1e-12), (1.0, 1e6, 0.1, 0.0, 0.01)):
        assert math.isclose(mq.positive_equilibrium(mq.Parameters(*rates)).x, root(*rates), rel_tol=1e-13)


def test_origin_jacobian_is_the_derivative_of_the_map():
    # the spectral classification linearizes the map itself: the
    # Jacobian of `_map` at (0, 0), symbolically, and in floats the
    # matrix `classify_origin` reports, entry for entry
    jac = sympy.Matrix(_map(REDUCED, x, y)).jacobian([x, y]).subs({x: 0, y: 0})
    jac = sympy.nsimplify(jac, rational=True)
    assert sympy.simplify(jac - sympy.Matrix([[1 - alpha, beta], [alpha, 1 - mu]])) == sympy.zeros(2, 2)
    entries = sympy.lambdify((alpha, beta, mu), jac)
    for rates in ((0.6, 0.5, 0.48), (0.4, 0.35, 0.3), (1e-9, 1e8, 0.1)):
        assert entries(*rates).tolist() == [list(row) for row in mq.classify_origin(mq.Parameters(*rates)).jacobian]


z = sympy.Symbol("z")


def origin_charpoly():
    # p(z) = det(zI - J) for J the Jacobian of `_map` at the origin
    jac = sympy.Matrix(_map(REDUCED, x, y)).jacobian([x, y]).subs({x: 0, y: 0})
    return sympy.expand((z * sympy.eye(2) - sympy.nsimplify(jac, rational=True)).det())


def test_origin_characteristic_polynomial_holds_symbolically():
    # p(z) = z^2 - (2 - alpha - mu) z + (1 - alpha)(1 - mu) - alpha beta,
    # with p(1) = alpha (mu - beta), whose sign `classify_origin` takes
    # from the float comparison of mu with beta, and p(-1) the library's
    # own `_at_minus_one`, (2 - alpha)(2 - mu) - alpha beta, whose sign
    # it decides in exact decimals
    charpoly = origin_charpoly()
    assert vanishes(charpoly - (z**2 - (2 - alpha - mu) * z + (1 - alpha) * (1 - mu) - alpha * beta))
    assert vanishes(charpoly.subs(z, 1) - alpha * (mu - beta))
    assert vanishes(charpoly.subs(z, -1) - _at_minus_one(REDUCED))
    assert vanishes(_at_minus_one(REDUCED) - ((2 - alpha) * (2 - mu) - alpha * beta))


def test_reduction_identity_holds_symbolically():
    # numerator(T(T(x)) - x) = -numerator(T(x) - x) (A x^2 + B x + C), over
    # symbolic rates with the library's own coefficient and map formulas:
    # the period-two points of T are the roots of the quadratic
    qa, qb, qc = _two_cycle_coefficients(REDUCED)
    num1, den1 = interval_map_parts(REDUCED, x)
    # T(T(x)) = num2 / den2 after clearing den1**2 from both parts
    num2, den2 = (sympy.cancel(part * den1**2) for part in interval_map_parts(REDUCED, num1 / den1))
    identity = (num2 - x * den2) + (num1 - x * den1) * (qa * x**2 + qb * x + qc)
    assert sympy.expand(identity) == 0


# The admissible box: alpha, beta > 0 and s = 1 - alpha, t = 1 - mu >= 0;
# on [0, 1], x and u = 1 - x are >= 0.  Written in these, each sign below
# is that of a sum of products of nonnegative factors, which sympy's
# assumptions decide.
s, t, u, w, v = sympy.symbols("s t u w v", nonnegative=True)
ON_BOX = {
    alpha: sympy.Symbol("alpha_", positive=True),
    beta: sympy.Symbol("beta_", positive=True),
    x: sympy.Symbol("x_", nonnegative=True),
}


def written_as(form, expr) -> bool:
    # form, in s = 1 - alpha, t = 1 - mu and u = 1 - x, expands to expr
    return sympy.expand(form.subs({s: 1 - alpha, t: 1 - mu, u: 1 - x}) - expr) == 0


def test_certificate_closed_forms_hold_symbolically():
    # the closed forms the exact decisions of `two_cycle_certificate` and
    # `check_interval_map_range` rest on, for the library's own formulas
    qa, qb, qc = _two_cycle_coefficients(REDUCED)
    num, den = interval_map_parts(REDUCED, x)
    assert vanishes(qb - (-alpha * beta - 2 * (1 - alpha) - 2 * (1 - mu)))
    assert vanishes(qc - (-beta * (4 - alpha - 2 * mu) - (1 - mu) * (2 - mu - alpha)))
    assert vanishes(qa + qb + qc + (8 - 3 * alpha - 4 * mu + alpha * mu))
    assert vanishes((den - num) - ((mu - 1) * x**2 + alpha * x + (1 - mu)))


def test_certificate_signs_hold_on_the_admissible_box():
    qa, qb, qc = _two_cycle_coefficients(REDUCED)
    # A + B + C = -(8 - 3 alpha - 4 mu + alpha mu): the bracket is
    # bilinear, so its least value on [0, 1]^2 is at a corner, and the
    # corners give 2 to 8
    bracket = -sympy.expand(qa + qb + qc)
    assert sympy.degree(bracket, alpha) == 1 and sympy.degree(bracket, mu) == 1
    corners = {bracket.subs({alpha: a, mu: m}) for a in (0, 1) for m in (0, 1)}
    assert corners == {2, 4, 5, 8}
    minus_b = alpha * beta + 2 * s + 2 * t
    minus_c = beta * (1 + s + 2 * t) + t * (s + t)
    assert written_as(minus_b, -qb) and minus_b.subs(ON_BOX).is_positive
    assert written_as(minus_c, -qc) and minus_c.subs(ON_BOX).is_positive


def test_interval_map_range_holds_on_the_admissible_box():
    # T maps [0, 1] into itself: a > 0 and h = b - a >= 0 there, so
    # b = a + h > 0 and 0 < T = a / b <= 1
    num, den = interval_map_parts(REDUCED, x)
    h = t * u * (1 + x) + alpha * x
    assert written_as(h, den - num) and h.subs(ON_BOX).is_nonnegative
    # a convex (beta = 1 - w <= 1): a = w x^2 + s x + beta
    convex = w * x**2 + s * x + beta
    assert written_as(convex.subs(w, 1 - beta), num) and convex.subs(ON_BOX).is_positive
    # a concave (beta = 1 + v >= 1): a'' = -2 v <= 0, so its least value
    # on [0, 1] is at an endpoint, a(0) = beta > 0 or a(1) = 1 + s > 0
    assert sympy.expand(sympy.diff(num.subs(beta, 1 + v), x, 2) + 2 * v) == 0
    assert num.subs(x, 0) == beta and written_as(1 + s, num.subs(x, 1))


def test_second_adult_count_is_nondecreasing_in_the_larvae():
    # the adult envelope of `count_two_cycles_on_grid`: at fixed y, the
    # second adult count y'' = e(x') + (1 - mu) y' rises with x, for
    # 0 < alpha <= 1, 0 < mu <= 1 and x, y >= 0.  Through `_map` composed
    # with itself, the first image (x', y') free and then substituted,
    #   dy''/dx = (dy''/dx') (dx'/dx) + (dy''/dy') (dy'/dx)
    # and every factor is nonnegative on the box
    x1s, y1s = sympy.symbols("x1 y1")
    x1, y1 = _map(REDUCED, x, y)
    y2 = _map(REDUCED, x1s, y1s)[1]
    on_box = ON_BOX | {y: sympy.Symbol("y_", nonnegative=True)}
    # x' = beta y + x (s + x) / (1 + x) >= 0, so dy''/dx' = alpha / (1 + x')^2 >= 0
    larvae = beta * y + x * (s + x) / (1 + x)
    assert vanishes(x1 - larvae.subs(s, 1 - alpha)) and larvae.subs(on_box).is_nonnegative
    slope = alpha / (1 + x1s) ** 2
    assert vanishes(sympy.diff(y2, x1s) - slope) and slope.subs({alpha: ON_BOX[alpha], x1s: larvae.subs(on_box)}).is_positive
    # dx'/dx = 1 - alpha / (1 + x)^2 = (s + x (2 + x)) / (1 + x)^2 >= 0
    dx1 = (s + x * (2 + x)) / (1 + x) ** 2
    assert vanishes(sympy.diff(x1, x) - dx1.subs(s, 1 - alpha)) and dx1.subs(on_box).is_nonnegative
    # dy'/dx = alpha / (1 + x)^2 > 0 and dy''/dy' = 1 - mu = t >= 0
    dy1 = alpha / (1 + x) ** 2
    assert vanishes(sympy.diff(y1, x) - dy1) and dy1.subs(on_box).is_positive
    assert vanishes(sympy.diff(y2, y1s) - (1 - mu))
    # the chain rule, on the composed map
    composed = sympy.diff(y2.subs({x1s: x1, y1s: y1}), x)
    assert vanishes(composed - (slope.subs(x1s, x1) * sympy.diff(x1, x) + (1 - mu) * dy1))


def test_jury_signs_place_the_eigenvalues_on_the_admissible_box():
    # with D = sqrt((alpha - mu)^2 + 4 alpha beta) the eigenvalues are
    # lambda1,2 = (2 - alpha - mu +- D) / 2, so p(z) = (z - lambda1)(z - lambda2),
    # p(1) = (1 - lambda1)(1 - lambda2) and p(-1) = (1 + lambda1)(1 + lambda2)
    charpoly = origin_charpoly()
    root = sympy.sqrt((alpha - mu) ** 2 + 4 * alpha * beta)
    l1, l2 = (2 - alpha - mu + root) / 2, (2 - alpha - mu - root) / 2
    assert vanishes(charpoly - (z - l1) * (z - l2))
    assert vanishes(charpoly.subs(z, 1) - (1 - l1) * (1 - l2))
    assert vanishes(charpoly.subs(z, -1) - (1 + l1) * (1 + l2))
    # lambda1 > 0, so 1 + lambda1 > 0 and p(-1) has the sign of 1 + lambda2:
    # the side of -1 that lambda2 is on
    positive_l1 = (s + t + sympy.sqrt((t - s) ** 2 + 4 * alpha * beta)) / 2
    assert written_as(positive_l1, l1) and positive_l1.subs(ON_BOX).is_positive
    # lambda2 < 1, so p(1) has the sign of 1 - lambda1: the side of 1
    # that lambda1 is on
    positive = {alpha: ON_BOX[alpha], beta: ON_BOX[beta], mu: sympy.Symbol("mu_", positive=True)}
    assert (1 - l2).subs(positive).is_positive
    # `stability_inequalities`: with s = alpha + mu <= 2, so 4 - s > 0,
    # s + D < 4 exactly when (4 - s)^2 - D^2 = 4 p(-1) > 0, and 0 < s - D
    # exactly when s^2 - D^2 = 4 p(1) > 0
    trace_sum = alpha + mu
    assert vanishes((4 - trace_sum) ** 2 - root**2 - 4 * charpoly.subs(z, -1))
    assert vanishes(trace_sum**2 - root**2 - 4 * charpoly.subs(z, 1))
    # both positive: both eigenvalues inside the unit circle; both
    # negative: both outside; one zero: one on it; else a saddle.  The
    # float eigenvalues are these roots, rounded
    roots = sympy.lambdify((alpha, beta, mu), (l1, l2), "math")
    for rates in ((0.6, 0.5, 0.48), (0.5, 4.5, 0.5), (1e-6, 0.49995, 0.5), (1.0, 1e300, 0.48)):
        want = roots(*rates)
        rep = mq.classify_origin(mq.Parameters(*rates))
        got = (rep.lambda1, rep.lambda2)
        assert all(math.isclose(g, w, rel_tol=1e-15, abs_tol=1e-15 * abs(want[0])) for g, w in zip(got, want))


def test_extinction_rates_put_lambda2_above_minus_one():
    # beta = mu - c with c > 0 gives p(-1) = 2 (1 - alpha) + 2 (1 - mu)
    # + alpha c > 0 on the box: for beta < mu the exact label is
    # attracting, so `sweep` holds the label to lambda1's side of 1 alone
    c = sympy.Symbol("c", positive=True)
    form = 2 * s + 2 * t + alpha * c
    assert written_as(form, _at_minus_one(REDUCED).subs(beta, mu - c))
    assert form.subs(ON_BOX).is_positive


def test_total_increment_identity_holds_symbolically():
    # x' + y' - x - y = (beta - mu) y for the library's own map, over
    # symbolic rates and states: the premise of the planar two-cycle
    # exclusion that `count_two_cycles_on_grid` checks on a grid, and the
    # reason the both-up region is empty for beta < mu
    x1, y1 = _map(REDUCED, x, y)
    assert vanishes((x1 + y1 - x - y) - (beta - mu) * y)


def test_nullcline_increments_hold_symbolically():
    # on the adult nullcline y = e/mu, e = alpha x/(1+x) the emergence,
    # dy = 0 and dx = (beta/mu - 1) e, which has the sign of beta - mu
    # for x > 0: the only fixed point is the origin, as
    # `spectral.find_fixed_points` checks along the nullcline
    _, e = _field(REDUCED, x, 0)
    dx, dy = _field(REDUCED, x, e / mu)
    assert vanishes(dy)
    assert vanishes(dx - (beta / mu - 1) * e)


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


def test_adult_limit_bound_holds_symbolically():
    # `trajectory.adult_limit_step` bounds |y_n - alpha/mu| from a state
    # (x_k, y_k) of the both-up region R.  Its steps, with q = 1 - mu:
    x1, y1 = _map(REDUCED, x, y)
    am = alpha / mu
    # (1) In R, mu y (1 + x) < alpha x: there y < alpha/mu, by the
    # positive margin (alpha x - mu y (1 + x)) / (mu (1 + x)) + am/(1 + x),
    # and beta > mu, as mu y (1 + x) < alpha x < beta y (1 + x).  R is
    # forward-invariant (`test_both_up_increment_identities_hold_symbolically`),
    # so from step k on x and y rise and u_j = 1/(1 + x_j) falls.
    assert vanishes((am - y) - ((alpha * x - mu * y * (1 + x)) / (mu * (1 + x)) + am / (1 + x)))
    # (2) The growth bound: x + y rises by (beta - mu) y per step
    # (`test_total_increment_identity_holds_symbolically`), and y_i >= y_k,
    # y_j < alpha/mu, so x_j > x_k + y_k - alpha/mu + (beta - mu)(j - k) y_k;
    # and x_j >= x_k.  So u_j <= 1/(1 + l_j) with l_j the larger of the two.
    assert vanishes((x1 + y1) - (x + y) - (beta - mu) * y)
    # (3) The adult-deficit identity e' = q e + am (u' - u)
    # (`test_adult_deficit_identity_holds_symbolically`) telescopes: for
    # n = k + L, e_n = q^L e_k + am sum_{i<L} q^(L-1-i) (u_(i+1) - u_i).
    # Checked here for every L up to 8 with free e_k and u_i; for larger L
    # the step L -> L + 1 multiplies the sum by q and adds one term.
    q, e0 = sympy.symbols("q e0")
    us = sympy.symbols("u0:10")
    e = e0
    for length in range(9):
        closed = q**length * e0 + am * sum(q ** (length - 1 - i) * (us[i + 1] - us[i]) for i in range(length))
        assert sympy.expand(e - closed) == 0
        e = q * e + am * (us[length + 1] - us[length])
    # (4) With d_i = u_i - u_(i+1) >= 0 and 0 <= q <= 1, split the sum at
    # m = k + M: the terms i < M have q^(L-1-i) <= q^(L-M), the rest
    # q^(L-1-i) <= 1, so |sum| <= q^(L-M) (u_k - u_m) + (u_m - u_n) <=
    # q^(L-M) u_k + u_m, and |y_n - am| = |e_n - am u_n| adds am u_n.  The
    # slack is sum_i d_i (q^a_i - q^b_i) with a_i <= b_i, and
    # q^a - q^b = q^a (1 - q) (1 + q + ... + q^(b-a-1)) >= 0
    ds = sympy.symbols("d0:9")
    for length in range(1, 9):
        for half in range(length + 1):
            total = sum(q ** (length - 1 - i) * ds[i] for i in range(length))
            split = q ** (length - half) * sum(ds[:half]) + sum(ds[half:length])
            exps = [(length - half if i < half else 0, length - 1 - i) for i in range(length)]
            assert all(a <= b for a, b in exps)
            assert sympy.expand(split - total - sum(d * (q**a - q**b) for d, (a, b) in zip(ds, exps))) == 0
    for c in range(9):
        assert sympy.expand(1 - q**c - (1 - q) * sum(q**i for i in range(c))) == 0
    # (5) (1 - mu)^j <= 1/(1 + j mu): true at j = 0, and
    # (1 + (j + 1) mu)(1 - mu) = (1 + j mu) - (j + 1) mu^2 <= 1 + j mu, so
    # (1 + (j + 1) mu)(1 - mu)^(j + 1) <= (1 + j mu)(1 - mu)^j <= 1
    j = sympy.Symbol("j", nonnegative=True)
    assert sympy.expand((1 + (j + 1) * mu) * (1 - mu) - ((1 + j * mu) - (j + 1) * mu**2)) == 0
    # (6) With M = floor(L/2), L - M = ceil(L/2), and (5) on both powers
    # of q, the bound is the B(L) that `adult_limit_step` decides; each of
    # its denominators rises with L, so B(L) < tol holds for every later L
    # too.  tests/test_trajectory.py re-evaluates B in fractions
