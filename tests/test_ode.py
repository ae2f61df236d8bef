"""Continuous-time reference model: threshold number, equilibria, RK4.

The positive equilibrium's frozen coordinates are double-checked through
the quadratic the larval balance reduces to, and the integrator's order
is measured empirically (a 4th-order scheme must show an error ratio
near 16 when the step halves).
"""

import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import mosqdyn as mq
from mosqdyn.battery import thresholds_agree
from mosqdyn.model import _field, _slack

RED = mq.Parameters(0.6, 0.5, 0.48)
FULL_GROW = mq.Parameters(0.6, 0.8, 0.5, 0.1, 0.05)
FULL_DIE = mq.Parameters(0.5, 0.3, 0.6, 0.05, 0.05)


# -------------------------------------------------------------- threshold


def test_offspring_number_frozen():
    assert mq.offspring_number(RED) == pytest.approx(0.5 / 0.48, abs=1e-15)
    assert mq.offspring_number(FULL_GROW) == pytest.approx(1.3714285714285714, abs=1e-15)


def test_offspring_number_rational_oracle():
    for p in (RED, FULL_GROW, FULL_DIE):
        exact = (F(p.alpha) * F(p.beta)) / ((F(p.alpha) + F(p.d0)) * F(p.mu))
        assert mq.offspring_number(p) == pytest.approx(float(exact), abs=1e-14)


def test_offspring_number_reduced_case_is_rate_ratio():
    # without extra larval mortality the threshold collapses to beta/mu
    assert mq.offspring_number(RED) == pytest.approx(RED.beta / RED.mu, abs=1e-15)


def test_offspring_number_is_the_rate_ratio_rounded_once():
    # with d0 = 0, r0 is beta/mu rounded once, so it sides with beta
    # against mu as the map's dichotomy does, beta one ulp either side of
    # mu included (alpha beta and alpha mu can round to one double)
    rng = np.random.default_rng(44)
    alphas = 1.0 - rng.random(3000)
    mus = 1.0 - rng.random(3000)
    betas = np.concatenate([np.nextafter(mus[:1000], np.inf), np.nextafter(mus[1000:2000], 0.0),
                            2.0 * (1.0 - rng.random(1000))])
    for alpha, beta, mu in zip(alphas.tolist(), betas.tolist(), mus.tolist()):
        if beta == mu:
            continue
        p = mq.Parameters(alpha, beta, mu)
        assert mq.offspring_number(p) == beta / mu
        assert thresholds_agree(p)


@pytest.mark.parametrize("rates", [
    # (alpha + d0) * mu underflows to zero
    (1e-200, 0.5, 1e-200, 0.0, 0.0),
    (1e-300, 0.9, 1e-300, 0.0, 0.0),
    (1e-200, 1e100, 1e-50, 1e-100, 0.0),
    # beta/mu overflows, r0 does not
    (1e-20, 1e300, 1e-10, 1.0, 1.0),
])
def test_offspring_number_of_extreme_rates_is_its_exact_value_rounded(rates):
    p = mq.Parameters(*rates)
    exact = F(p.alpha) * F(p.beta) / ((F(p.alpha) + F(p.d0)) * F(p.mu))
    assert abs(F(mq.offspring_number(p)) - exact) <= exact * 8 * F(sys.float_info.epsilon)


@pytest.mark.parametrize("rates, r0", [
    # beta * (alpha / (alpha + d0)) is subnormal: the float form gives
    # 9.999999999999969e-11 and 0, so r0 is evaluated exactly instead
    ((1e-10, 1e-290, 1e-300, 1e10, 0.0), 1e-10),
    ((1e-300, 1e-300, 1e-300, 1e-10, 0.0), 9.999999999999999e-291),
    # alpha / (alpha + d0) alone is subnormal while its product with beta
    # is not: the float form gives 6.666666666666317e-11 and
    # 9.99999999999997e-111
    ((1e-310, 1e300, 0.5, 3.0, 0.0), 6.666666666666646e-11),
    ((1e-300, 1e200, 1.0, 1e10, 0.0), 1e-110),
])
def test_offspring_number_with_a_subnormal_numerator_is_rounded_once(rates, r0):
    p = mq.Parameters(*rates)
    assert r0 == float(F(p.alpha) * F(p.beta) / ((F(p.alpha) + F(p.d0)) * F(p.mu)))
    assert mq.offspring_number(p) == r0


def test_offspring_number_beyond_the_float_range_is_inf():
    # the fraction is subnormal, and the exact r0, about 1e310, has no
    # float: it is inf, as the float form gives where r0 overflows
    p = mq.Parameters(1e-310, 1e300, 1e-320, 1.0)
    with pytest.raises(OverflowError):
        float(F(p.alpha) * F(p.beta) / ((F(p.alpha) + F(p.d0)) * F(p.mu)))
    assert mq.offspring_number(p) == math.inf


# ------------------------------------------------------------- equilibria


def test_positive_equilibrium_frozen():
    eq = mq.positive_equilibrium(FULL_GROW)
    assert eq is not None
    assert eq.x == pytest.approx(1.2294688127912363, abs=1e-12)
    assert eq.y == pytest.approx(0.6617551978681273, abs=1e-12)


def test_positive_equilibrium_satisfies_larval_quadratic():
    # independent route: at equilibrium the larval balance reduces to
    # d1 x^2 + (d0 + d1) x + d0 - alpha*(beta - mu)/mu = 0
    p = FULL_GROW
    eq = mq.positive_equilibrium(p)
    res = (p.d1 * eq.x * eq.x + (p.d0 + p.d1) * eq.x + p.d0
           - p.alpha * (p.beta - p.mu) / p.mu)
    assert abs(res) < 1e-12
    fx, fy = _field(p, eq.x, eq.y)
    assert abs(fx) < 1e-12 and abs(fy) < 1e-12


def test_positive_equilibrium_residual_is_a_rounding_of_its_largest_term():
    # seeded log-uniform rates with r0 > 1: alpha, mu in [1e-6, 1], beta
    # in [1e-4, 1e12], d0 = 0 with probability 0.3, else in [1e-8, 10],
    # d1 in [1e-12, 100].  The field at the returned equilibrium must be
    # within eight ulps of the largest term its increments cancel.  Of
    # these 2,058 sets the textbook root (sqrt(disc) - d0 - d1) / (2 d1)
    # misses that on 191, and an absolute 1e-9 on 631
    rng = np.random.default_rng(5)
    n = 2400

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)

    alphas, betas, mus = log_uniform(1e-6, 1.0), log_uniform(1e-4, 1e12), log_uniform(1e-6, 1.0)
    d0s = np.where(rng.random(n) < 0.3, 0.0, log_uniform(1e-8, 10.0))
    d1s = log_uniform(1e-12, 100.0)
    checked = 0
    for rates in zip(alphas, betas, mus, d0s, d1s):
        p = mq.Parameters(*rates)
        if mq.offspring_number(p) <= 1.0:
            continue
        eq = mq.positive_equilibrium(p)
        _, e = _field(p, eq.x, 0.0)
        size = max(p.beta * eq.y, e, (p.d0 + p.d1 * eq.x) * eq.x, p.mu * eq.y)
        fx, fy = _field(p, eq.x, eq.y)
        assert max(abs(fx), abs(fy)) <= _slack(size, 0.0), rates
        checked += 1
    assert checked > 2000


def test_no_positive_equilibrium_below_threshold():
    assert mq.offspring_number(FULL_DIE) < 1.0
    assert mq.positive_equilibrium(FULL_DIE) is None


def test_positive_equilibrium_with_an_overflowing_offspring_number_fails_verification():
    # r0 = 1e311 overflows, so x0 = inf/inf; beta y would overflow too, so
    # no float equilibrium could be verified against the field
    p = mq.Parameters(1.0, 1e308, 1e-3, 0.0, 1.0)
    assert mq.offspring_number(p) == math.inf
    with pytest.raises(mq.VerificationError, match=r"positive equilibrium is not finite"):
        mq.positive_equilibrium(p)


def test_positive_equilibrium_requires_density_dependence():
    with pytest.raises(ValueError):
        mq.positive_equilibrium(mq.Parameters(0.6, 0.8, 0.5, 0.1, 0.0))


def test_offspring_number_decides_the_positive_equilibrium():
    assert mq.offspring_number(FULL_GROW) == pytest.approx(1.3714285714285714, abs=1e-14)
    eq = mq.positive_equilibrium(FULL_GROW)
    assert eq.x > 0.0 and eq.y > 0.0

    assert mq.offspring_number(FULL_DIE) <= 1.0
    assert mq.positive_equilibrium(FULL_DIE) is None

    # d1 = 0 above threshold: no positive equilibrium to ask for
    assert mq.offspring_number(RED) > 1.0
    with pytest.raises(ValueError, match="d1 > 0"):
        mq.positive_equilibrium(RED)


# -------------------------------------------------------------- integrator


def test_rk4_is_fourth_order():
    p = mq.Parameters(0.5, 0.3, 0.6)
    s0 = mq.State(1.0, 1.0)
    ref = mq.integrate_flow(p, s0, mq.OdeConfig(step=0.025, t_end=5.0)).final
    e1 = mq.integrate_flow(p, s0, mq.OdeConfig(step=0.1, t_end=5.0)).final
    e2 = mq.integrate_flow(p, s0, mq.OdeConfig(step=0.05, t_end=5.0)).final
    err1 = math.hypot(e1[0] - ref[0], e1[1] - ref[1])
    err2 = math.hypot(e2[0] - ref[0], e2[1] - ref[1])
    ratio = err1 / err2
    # a 4th-order scheme halving its step gains ~16x; the comparison to a
    # finite reference shifts the ideal ratio slightly above 16
    assert 12.0 < ratio < 22.0


def test_flow_extinction_below_threshold():
    traj = mq.integrate_flow(FULL_DIE, mq.State(2.0, 1.0))
    fx, fy = traj.final
    assert abs(fx) < 1e-6 and abs(fy) < 1e-6
    assert np.all(traj.xs > -1e-9)
    assert np.all(traj.ys > -1e-9)


def test_flow_settles_on_positive_equilibrium():
    eq = mq.positive_equilibrium(FULL_GROW)
    traj = mq.integrate_flow(FULL_GROW, mq.State(1.0, 1.0))
    fx, fy = traj.final
    assert abs(fx - eq.x) < 1e-5
    assert abs(fy - eq.y) < 1e-5


def test_flow_time_grid():
    traj = mq.integrate_flow(RED, mq.State(1.0, 1.0), mq.OdeConfig(step=0.1, t_end=0.35))
    assert len(traj.ts) == 4
    assert traj.ts[0] == 0.0
    assert traj.ts[-1] == pytest.approx(0.3, abs=1e-12)


def test_flow_blowup_raises():
    p = mq.Parameters(0.5, 0.5, 0.5, 200.0, 0.0)
    with pytest.raises(mq.IntegrationError):
        mq.integrate_flow(p, mq.State(1.0, 1.0), mq.OdeConfig(step=1.0, t_end=50.0))


def test_ode_config_validation():
    with pytest.raises(ValueError):
        mq.OdeConfig(step=0.0)
    with pytest.raises(ValueError):
        mq.OdeConfig(step=1.5)
    with pytest.raises(ValueError):
        mq.OdeConfig(step=0.01, t_end=0.005)


def test_flow_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        mq.integrate_flow(mq.Parameters(1.5, 0.5, 0.5), mq.State(1.0, 1.0))


def _rk4_on_field(p, s0, h, n_steps):
    """Reference RK4 written on the shared kernel `_field`, one stage at a
    time, with the integrator's own coefficients and order of operations.
    Returns the states and the lowest larval count any stage was
    evaluated at."""
    x, y = s0.x, s0.y
    xs, ys = [x], [y]
    half = 0.5 * h
    sixth = h / 6.0
    lowest = math.inf
    for _ in range(n_steps):
        k1x, k1y = _field(p, x, y)
        sx = x + half * k1x
        k2x, k2y = _field(p, sx, y + half * k1y)
        sx2 = x + half * k2x
        k3x, k3y = _field(p, sx2, y + half * k2y)
        sx3 = x + h * k3x
        k4x, k4y = _field(p, sx3, y + h * k3y)
        lowest = min(lowest, sx, sx2, sx3)
        x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys), lowest


@pytest.mark.parametrize("p, s0, h, t_end, dips", [
    (RED, mq.State(1.3, 0.7), 0.01, 20.0, False),
    (FULL_GROW, mq.State(1.3, 0.7), 0.01, 20.0, False),
    (mq.Parameters(0.5, 0.9, 0.3, 0.05, 0.01), mq.State(2.0, 0.1), 0.05, 100.0, False),
    # h d0 = 1.5 from a small x: the stage states fall below 0, the steps do not
    (mq.Parameters(0.5, 0.5, 0.5, 30.0, 0.0), mq.State(0.01, 0.001), 0.05, 100.0, True),
    # freezes bit for bit at step 4,305 of 20,000: the integrator stops
    # stepping there and fills the rest (see test_rk4_stops_at_a_bit_for_bit_fixed_point)
    (mq.Parameters(0.5, 0.9, 0.3, 0.05, 0.01), mq.State(2.0, 0.1), 0.05, 1000.0, False),
])
def test_rk4_loop_matches_field_kernel_bit_for_bit(p, s0, h, t_end, dips):
    # integrate_flow inlines the field for speed; it must stay the shared
    # kernel's arithmetic exactly, the -0.0s and the time grid included,
    # and so must the frozen tail it fills without stepping
    traj = mq.integrate_flow(p, s0, mq.OdeConfig(step=h, t_end=t_end))
    n = len(traj.ts) - 1
    assert n == round(t_end / h)  # 2,000 steps, 20,000 for the frozen case
    xs, ys, lowest = _rk4_on_field(p, s0, h, n)
    assert (lowest < 0.0) == dips
    assert traj.xs.tobytes() == xs.tobytes()
    assert traj.ys.tobytes() == ys.tobytes()
    assert all(t == i * h for i, t in enumerate(traj.ts.tolist()))


def test_rk4_stops_at_a_bit_for_bit_fixed_point():
    # the flow settles on the positive equilibrium and step 4,305 is the
    # last to move a bit: every sample after it is that state, and the
    # reference RK4 on `_field` agrees on the whole horizon (above)
    p = mq.Parameters(0.5, 0.9, 0.3, 0.05, 0.01)
    traj = mq.integrate_flow(p, mq.State(2.0, 0.1), mq.OdeConfig(step=0.05, t_end=1000.0))
    xs, ys = traj.xs, traj.ys
    assert len(xs) == 20_001
    assert (xs[4304], ys[4304]) != (xs[4305], ys[4305])
    assert (xs[4305:] == xs[-1]).all() and (ys[4305:] == ys[-1]).all()
    assert _field(p, xs[-1], ys[-1]) != (0.0, 0.0)  # frozen by rounding, not a root


def test_flow_pole_raises_an_integration_error_from_the_division():
    # at x = 1, h = 1, d0 = 4.25: k1x = 0.5 - 0.25 - 4.25 = -4, and the
    # second stage lands exactly on the pole x = 1 + 0.5 k1x = -1
    p = mq.Parameters(0.5, 0.5, 0.5, 4.25, 0.0)
    with pytest.raises(mq.IntegrationError, match=r"^vector field pole reached \(x = -1\)$") as info:
        mq.integrate_flow(p, mq.State(1.0, 1.0), mq.OdeConfig(step=1.0, t_end=1.0))
    assert isinstance(info.value.__cause__, ZeroDivisionError)


@pytest.mark.parametrize("rates, s0, t_end, where", [
    # finite, but below x = -0.5
    ((0.5, 0.5, 0.5, 0.0, 1.8), (1.0, 0.0), 1.0, "t=1: x=-0.9506997135066222, y=0.5661784001449187"),
    # x overflows, y stays finite
    ((1.0, 1e308, 1.0, 0.0, 0.0), (1.0, 1.0), 1.0, "t=1: x=inf, y=0.9791666666666666"),
    # y overflows downward
    ((1.0, 0.5, 1.0, 0.0, 0.0), (1.0, 1e308), 1.0, "t=1: x=inf, y=-inf"),
    # nan after 40 steps
    ((0.5, 0.5, 0.5, 200.0, 0.0), (1.0, 1.0), 50.0, "t=40: x=nan, y=nan"),
])
def test_flow_leaving_the_admissible_region_names_the_step(rates, s0, t_end, where):
    with pytest.raises(mq.IntegrationError) as info:
        mq.integrate_flow(mq.Parameters(*rates), mq.State(*s0), mq.OdeConfig(step=1.0, t_end=t_end))
    assert str(info.value) == f"integration left the admissible region at {where}"
