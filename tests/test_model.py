"""Core operator tests.

Frozen expected values were computed independently with exact rational
arithmetic (fractions.Fraction over the exact binary values of the float
inputs) before being inlined here; the float pipeline must land within a
few ulps of the rational result.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import mosqdyn as mq
from mosqdyn.model import _field, _map


def exact_image(alpha, beta, mu, d0, d1, x, y):
    """Rational oracle for one step of the full map, exact arithmetic."""
    alpha, beta, mu, d0, d1, x, y = (F(v) for v in (alpha, beta, mu, d0, d1, x, y))
    em = alpha * x / (1 + x)
    return (beta * y - em - (d0 + d1 * x) * x + x, em - mu * y + y)


def ulps(value: float, n: int = 8) -> float:
    return n * max(math.ulp(abs(value)), math.ulp(1.0))


REF1 = mq.Parameters(0.6, 0.5, 0.48)
REF2 = mq.Parameters(0.4, 0.35, 0.3)
REF3 = mq.Parameters(0.9, 0.9, 0.88)


# ------------------------------------------------------------ frozen values


def test_step_full_map_frozen():
    p = mq.Parameters(0.6, 0.5, 0.48, 0.1, 0.05)
    s = mq.step(p, mq.State(1.0, 1.0))
    assert s.x == pytest.approx(1.05, abs=1e-15)
    assert s.y == pytest.approx(0.82, abs=1e-15)
    ex, ey = exact_image(0.6, 0.5, 0.48, 0.1, 0.05, 1.0, 1.0)
    assert abs(s.x - float(ex)) <= ulps(s.x)
    assert abs(s.y - float(ey)) <= ulps(s.y)


def test_step_reduced_frozen_decay_side():
    s = mq.step(REF1, mq.State(2.0, 0.1))
    assert s.x == pytest.approx(1.65, abs=1e-15)
    assert s.y == pytest.approx(0.452, abs=1e-15)
    ex, ey = exact_image(0.6, 0.5, 0.48, 0.0, 0.0, 2.0, 0.1)
    assert abs(s.x - float(ex)) <= ulps(s.x)
    assert abs(s.y - float(ey)) <= ulps(s.y)


def test_step_reduced_frozen_small_start():
    s = mq.step(REF3, mq.State(0.01, 0.2))
    # rational oracle gives 182.9/1010 and 33.2409.../1010 for these inputs
    assert s.x == pytest.approx(0.1810891089108911, abs=1e-15)
    assert s.y == pytest.approx(0.03291089108910891, abs=1e-16)
    ex, ey = exact_image(0.9, 0.9, 0.88, 0.0, 0.0, 0.01, 0.2)
    assert abs(s.x - float(ex)) <= ulps(s.x)
    assert abs(s.y - float(ey)) <= ulps(s.y)


def test_vector_field_frozen():
    dx, dy = _field(REF1, 2.0, 0.1)
    assert dx == pytest.approx(-0.35, abs=1e-15)
    assert dy == pytest.approx(0.352, abs=1e-15)


# ------------------------------------------------------------- validation


def test_validation_full_map_example():
    p = mq.Parameters(0.6, 0.5, 0.48, 0.1, 0.05)
    assert mq.validate_parameters(p, mq.Mode.GENERAL).valid
    rep = mq.validate_parameters(p, mq.Mode.REDUCED)
    assert not rep.valid
    assert "d0 = 0 and d1 = 0" in rep.failures


def test_validation_equal_rates_rejected_in_reduced_mode():
    rep = mq.validate_parameters(mq.Parameters(0.5, 0.5, 0.5), mq.Mode.REDUCED)
    assert not rep.valid
    assert rep.failures == ("beta != mu",)


@pytest.mark.parametrize(
    "bad",
    [
        mq.Parameters(0.0, 0.5, 0.5),
        mq.Parameters(1.2, 0.5, 0.5),
        mq.Parameters(0.5, 0.0, 0.5),
        mq.Parameters(0.5, -0.1, 0.5),
        mq.Parameters(0.5, 0.5, 0.0),
        mq.Parameters(0.5, 0.5, 1.0000001),
        mq.Parameters(0.5, 0.5, 0.4, -0.1, 0.0),
        mq.Parameters(0.5, 0.5, 0.4, 0.0, -0.1),
        mq.Parameters(float("nan"), 0.5, 0.4),
        mq.Parameters(0.5, float("inf"), 0.4),
    ],
)
def test_validation_rejects_out_of_range(bad):
    assert not mq.validate_parameters(bad, mq.Mode.GENERAL).valid
    with pytest.raises(ValueError):
        mq.require_valid(bad, mq.Mode.GENERAL)


@pytest.mark.parametrize(
    "p, mode, failures",
    [
        (mq.Parameters(float("nan"), 0.5, 0.4), mq.Mode.GENERAL, ("all parameters finite", "0 < alpha <= 1")),
        (mq.Parameters(0.5, float("nan"), 0.4), mq.Mode.REDUCED, ("all parameters finite", "beta > 0")),
        (mq.Parameters(0.5, float("inf"), 0.4), mq.Mode.REDUCED, ("all parameters finite",)),
        (mq.Parameters(0.5, 0.5, float("-inf")), mq.Mode.GENERAL, ("all parameters finite", "0 < mu <= 1")),
        (mq.Parameters(0.5, 0.5, 0.4, float("nan"), float("inf")), mq.Mode.GENERAL,
         ("all parameters finite", "d0 >= 0")),
    ],
)
def test_validation_names_only_the_constraints_that_fail(p, mode, failures):
    # a rate that is not finite fails the finiteness check and its own
    # range, never the ranges of the other rates
    assert mq.validate_parameters(p, mode).failures == failures


def test_validation_mode_accepts_strings():
    assert mq.validate_parameters(REF1, "reduced").valid
    assert mq.validate_parameters(REF1, "general").valid


def test_state_rejects_bad_values():
    with pytest.raises(ValueError):
        mq.State(-1e-9, 0.0)
    with pytest.raises(ValueError):
        mq.State(0.0, -2.0)
    with pytest.raises(ValueError):
        mq.State(float("nan"), 0.0)
    with pytest.raises(ValueError):
        mq.State(0.0, float("inf"))


def test_parameters_coerced_to_float():
    p = mq.Parameters(1, 2, 1)
    assert isinstance(p.alpha, float) and p.alpha == 1.0
    s = mq.State(1, 2)
    assert isinstance(s.x, float) and (s.x, s.y) == (1.0, 2.0)


def test_step_requires_valid_parameters():
    with pytest.raises(ValueError):
        mq.step(mq.Parameters(1.5, 0.5, 0.5), mq.State(1.0, 1.0))


# ------------------------------------------------------------- properties

rates = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
birth = st.floats(min_value=1e-3, max_value=3.0, allow_nan=False)
coords = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
mortality = st.floats(min_value=0.0, max_value=0.04, allow_nan=False)


@given(alpha=rates, beta=birth, mu=rates, d0=mortality, d1=mortality,
       x=st.floats(min_value=0.0, max_value=10.0), y=st.floats(min_value=0.0, max_value=10.0))
# reduced rates, where the orbit loop is checked too; an image off the quadrant
@example(alpha=0.6, beta=0.5, mu=0.99, d0=0.0, d1=0.0, x=3.0, y=7.5)
@example(alpha=1.0, beta=0.5, mu=0.5, d0=0.04, d1=0.0, x=0.001, y=0.0)
def test_step_is_the_map_kernel(alpha, beta, mu, d0, d1, x, y):
    # bit for bit: `step` is the kernel both orbit loops run; that the map
    # is the identity plus `_field` is proved in tests/test_proofs.py
    p = mq.Parameters(alpha, beta, mu, d0, d1)
    s = mq.State(x, y)
    image = _map(p, x, y)
    if min(image) < 0.0:
        # heavy larval mortality leaves the quadrant; the step must say so
        with pytest.raises(ValueError):
            mq.step(p, s)
        return
    t = mq.step(p, s)
    assert (t.x, t.y) == image
    _, xs, ys = mq.iterate_general(p, s, 1)
    assert (xs[1], ys[1]) == image
    if d0 == d1 == 0.0 and beta != mu:
        orb = mq.iterate_orbit(p, s, mq.OrbitConfig(max_iters=1))
        if orb.n_steps == 1:
            assert (orb.xs[1], orb.ys[1]) == image


@given(alpha=rates, beta=birth, mu=rates, x=coords, y=coords)
def test_reduced_map_preserves_quadrant(alpha, beta, mu, x, y):
    assume(abs(beta - mu) > 1e-9)
    p = mq.Parameters(alpha, beta, mu)
    s = mq.step(p, mq.State(x, y))
    assert s.x >= 0.0
    assert s.y >= 0.0


@given(alpha=rates, beta=birth, mu=rates, x=coords, y=coords)
# y' = e + (1 - mu) y lands within an ulp of the exact image here, while
# the form y + (e - mu y) misses it by 37 ulps
@example(alpha=0.6, beta=0.5, mu=0.99, x=3.0, y=123456.7)
def test_reduced_step_matches_rational_oracle(alpha, beta, mu, x, y):
    assume(abs(beta - mu) > 1e-9)
    assume(x < 1e6 and y < 1e6)
    p = mq.Parameters(alpha, beta, mu)
    s = mq.step(p, mq.State(x, y))
    ex, ey = exact_image(alpha, beta, mu, 0.0, 0.0, x, y)
    assert abs(s.x - float(ex)) <= ulps(s.x, 16)
    assert abs(s.y - float(ey)) <= ulps(s.y, 16)


def test_reduced_invariance_randomized_bulk():
    import numpy as np

    rng = np.random.default_rng(421)
    for _ in range(10_000):
        a, b, m = 1.0 - rng.random(3)
        if b == m:
            continue
        p = mq.Parameters(float(a), float(b), float(m))
        s = mq.step(p, mq.State(float(rng.uniform(0, 1e6)), float(rng.uniform(0, 1e6))))
        assert s.x >= 0.0 and s.y >= 0.0


def test_full_map_invariance_on_subcritical_domain():
    # with d0 + d1*x <= (1 + x - alpha)/(1 + x) on the sampled window the
    # full map cannot leave the quadrant either
    import numpy as np

    rng = np.random.default_rng(422)
    for _ in range(10_000):
        a, b, m = 1.0 - rng.random(3)
        p = mq.Parameters(float(a), float(b), float(m),
                          float(rng.uniform(0, 0.04)), float(rng.uniform(0, 0.004)))
        s = mq.step(p, mq.State(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))))
        assert s.x >= 0.0 and s.y >= 0.0


def test_full_map_can_leave_quadrant_with_heavy_mortality():
    # documents the boundary of the invariance statement: heavy larval
    # mortality pushes x negative and the State constructor surfaces it
    p = mq.Parameters(0.5, 0.5, 0.5, 2.0, 0.0)
    with pytest.raises(ValueError):
        mq.step(p, mq.State(1.0, 0.1))


# `_slack` takes a Python float, a numpy scalar or an array.  np.float64
# subclasses float and has a .shape, so the scalar branch must be chosen
# by what the value is, not by what it looks like: a numpy scalar or a
# 0-d array takes `max`, and keeps numpy's scalar type only where the
# scaled size wins, while a 1-d array takes the elementwise maximum.
EIGHT_ULPS = 8 * 2.0 ** -52


@pytest.mark.parametrize("make", [float, "float64", "0-d"])
@pytest.mark.parametrize("size, floor, expected, scaled_wins", [
    (1.0, 1e-12, 1e-12, False),
    (1.0, 0.0, EIGHT_ULPS, True),
    (-1e6, 1e-12, 1e6 * EIGHT_ULPS, True),
])
def test_slack_of_a_scalar_keeps_its_value_and_type(make, size, floor, expected, scaled_wins):
    import numpy as np

    value = {float: float, "float64": np.float64, "0-d": np.array}[make](size)
    got = mq.model._slack(value, floor)
    assert got == expected
    # `max` returns the floor, a Python float, unless the scaled size is larger
    want = np.float64 if scaled_wins and make != float else float
    assert type(got) is want


def test_slack_of_an_array_is_elementwise():
    import numpy as np

    got = mq.model._slack(np.array([1.0, -1e6, 1e300]), 1e-12)
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.tolist() == [1e-12, 1e6 * EIGHT_ULPS, 1e300 * EIGHT_ULPS]
    assert mq.model._slack(np.array([1.0]), 0.0).tolist() == [EIGHT_ULPS]
