"""Simplex projection and periodic-point exclusion machinery.

The quadratic certificate coefficients are checked against an exact
rational recomputation, and the interval-map roots found by scanning are
cross-checked against the cubic that interior fixed points must satisfy,
an independent route.
"""

from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mosqdyn as mq
from mosqdyn.simplex import _two_cycle_coefficients, _verify_two_cycle_reduction_identity, interval_map_parts

REF1 = mq.Parameters(0.6, 0.5, 0.48)
REF2 = mq.Parameters(0.4, 0.35, 0.3)
REF3 = mq.Parameters(0.9, 0.9, 0.88)


def exact_coefficients(alpha, beta, mu):
    a, b, m = F(alpha), F(beta), F(mu)
    qa = (1 - b) * (b - 2) + (b - m + 1) * (b - m)
    qb = (b - 2) * (b - m - a + 2) - b * (b - m)
    qc = (b - m + 1) * (a + m - b - 2) + b * (b - 1)
    return qa, qb, qc


def fixed_point_cubic(p, r):
    """Residual of the cubic every interior fixed point of T satisfies."""
    return ((p.mu - p.beta) * r**3 + p.beta * r**2
            + (p.alpha + p.beta - p.mu) * r - p.beta)


# ------------------------------------------------------------ simplex map


def test_simplex_image_of_pure_adult_state():
    s = mq.simplex_step(REF1, mq.State(0.0, 1.0))
    assert s.x == pytest.approx(0.5 / 1.02, abs=1e-15)
    assert s.y == pytest.approx(0.52 / 1.02, abs=1e-15)


def test_simplex_step_rejects_off_simplex_states():
    with pytest.raises(ValueError):
        mq.simplex_step(REF1, mq.State(0.5, 0.6))
    with pytest.raises(ValueError):
        mq.simplex_step(REF1, mq.State(0.0, 0.0))


@given(x=st.floats(min_value=0.0, max_value=1.0),
       alpha=st.floats(min_value=1e-3, max_value=1.0),
       beta=st.floats(min_value=1e-3, max_value=3.0),
       mu=st.floats(min_value=1e-3, max_value=1.0))
def test_simplex_map_agrees_with_interval_coordinate(x, alpha, beta, mu):
    if abs(beta - mu) < 1e-9:
        return
    p = mq.Parameters(alpha, beta, mu)
    s = mq.simplex_step(p, mq.State(x, 1.0 - x))
    assert abs((s.x + s.y) - 1.0) <= 1e-12
    t = mq.interval_map(p, x)
    assert abs(s.x - t) <= 1e-12
    assert abs(s.y - (1.0 - t)) <= 1e-12


# ------------------------------------------------------------ interval map


def test_interval_map_endpoints_frozen():
    assert mq.interval_map(REF1, 0.0) == pytest.approx(0.49019607843137253, abs=1e-16)
    assert mq.interval_map(REF1, 1.0) == pytest.approx(0.7, abs=1e-15)


@pytest.mark.parametrize("p", [REF1, REF2, REF3])
def test_interval_map_preserves_unit_interval(p):
    assert mq.check_interval_map_range(p)


@given(alpha=st.floats(min_value=1e-3, max_value=1.0),
       beta=st.floats(min_value=1e-3, max_value=3.0),
       mu=st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=40)
def test_interval_map_range_randomized(alpha, beta, mu):
    if abs(beta - mu) < 1e-9:
        return
    assert mq.check_interval_map_range(mq.Parameters(alpha, beta, mu), grid_n=201)


def test_interval_map_range_argument_validation():
    with pytest.raises(ValueError):
        mq.check_interval_map_range(REF1, grid_n=1)


# ------------------------------------------------------ two-cycle algebra


def test_certificate_coefficients_frozen():
    cert = mq.two_cycle_certificate(REF1)
    assert cert.quad_a == pytest.approx(-0.7296, abs=1e-15)
    assert cert.quad_b == pytest.approx(-2.14, abs=1e-14)
    assert cert.quad_c == pytest.approx(-1.6984, abs=1e-15)
    assert cert.signs_ok
    assert cert.scanned_periods == (2, 2)


@pytest.mark.parametrize("p", [REF1, REF2, REF3])
def test_certificate_matches_rational_oracle(p):
    cert = mq.two_cycle_certificate(p)
    qa, qb, qc = exact_coefficients(p.alpha, p.beta, p.mu)
    assert cert.quad_a == pytest.approx(float(qa), abs=1e-13)
    assert cert.quad_b == pytest.approx(float(qb), abs=1e-13)
    assert cert.quad_c == pytest.approx(float(qc), abs=1e-13)
    assert qa + qb + qc < 0 and qb < 0 and qc < 0


@given(alpha=st.floats(min_value=1e-3, max_value=1.0),
       beta=st.floats(min_value=1e-3, max_value=5.0),
       mu=st.floats(min_value=1e-3, max_value=1.0))
def test_certificate_signs_hold_across_admissible_rates(alpha, beta, mu):
    if abs(beta - mu) < 1e-9:
        return
    cert = mq.two_cycle_certificate(mq.Parameters(alpha, beta, mu))
    assert cert.signs_ok
    # the coefficient sum collapses to alpha*(3 - mu) + 4*mu - 8
    collapsed = alpha * (3.0 - mu) + 4.0 * mu - 8.0
    assert cert.quad_a + cert.quad_b + cert.quad_c == pytest.approx(collapsed, abs=1e-9)
    assert collapsed <= -2.0 + 1e-12


def test_reduction_identity_rejects_corrupted_coefficients():
    cert = mq.two_cycle_certificate(REF1)
    with pytest.raises(mq.VerificationError):
        _verify_two_cycle_reduction_identity(REF1, cert.quad_a + 0.1, cert.quad_b, cert.quad_c)
    with pytest.raises(mq.VerificationError):
        _verify_two_cycle_reduction_identity(REF1, -cert.quad_a, -cert.quad_b, -cert.quad_c)


def test_reduction_identity_holds_symbolically():
    # the identity the 33-point spot check samples, proved once over
    # symbolic rates with the library's own coefficient and map formulas
    sympy = pytest.importorskip("sympy")
    x, alpha, beta, mu = sympy.symbols("x alpha beta mu")
    p = SimpleNamespace(alpha=alpha, beta=beta, mu=mu)
    qa, qb, qc = _two_cycle_coefficients(p)
    num1, den1 = interval_map_parts(p, x)
    # T(T(x)) = num2 / den2 after clearing den1**2 from both parts
    num2, den2 = (sympy.cancel(part * den1**2) for part in interval_map_parts(p, num1 / den1))
    identity = (num2 - x * den2) + (num1 - x * den1) * (qa * x**2 + qb * x + qc)
    assert sympy.expand(sympy.nsimplify(identity, rational=True)) == 0


def test_certificate_json_shape():
    d = mq.two_cycle_certificate(REF1).to_json()
    assert d["alpha"] == 0.6 and d["beta"] == 0.5 and d["mu"] == 0.48
    assert d["signs_ok"] is True
    assert d["scanned_periods"] == [2, 2]
    assert d["roots_by_period"] == {}
    assert d["spurious_roots"] == []


# ---------------------------------------------------------- periodic scan


def cubic_root_oracle(p):
    """The unique root in (0, 1) of the interior fixed-point cubic,
    straight from numpy's companion-matrix solver."""
    roots = np.roots([p.mu - p.beta, p.beta, p.alpha + p.beta - p.mu, -p.beta])
    real = roots[np.abs(roots.imag) < 1e-12].real
    inside = real[(real > 0.0) & (real < 1.0)]
    assert len(inside) == 1
    return float(inside[0])


@pytest.mark.parametrize("p", [REF1, REF3])
def test_scan_finds_only_the_interior_fixed_point(p):
    expected = cubic_root_oracle(p)
    cert = mq.scan_periodic_points(p, p_max=8, grid_n=4001)
    assert cert.scanned_periods == (2, 8)
    assert cert.spurious_roots == ()
    for q in range(2, 9):
        roots = cert.roots_by_period[q]
        assert len(roots) == 1
        assert roots[0] == pytest.approx(expected, abs=1e-9)
        # same point by an independent route: the fixed-point cubic
        assert abs(fixed_point_cubic(p, roots[0])) < 1e-9


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        mq.scan_periodic_points(REF1, p_max=1)
    with pytest.raises(ValueError):
        mq.scan_periodic_points(REF1, grid_n=5)


def test_simplex_iteration_converges_to_scanned_root():
    s = mq.State(0.0, 1.0)
    for _ in range(300):
        s = mq.simplex_step(REF1, s)
    assert s.x == pytest.approx(0.5595799440085467, abs=1e-12)
    t = 0.3
    for _ in range(300):
        t = mq.interval_map(REF1, t)
    assert t == pytest.approx(0.5595799440085467, abs=1e-12)


# -------------------------------------------------------- planar two-cycle


def test_two_cycle_reduction_vacuous_and_origin_cases():
    assert mq.check_two_cycle_reduction(REF1, mq.State(1.0, 1.0))
    assert mq.check_two_cycle_reduction(REF1, mq.State(0.0, 0.0))


def test_two_cycle_reduction_raises_on_claimed_cycle():
    # an absurd tolerance turns every state into a "two-periodic" one;
    # the certificate must then refuse the off-origin state loudly
    with pytest.raises(mq.VerificationError):
        mq.check_two_cycle_reduction(REF1, mq.State(1.0, 1.0), periodic_tol=1e9)


@pytest.mark.parametrize("p,n", [(REF1, 500), (REF2, 251), (REF3, 251)])
def test_no_two_cycles_on_grid(p, n):
    assert mq.count_two_cycles_on_grid(p, x_max=5.0, y_max=5.0, n=n) == 0


@given(alpha=st.floats(min_value=0.05, max_value=1.0),
       beta=st.floats(min_value=0.05, max_value=2.0),
       mu=st.floats(min_value=0.05, max_value=1.0),
       x=st.floats(min_value=0.0, max_value=10.0),
       y=st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=40)
def test_two_cycle_reduction_randomized(alpha, beta, mu, x, y):
    if abs(beta - mu) < 1e-9:
        return
    assert mq.check_two_cycle_reduction(mq.Parameters(alpha, beta, mu), mq.State(x, y))
