"""Simplex projection and periodic-point exclusion machinery.

The quadratic certificate coefficients are checked against an exact
rational recomputation, and the interval-map roots found by scanning are
cross-checked against the cubic that interior fixed points must satisfy,
an independent route.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mosqdyn as mq
from mosqdyn.simplex import _verify_two_cycle_reduction_identity

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


def simplex_step(p, x, y):
    """The induced simplex map U(s) = F(s) / (F_x + F_y), F the reduced
    map's step: a route to T that does not go through its polynomials."""
    s = mq.step(p, mq.State(x, y))
    return s.x / (s.x + s.y), s.y / (s.x + s.y)


def test_simplex_image_of_pure_adult_state():
    x, y = simplex_step(REF1, 0.0, 1.0)
    assert x == pytest.approx(0.5 / 1.02, abs=1e-15)
    assert y == pytest.approx(0.52 / 1.02, abs=1e-15)


@given(x=st.floats(min_value=0.0, max_value=1.0),
       alpha=st.floats(min_value=1e-3, max_value=1.0),
       beta=st.floats(min_value=1e-3, max_value=3.0),
       mu=st.floats(min_value=1e-3, max_value=1.0))
def test_simplex_map_agrees_with_interval_coordinate(x, alpha, beta, mu):
    if abs(beta - mu) < 1e-9:
        return
    p = mq.Parameters(alpha, beta, mu)
    sx, sy = simplex_step(p, x, 1.0 - x)
    assert abs((sx + sy) - 1.0) <= 1e-12
    t = mq.interval_map(p, x)
    assert abs(sx - t) <= 1e-12
    assert abs(sy - (1.0 - t)) <= 1e-12


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
    roots_by_period = mq.scan_periodic_points(p, p_max=8, grid_n=4001)
    assert sorted(roots_by_period) == list(range(2, 9))
    for q in range(2, 9):
        roots = roots_by_period[q]
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
    x, y = 0.0, 1.0
    for _ in range(300):
        x, y = simplex_step(REF1, x, y)
    assert x == pytest.approx(0.5595799440085467, abs=1e-12)
    t = 0.3
    for _ in range(300):
        t = mq.interval_map(REF1, t)
    assert t == pytest.approx(0.5595799440085467, abs=1e-12)


# -------------------------------------------------------- planar two-cycle


@pytest.mark.parametrize("p", [REF1, REF2, REF3])
def test_no_two_cycles_on_grid(p):
    assert mq.count_two_cycles_on_grid(p) == 0


def test_grid_counts_a_genuine_two_cycle(monkeypatch):
    # under the swap (x, y) -> (y, x) every off-diagonal state is a
    # two-cycle and every diagonal state a fixed point, which is not one;
    # like the real kernel, the stand-in returns new arrays
    monkeypatch.setattr(mq.simplex, "_map", lambda p, x, y: (y.copy(), x.copy()))
    assert mq.count_two_cycles_on_grid(REF1) == 500 * 500 - 500
