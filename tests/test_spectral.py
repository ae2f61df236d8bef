"""Origin linearization: Jacobian, eigenvalues, classification, fixed points.

The closed-form eigenvalues are cross-checked against numpy's companion
matrix solver on the characteristic polynomial, an independent route.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import mosqdyn as mq

REF1 = mq.Parameters(0.6, 0.5, 0.48)
REF2 = mq.Parameters(0.4, 0.35, 0.3)
REF3 = mq.Parameters(0.9, 0.9, 0.88)


def charpoly_eigs(p: mq.Parameters) -> tuple[float, float]:
    """Independent oracle: roots of t^2 - tr*t + det via np.roots."""
    tr = 2.0 - p.alpha - p.mu
    det = (1.0 - p.alpha) * (1.0 - p.mu) - p.alpha * p.beta
    roots = np.roots([1.0, -tr, det])
    roots = np.sort(roots.real)[::-1]
    return float(roots[0]), float(roots[1])


# ------------------------------------------------------------ frozen values


def test_jacobian_frozen():
    assert mq.jacobian_at_origin(REF1) == ((0.4, 0.5), (0.6, 0.52))


def test_eigenvalues_frozen():
    l1, l2 = mq.origin_eigenvalues(REF1)
    assert l1 == pytest.approx(1.0109990925582364, abs=1e-12)
    assert l2 == pytest.approx(-0.09099909255823646, abs=1e-12)
    # rounded values often quoted for this configuration
    assert l1 == pytest.approx(1.011000, abs=1e-6)
    assert l2 == pytest.approx(-0.091000, abs=1e-6)


def test_eigenvalues_frozen_attracting_case():
    l1, l2 = mq.origin_eigenvalues(mq.Parameters(0.5, 0.3, 0.6))
    assert l1 == pytest.approx(0.8405124837953327, abs=1e-12)
    assert l2 == pytest.approx(0.0594875162046673, abs=1e-12)


def test_classification_examples():
    assert mq.classify_origin(REF1).classification is mq.Classification.SADDLE
    rep = mq.classify_origin(mq.Parameters(0.5, 0.3, 0.6))
    assert rep.classification is mq.Classification.ATTRACTING
    assert mq.classify_origin(mq.Parameters(0.9, 0.9, 0.9)).classification \
        is mq.Classification.NONHYPERBOLIC


def test_stability_inequalities_frozen():
    assert mq.stability_inequalities(REF1) == (True, False)
    assert mq.stability_inequalities(mq.Parameters(0.5, 0.3, 0.6)) == (True, True)


def test_report_carries_consistent_fields():
    rep = mq.classify_origin(REF2)
    assert rep.jacobian == mq.jacobian_at_origin(REF2)
    assert (rep.lambda1, rep.lambda2) == mq.origin_eigenvalues(REF2)
    assert rep.lambda1 >= rep.lambda2


# ------------------------------------------------------------- properties

rate = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
birth = st.floats(min_value=1e-3, max_value=3.0, allow_nan=False)


@given(alpha=rate, beta=birth, mu=rate)
def test_eigenvalues_match_charpoly_oracle(alpha, beta, mu):
    p = mq.Parameters(alpha, beta, mu)
    l1, l2 = mq.origin_eigenvalues(p)
    o1, o2 = charpoly_eigs(p)
    scale = max(1.0, abs(o1), abs(o2))
    assert abs(l1 - o1) <= 1e-12 * scale
    assert abs(l2 - o2) <= 1e-12 * scale
    assert l1 >= l2


@given(alpha=rate, beta=birth, mu=rate)
def test_vieta_identities(alpha, beta, mu):
    p = mq.Parameters(alpha, beta, mu)
    l1, l2 = mq.origin_eigenvalues(p)
    tr = 2.0 - alpha - mu
    det = (1.0 - alpha) * (1.0 - mu) - alpha * beta
    assert abs((l1 + l2) - tr) <= 1e-12 * max(1.0, abs(tr))
    assert abs(l1 * l2 - det) <= 1e-12 * max(1.0, abs(det))


@given(alpha=rate, mu=rate)
def test_equal_rates_give_unit_eigenvalue(alpha, mu):
    # when the birth and death rates coincide the leading eigenvalue is
    # exactly 1, so the origin is never hyperbolic
    p = mq.Parameters(alpha, mu, mu)
    l1, _ = mq.origin_eigenvalues(p)
    assert abs(l1 - 1.0) <= 1e-9
    assert mq.classify_origin(p).classification is mq.Classification.NONHYPERBOLIC


@given(alpha=rate, beta=rate, mu=rate)
def test_classification_tracks_rate_ordering(alpha, beta, mu):
    # away from the beta = mu line, extinction-side rates attract and
    # growth-side rates give a saddle (beta <= 1 rules out repelling)
    assume(abs(beta - mu) > 1e-6)
    p = mq.Parameters(alpha, beta, mu)
    cls = mq.classify_origin(p).classification
    if beta < mu:
        assert cls is mq.Classification.ATTRACTING
    else:
        assert cls is mq.Classification.SADDLE


@given(alpha=rate, beta=birth, mu=rate)
def test_stability_inequalities_equivalent_to_modulus(alpha, beta, mu):
    p = mq.Parameters(alpha, beta, mu)
    l1, l2 = mq.origin_eigenvalues(p)
    margin = min(abs(abs(l1) - 1.0), abs(abs(l2) - 1.0))
    assume(margin > 1e-8)
    inside = max(abs(l1), abs(l2)) < 1.0
    a, b = mq.stability_inequalities(p)
    assert (a and b) == inside


# ---------------------------------------------------------- fixed points


@pytest.mark.parametrize("p", [
    REF1, REF2, REF3,
    # relative gaps of 2e-11 between beta and mu, on both sides
    mq.Parameters(0.6, 0.50000000001, 0.5),
    mq.Parameters(0.6, 0.49999999999, 0.5),
    # tiny rates, where the nullcline's adults y = alpha x/((1+x) mu) are O(1)
    mq.Parameters(1e-12, 1e-8, 1e-12),
])
def test_origin_is_only_fixed_point(p):
    pts = mq.find_fixed_points(p)
    assert len(pts) == 1
    assert (pts[0].x, pts[0].y) == (0.0, 0.0)


@pytest.mark.parametrize("alpha", [0.6, 1e-9, 1e-12])
def test_fixed_point_scan_finds_a_curve_of_fixed_points(monkeypatch, alpha):
    # with beta = mu the map fixes every state with mu*y = alpha*x/(1+x);
    # the relative residual must still report them, at tiny alpha too
    field = mq.spectral._field
    monkeypatch.setattr(mq.spectral, "_field", lambda p, x, y: field(mq.Parameters(p.alpha, p.mu, p.mu), x, y))
    with pytest.raises(mq.VerificationError, match="away from the origin"):
        mq.find_fixed_points(mq.Parameters(alpha, 0.5, 0.3))


def test_fixed_point_scan_fails_on_non_finite_increments():
    # beta * e / mu overflows on the nullcline from x about 1; an inf
    # increment must not count as "no fixed point"
    with pytest.raises(mq.VerificationError, match=r"fixed-point scan: \d+ of the 1000 nullcline increments are not finite"):
        mq.find_fixed_points(mq.Parameters(1.0, 1.7e308, 0.48))


# ------------------------------------------------------------ error paths


def test_spectral_ops_reject_full_map_parameters():
    p = mq.Parameters(0.6, 0.5, 0.48, 0.1, 0.0)
    with pytest.raises(ValueError):
        mq.origin_eigenvalues(p)
    with pytest.raises(ValueError):
        mq.classify_origin(p)


def test_spectral_ops_reject_invalid_rates():
    with pytest.raises(ValueError):
        mq.jacobian_at_origin(mq.Parameters(1.5, 0.5, 0.5))


def test_equal_rates_allowed_for_spectral_ops():
    # spectral routines only need the linear part, which exists on the
    # beta = mu line even though the dichotomy statements exclude it
    p = mq.Parameters(0.9, 0.9, 0.9)
    l1, l2 = mq.origin_eigenvalues(p)
    assert l1 == pytest.approx(1.0, abs=1e-12)
    assert l2 == pytest.approx(-0.8, abs=1e-12)  # trace 0.2 minus leading 1.0
