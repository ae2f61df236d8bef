"""Origin linearization: Jacobian, eigenvalues, classification, fixed points.

The closed-form eigenvalues are cross-checked against numpy's companion
matrix solver on the characteristic polynomial, an independent route,
and the classification against the signs of p(1) and p(-1) taken in
exact rationals.
"""

import math
import sys
from fractions import Fraction

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


def eigenvalues(p: mq.Parameters) -> tuple[float, float]:
    rep = mq.classify_origin(p)
    return rep.lambda1, rep.lambda2


# ------------------------------------------------------------ frozen values


def test_jacobian_frozen():
    assert mq.classify_origin(REF1).jacobian == ((0.4, 0.5), (0.6, 0.52))


def test_eigenvalues_frozen():
    l1, l2 = eigenvalues(REF1)
    assert l1 == pytest.approx(1.0109990925582364, abs=1e-12)
    assert l2 == pytest.approx(-0.09099909255823646, abs=1e-12)
    # rounded values often quoted for this configuration
    assert l1 == pytest.approx(1.011000, abs=1e-6)
    assert l2 == pytest.approx(-0.091000, abs=1e-6)


def test_eigenvalues_frozen_attracting_case():
    l1, l2 = eigenvalues(mq.Parameters(0.5, 0.3, 0.6))
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
    numeric = np.sort(np.linalg.eigvals(np.asarray(rep.jacobian)).real)[::-1]
    assert rep.lambda1 == pytest.approx(numeric[0], abs=1e-12)
    assert rep.lambda2 == pytest.approx(numeric[1], abs=1e-12)
    assert rep.lambda1 >= rep.lambda2


# ------------------------------------------------------------- properties

rate = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
birth = st.floats(min_value=1e-3, max_value=3.0, allow_nan=False)


@given(alpha=rate, beta=birth, mu=rate)
def test_eigenvalues_match_charpoly_oracle(alpha, beta, mu):
    p = mq.Parameters(alpha, beta, mu)
    l1, l2 = eigenvalues(p)
    o1, o2 = charpoly_eigs(p)
    scale = max(1.0, abs(o1), abs(o2))
    assert abs(l1 - o1) <= 1e-12 * scale
    assert abs(l2 - o2) <= 1e-12 * scale
    assert l1 >= l2


@given(alpha=rate, beta=birth, mu=rate)
def test_vieta_identities(alpha, beta, mu):
    p = mq.Parameters(alpha, beta, mu)
    l1, l2 = eigenvalues(p)
    tr = 2.0 - alpha - mu
    det = (1.0 - alpha) * (1.0 - mu) - alpha * beta
    assert abs((l1 + l2) - tr) <= 1e-12 * max(1.0, abs(tr))
    assert abs(l1 * l2 - det) <= 1e-12 * max(1.0, abs(det))


@given(alpha=rate, mu=rate)
def test_equal_rates_give_unit_eigenvalue(alpha, mu):
    # when the birth and death rates coincide the leading eigenvalue is
    # exactly 1, so the origin is never hyperbolic
    p = mq.Parameters(alpha, mu, mu)
    l1, _ = eigenvalues(p)
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
    l1, l2 = eigenvalues(p)
    margin = min(abs(abs(l1) - 1.0), abs(abs(l2) - 1.0))
    assume(margin > 1e-8)
    inside = max(abs(l1), abs(l2)) < 1.0
    a, b = mq.stability_inequalities(p)
    assert (a and b) == inside


def jury_signs(p: mq.Parameters) -> tuple[int, int]:
    """The signs of p(1) = alpha (mu - beta) and
    p(-1) = (2 - alpha)(2 - mu) - alpha beta, in exact rationals."""
    a, b, m = Fraction(p.alpha), Fraction(p.beta), Fraction(p.mu)
    at_one, at_minus_one = a * (m - b), (2 - a) * (2 - m) - a * b
    return ((at_one > 0) - (at_one < 0), (at_minus_one > 0) - (at_minus_one < 0))


def sign_rule(signs: tuple[int, int]) -> mq.Classification:
    if 0 in signs:
        return mq.Classification.NONHYPERBOLIC
    if signs[0] != signs[1]:
        return mq.Classification.SADDLE
    return mq.Classification.ATTRACTING if signs[0] > 0 else mq.Classification.REPELLING


@pytest.mark.parametrize("surface", ["beta = mu", "lambda2 = -1"])
def test_label_is_the_sign_rule_next_to_each_critical_surface(surface):
    # alpha and mu log-uniform, beta a relative 10^-k off the surface
    # where p(1) = 0 or where p(-1) = 0, k uniform in [1, 16]: the label
    # is the exact sign rule, and the filtered float inequalities say
    # attracting exactly when it does, each one p(-1) > 0 and p(1) > 0
    # (the unfiltered ones disagree on about 5% of the draws next to
    # beta = mu)
    rng = np.random.default_rng(13)
    n = 4000
    alpha = 10.0 ** rng.uniform(-6.0, 0.0, n)
    mu = 10.0 ** rng.uniform(-4.0, 0.0, n)
    on = mu if surface == "beta = mu" else (2.0 - alpha) * (2.0 - mu) / alpha
    beta = on * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** -rng.uniform(1.0, 16.0, n))
    labels = set()
    for a, b, m in zip(alpha, beta, mu):
        p = mq.Parameters(a, b, m)
        signs = jury_signs(p)
        label = mq.classify_origin(p).classification
        assert label is sign_rule(signs), p
        inequalities = mq.stability_inequalities(p)
        assert all(inequalities) == (label is mq.Classification.ATTRACTING), p
        assert inequalities == (signs[1] > 0, signs[0] > 0), p
        labels.add(label)
    assert len(labels) >= 2


@pytest.mark.parametrize("rates, label", [
    ((0.5, 4.5, 0.5), mq.Classification.NONHYPERBOLIC),  # p(-1) = 0: lambda2 = -1
    ((0.5, 4.500000000000001, 0.5), mq.Classification.REPELLING),
    ((0.5, 4.499999999999999, 0.5), mq.Classification.SADDLE),
    ((0.6, 0.5000000000000001, 0.5), mq.Classification.SADDLE),  # one ulp above mu
    ((0.6, 0.49999999999999994, 0.5), mq.Classification.ATTRACTING),  # one ulp below
    ((1e-6, 0.49995, 0.5), mq.Classification.ATTRACTING),  # lambda1 = 1 - 5e-11
])
def test_classification_on_the_critical_surfaces(rates, label):
    p = mq.Parameters(*rates)
    assert mq.classify_origin(p).classification is label
    assert all(mq.stability_inequalities(p)) == (label is mq.Classification.ATTRACTING)


def test_eigenvalues_stay_finite_at_the_top_of_the_box():
    # (alpha - mu)^2 + 4 alpha beta overflows from beta about 4.5e307;
    # the root form taken does not, and numpy's solver agrees
    p = mq.Parameters(1.0, sys.float_info.max, 0.48)
    l1, l2 = eigenvalues(p)
    assert math.isfinite(l1) and math.isfinite(l2)
    numeric = np.sort(np.linalg.eigvals(np.asarray(mq.classify_origin(p).jacobian)).real)[::-1]
    assert abs(l1 - numeric[0]) <= 1e-12 * l1 and abs(l2 - numeric[1]) <= 1e-12 * l1
    assert mq.classify_origin(p).classification is mq.Classification.REPELLING


# ---------------------------------------------------------- fixed points


@pytest.mark.parametrize("p", [
    REF1, REF2, REF3,
    # relative gaps of 2e-11 between beta and mu, on both sides
    mq.Parameters(0.6, 0.50000000001, 0.5),
    mq.Parameters(0.6, 0.49999999999, 0.5),
    # tiny rates, where the nullcline's adults y = alpha x/((1+x) mu) are O(1)
    mq.Parameters(1e-12, 1e-8, 1e-12),
    # one ulp either side of mu: every g is inside its own rounding band
    mq.Parameters(0.6, 0.5000000000000001, 0.5),
    mq.Parameters(0.6, 0.49999999999999994, 0.5),
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
        mq.classify_origin(p)


def test_spectral_ops_reject_invalid_rates():
    with pytest.raises(ValueError):
        mq.classify_origin(mq.Parameters(1.5, 0.5, 0.5))


def test_equal_rates_allowed_for_spectral_ops():
    # spectral routines only need the linear part, which exists on the
    # beta = mu line even though the dichotomy statements exclude it
    p = mq.Parameters(0.9, 0.9, 0.9)
    l1, l2 = eigenvalues(p)
    assert l1 == pytest.approx(1.0, abs=1e-12)
    assert l2 == pytest.approx(-0.8, abs=1e-12)  # trace 0.2 minus leading 1.0
