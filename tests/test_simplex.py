"""Simplex projection and periodic-point exclusion machinery.

The quadratic certificate coefficients are checked against an exact
rational recomputation, and the interval-map roots found by scanning are
cross-checked against the cubic that interior fixed points must satisfy,
an independent route.
"""

import ast
import math
import re
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mosqdyn as mq

REF1 = mq.Parameters(0.6, 0.5, 0.48)
REF2 = mq.Parameters(0.4, 0.35, 0.3)
REF3 = mq.Parameters(0.9, 0.9, 0.88)


def exact_coefficients(alpha, beta, mu):
    a, b, m = F(alpha), F(beta), F(mu)
    qa = (1 - b) * (b - 2) + (b - m + 1) * (b - m)
    qb = (b - 2) * (b - m - a + 2) - b * (b - m)
    qc = (b - m + 1) * (a + m - b - 2) + b * (b - 1)
    return qa, qb, qc


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: min(hi, 10.0**e))


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
    assert mq.check_interval_map_range(mq.Parameters(alpha, beta, mu))


def test_exact_decisions_hold_at_the_extremes_of_the_admissible_box():
    # subnormal and unit rates, and beta up to the largest double: the
    # exact arithmetic neither rounds (its Inexact trap stays silent) nor
    # gives a wrong sign
    edges = [5e-324, sys.float_info.min, 1e-12, 0.3, 1.0]
    betas = [5e-324, 1e-8, 0.7, 1.0, 3.0, 1e8, sys.float_info.max]
    for alpha in edges:
        for beta in betas:
            for mu in edges:
                if beta != mu:
                    p = mq.Parameters(alpha, beta, mu)
                    assert mq.check_interval_map_range(p), p
                    assert mq.two_cycle_certificate(p).signs_ok, p
    # at beta = DBL_MAX the reported coefficients are the exact values
    # rounded once, without raising: A = 3.04 beta + ... and C =
    # -2.04 beta + ... overflow, B = -beta - 1.04 rounds to -beta
    cert = mq.two_cycle_certificate(mq.Parameters(1.0, sys.float_info.max, 0.48))
    assert (cert.quad_a, cert.quad_b, cert.quad_c) == (math.inf, -sys.float_info.max, -math.inf)


# ------------------------------------------------------ two-cycle algebra


def test_certificate_coefficients_frozen():
    cert = mq.two_cycle_certificate(REF1)
    assert cert.quad_a == pytest.approx(-0.7296, abs=1e-15)
    assert cert.quad_b == pytest.approx(-2.14, abs=1e-14)
    assert cert.quad_c == pytest.approx(-1.6984, abs=1e-15)
    assert cert.signs_ok


@pytest.mark.parametrize("p", [REF1, REF2, REF3, mq.Parameters(1.0, 1e12, 0.48), mq.Parameters(1.0, 1e16, 0.48)])
def test_certificate_matches_rational_oracle(p):
    # the reported coefficients are the exact ones, each rounded once: a
    # float evaluation would cancel beta-sized terms
    cert = mq.two_cycle_certificate(p)
    qa, qb, qc = exact_coefficients(p.alpha, p.beta, p.mu)
    assert (cert.quad_a, cert.quad_b, cert.quad_c) == (float(qa), float(qb), float(qc))
    assert qa + qb + qc < 0 and qb < 0 and qc < 0


@given(alpha=st.floats(min_value=1e-3, max_value=1.0) | log_uniform(1e-12, 1.0),
       beta=st.floats(min_value=1e-3, max_value=5.0) | log_uniform(1e-8, 1e8),
       mu=st.floats(min_value=1e-3, max_value=1.0) | log_uniform(1e-12, 1.0))
def test_certificate_signs_hold_across_admissible_rates(alpha, beta, mu):
    if abs(beta - mu) < 1e-9:
        return
    p = mq.Parameters(alpha, beta, mu)
    cert = mq.two_cycle_certificate(p)
    assert cert.signs_ok
    assert mq.check_interval_map_range(p)
    # the coefficient sum collapses to alpha*(3 - mu) + 4*mu - 8: exactly,
    # and in floats while beta is small enough not to swamp it
    a, m = F(alpha), F(mu)
    assert sum(exact_coefficients(alpha, beta, mu)) == a * (3 - m) + 4 * m - 8
    collapsed = alpha * (3.0 - mu) + 4.0 * mu - 8.0
    if beta <= 5.0:
        assert cert.quad_a + cert.quad_b + cert.quad_c == pytest.approx(collapsed, abs=1e-9)
    assert collapsed <= -2.0 + 1e-12


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
    roots_by_period = mq.scan_periodic_points(p)
    assert sorted(roots_by_period) == list(range(2, 9))
    for q in range(2, 9):
        roots = roots_by_period[q]
        assert len(roots) == 1
        assert roots[0] == pytest.approx(expected, abs=1e-9)
        # same point by an independent route: the fixed-point cubic
        assert abs(fixed_point_cubic(p, roots[0])) < 1e-9


def test_scan_fails_on_non_finite_iterates(monkeypatch):
    # a stand-in T that returns nan makes every iterate from T^2 on nan:
    # there is nothing to scan, which must not pass
    monkeypatch.setattr(mq.simplex, "interval_map", lambda p, x: x * math.nan)
    with pytest.raises(mq.VerificationError, match=r"10000 of the 10000 iterates T\^2\(x\) are not finite"):
        mq.scan_periodic_points(REF1)


@pytest.mark.parametrize("beta", [0.5, 1e8, 1e16, 1e18, 1e300, sys.float_info.max])
@pytest.mark.parametrize("alpha, mu", [(1.0, 0.48), (0.6, 0.48), (1e-6, 1.0)])
def test_interval_map_is_accurate_at_every_beta(alpha, beta, mu):
    # T adds nonnegative terms only, so it stays within a few ulps of the
    # exact a / b on [0, 1], x = 1 included, up to beta = DBL_MAX (the
    # expanded form was 1e-13 off at beta = 1e8 and 0/0 at 1 from 1e16)
    p = mq.Parameters(alpha, beta, mu)
    rng = np.random.default_rng(20)
    xs = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53, 1.0], rng.random(300), 1.0 - rng.random(100) * 1e-9])
    with np.errstate(all="raise"):
        ts = mq.interval_map(p, xs)
    a, b, m = F(alpha), F(beta), F(mu)
    for x, t in zip(xs.tolist(), ts.tolist()):
        x = F(x)
        exact = ((1 - b) * x * x + (1 - a) * x + b) / ((m - b) * x * x + x + (b - m + 1))
        assert 0.0 < t <= 1.0
        assert abs(F(t) - exact) <= exact * 8 * F(sys.float_info.epsilon)
    mq.scan_periodic_points(p)


def interval_map_applied(p, q, x):
    """q applications of `simplex.interval_map`, which is what
    `_interval_power` computes: the bisection's seam for a stand-in T."""
    for _ in range(q):
        x = mq.simplex.interval_map(p, x)
    return x


def _power_rates():
    rng = np.random.default_rng(28)
    fixed = [(alpha, beta, mu) for alpha, mu in [(1.0, 0.48), (0.6, 0.48), (1e-6, 1.0)]
             for beta in (0.5, 1e8, 1e16, 1e300, sys.float_info.max)]
    drawn = zip(rng.uniform(1e-6, 1.0, 10), 10.0 ** rng.uniform(-8, 308, 10), rng.uniform(1e-4, 1.0, 10))
    return [mq.Parameters(*(float(v) for v in c)) for c in fixed + list(drawn)]


@pytest.mark.parametrize("p", _power_rates(), ids=lambda p: f"{p.alpha:.3g}-{p.beta:.3g}-{p.mu:.3g}")
def test_interval_power_is_the_interval_map_applied_q_times(p):
    # the bisection's scalar kernel inlines T; it must round as T does,
    # bit for bit, at every beta up to DBL_MAX
    rng = np.random.default_rng(27)
    xs = [0.0, 0.5, 1.0 - 2.0**-53, 1.0, *rng.random(40).tolist(), *(1.0 - rng.random(10) * 1e-9).tolist()]
    for q in range(1, 9):
        for x in xs:
            assert mq.simplex._interval_power(p, q, x).hex() == interval_map_applied(p, q, x).hex(), (q, x)


def grid_flips(p, q):
    """The scan's brackets at period q: (lo, hi, f(lo), f(hi)) for each
    sign change of f = T^q(x) - x between neighbouring grid points."""
    xs = np.linspace(0.0, 1.0, 10_000)
    diff = interval_map_applied(p, q, xs) - xs
    flips = np.nonzero((diff[:-1] > 0.0) != (diff[1:] > 0.0))[0]
    return [(float(xs[i]), float(xs[i + 1]), float(diff[i]), float(diff[i + 1])) for i in flips]


def grid_bracket_root(p, q, lo, hi, flo):
    """The root plain bisection of the grid bracket [lo, hi] finds, to
    width 1e-12, as the scan did before it tried a secant bracket."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fmid = interval_map_applied(p, q, mid) - mid
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p", [REF1, REF2, REF3] + _power_rates(), ids=lambda p: f"{p.alpha:.3g}-{p.beta:.3g}-{p.mu:.3g}")
def test_secant_bracket_finds_the_root_grid_bisection_finds(monkeypatch, p):
    # each root lies within 1e-9, the distance the scan merges roots by,
    # of the root plain bisection of the grid bracket finds.  It takes at
    # most 10 evaluations where the secant bracket holds the sign change
    # (2 for its ends, 8 halvings of 2e-10 down to 1e-12) and at most
    # 2 + 27 where the grid bracket is bisected
    calls = []

    def recorded(q_p, q, x):
        calls.append(interval_map_applied(q_p, q, x) - x)
        return calls[-1] + x

    monkeypatch.setattr(mq.simplex, "_interval_power", recorded)
    secant = 0
    for q in range(2, 9):
        for lo, hi, flo, fhi in grid_flips(p, q):
            calls.clear()
            got = mq.simplex._bisect_root(p, q, lo, hi, flo, fhi)
            assert lo <= got <= hi and abs(got - grid_bracket_root(p, q, lo, hi, flo)) < 1e-9, (q, lo)
            held = calls[0] * calls[1] < 0.0
            secant += held
            assert len(calls) <= (10 if held else 29), (q, lo, len(calls))
    if p in (REF1, REF2, REF3):  # where the secant bracket saves work: 6 or 7 of the 7 roots
        assert secant >= 6


def test_secant_bracket_that_misses_the_root_falls_back_to_the_grid_bracket(monkeypatch):
    # f(x) = (x - 0.1)(1 + 1000 (x - 0.1)^2) on [0, 1]: the secant point,
    # about 0.0015, is far from the root, so f has one sign across its
    # bracket and the grid bracket is bisected instead
    monkeypatch.setattr(mq.simplex, "_interval_power", lambda p, q, x: x + (x - 0.1) * (1 + 1000 * (x - 0.1) ** 2))
    assert mq.simplex._bisect_root(REF1, 2, 0.0, 1.0, -1.1, 729.9) == pytest.approx(0.1, abs=1e-12)
    # f = 0 on [0.5, 0.6], around the secant point 5/9: a bracket with a
    # zero end is not taken, and the grid bracket's first midpoint is a root
    monkeypatch.setattr(mq.simplex, "_interval_power", lambda p, q, x: x + min(x - 0.5, 0.0) + max(x - 0.6, 0.0))
    assert mq.simplex._bisect_root(REF1, 2, 0.0, 1.0, -0.5, 0.4) == 0.5


def test_scan_fails_on_a_genuine_two_cycle(monkeypatch):
    # a stand-in T, the logistic map at r = 3.3, has the two-cycle
    # (r + 1 -+ sqrt((r + 1)(r - 3))) / (2 r); found at every even
    # period, it must be reported once, as two distinct roots.  The scan
    # takes T from `interval_map_parts`, the bisection from
    # `_interval_power`
    r = 3.3
    monkeypatch.setattr(mq.simplex, "interval_map_parts", lambda p, x: (r * x * (1 - x), 1.0))
    monkeypatch.setattr(mq.simplex, "_interval_power", interval_map_applied)
    with pytest.raises(mq.VerificationError, match="found 2 distinct roots") as exc:
        mq.scan_periodic_points(REF1)
    listed = ast.literal_eval(re.search(r"the first 2: (\[.*?\])", str(exc.value)).group(1))
    cycle = [(r + 1 + sgn * math.sqrt((r + 1) * (r - 3))) / (2 * r) for sgn in (-1, 1)]
    assert listed == pytest.approx(cycle, abs=1e-9)


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


def test_grid_fails_on_non_finite_images():
    # beta * y overflows for y > 4.5 on the grid's top rows; a nan or inf
    # residual must not count as "no two-cycle"
    with pytest.raises(mq.VerificationError, match=r"two-cycle grid: \d+ of the 250000 cells are not finite"):
        mq.count_two_cycles_on_grid(mq.Parameters(1.0, 4e307, 0.48))


@pytest.mark.parametrize("beta, bad", [(4e307, 123261), (1.7e308, 236084), (sys.float_info.max, 237964)])
def test_grid_counts_every_non_finite_cell(beta, bad):
    # the count sums over all row blocks: these are the whole-grid counts
    with pytest.raises(mq.VerificationError, match=rf"two-cycle grid: {bad} of the 250000 cells are not finite "):
        mq.count_two_cycles_on_grid(mq.Parameters(1.0, beta, 0.48))


def all_pairs_open(p, rows, gy, bound):
    """A stand-in for `simplex._open_pairs` that leaves every (row block,
    column) pair open."""
    return np.ones((rows.shape[0], gy.shape[1]), dtype=bool)


def grid_index(values):
    """The indices into GRID of the grid values in `values`."""
    i = np.searchsorted(GRID, values)
    assert np.array_equal(GRID[i], values)
    return i


@pytest.mark.parametrize("p", [REF1, REF2, REF3, mq.Parameters(1.0, 1e12, 0.48), mq.Parameters(1.0, 4e307, 0.48)])
def test_grid_blocks_map_each_cell_as_the_whole_grid_does(monkeypatch, p):
    # every kernel call returns the whole grid's images of the grid states
    # it is given, checked before the scan overwrites them: the `_map`
    # calls come in pairs, the second given the first images of the
    # states of the first.  With every pair open, every column is kept,
    # and each pair of calls maps the cells of one row block, each cell
    # once; with the real envelope, its edge rows at both scales go
    # through the same kernel
    _, _, x1, y1, x2, y2 = grid_images(p)

    def same(got, want):
        return np.array_equal(got, want, equal_nan=True)

    def run():
        calls = []  # the grid indices (rows, columns) each first `_map` call is given
        pending = []  # those of a first call whose second has not come yet

        def map_recorder(q, x, y):
            out = mq.model._map(q, x, y)
            if pending:
                i, j = pending.pop()
                assert same(x, x1[i, j]) and same(np.broadcast_to(y, x.shape), y1[i, j])
                assert same(out[0], x2[i, j]) and same(out[1], y2[i, j])
            else:
                i, j = (grid_index(a) for a in np.broadcast_arrays(x, y))
                assert same(out[0], x1[i, j]) and same(out[1], y1[i, j])
                calls.append((i, j))
                pending.append((i, j))
            return out

        monkeypatch.setattr(mq.simplex, "_map", map_recorder)
        try:
            mq.count_two_cycles_on_grid(p)
        except mq.VerificationError:
            pass
        assert not pending
        return calls

    assert run()  # the real envelope
    monkeypatch.setattr(mq.simplex, "_open_pairs", all_pairs_open)
    calls = run()
    mapped = np.zeros((GRID.size, GRID.size), dtype=int)
    for i, j in calls:
        assert np.unique(i // BLOCK).size == 1
        np.add.at(mapped, (i, j), 1)
    assert len(calls) == GRID.size // BLOCK and (mapped == 1).all()


def map_written_out(p, x, y):
    """The reduced map as one expression per count, with the float
    operations in the order of the model's equations."""
    return (p.beta * y - p.alpha * (x / (1.0 + x))) + x, p.alpha * (x / (1.0 + x)) + (1.0 - p.mu) * y


@pytest.mark.parametrize("p", [REF1, REF2, REF3, mq.Parameters(1e-6, 0.5, 0.48), mq.Parameters(1.0, 1e12, 0.48),
                               mq.Parameters(1.0, 4e307, 0.48), mq.Parameters(1.0, sys.float_info.max, 0.48)])
def test_map_halves_round_as_the_written_out_map_on_the_grid_blocks(p):
    # both counts of `_map` round as the written-out map does, bit for
    # bit, on both images of every block
    gy = GRID[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, GRID.size, BLOCK):
            gx = GRID[start:start + BLOCK, None]
            x1, y1 = map_written_out(p, gx, gy)
            for x, y in ((gx, gy), (x1, y1)):
                for got, want in zip(mq.model._map(p, x, y), map_written_out(p, x, y)):
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), start


def test_grid_counts_two_cycles_at_block_edges(monkeypatch):
    # the stand-in flips y -> -y on three rows of x only: both rows at the
    # first block boundary and the grid's last row.  Each is a two-cycle
    # off y = 0, where the state is fixed.  The adult envelope holds for
    # the real map only, so every pair is left open
    xs = np.linspace(0.0, 5.0, 500)
    block = mq.simplex._GRID_BLOCK
    rows = xs[[block - 1, block, 499]]

    def flip_rows(p, x, y):
        x, y = np.broadcast_arrays(x, y)
        return x.copy(), np.where(np.isin(x, rows), -y, y)

    monkeypatch.setattr(mq.simplex, "_open_pairs", all_pairs_open)
    monkeypatch.setattr(mq.simplex, "_map", flip_rows)
    assert mq.count_two_cycles_on_grid(REF1) == 3 * 499


def test_grid_counts_a_genuine_two_cycle(monkeypatch):
    # under the swap (x, y) -> (y, x) every off-diagonal state is a
    # two-cycle and every diagonal state a fixed point, which is not one;
    # like the real kernel, the stand-in broadcasts the grid's axes and
    # returns new arrays; every pair is left open, as for the flip above
    def swap(p, x, y):
        return tuple(a.copy() for a in np.broadcast_arrays(y, x))

    monkeypatch.setattr(mq.simplex, "_open_pairs", all_pairs_open)
    monkeypatch.setattr(mq.simplex, "_map", swap)
    assert mq.count_two_cycles_on_grid(REF1) == 500 * 500 - 500


@pytest.mark.parametrize("moved", [0, 1])
def test_grid_residual_takes_both_counts(monkeypatch, moved):
    # the stand-in adds 1 to one count and keeps the other: that count
    # returns to itself, the moved one does not, so no state is a two-cycle
    def shift(p, x, y):
        out = [a.copy() for a in np.broadcast_arrays(x, y)]
        out[moved] += 1.0
        return tuple(out)

    monkeypatch.setattr(mq.simplex, "_open_pairs", all_pairs_open)
    monkeypatch.setattr(mq.simplex, "_map", shift)
    assert mq.count_two_cycles_on_grid(REF1) == 0


GRID = np.linspace(0.0, 5.0, 500)
BLOCK = mq.simplex._GRID_BLOCK


def grid_bound(p):
    """The grid's adult bound, 2e-10 (5 beta + alpha + 5)."""
    return 2e-10 * (5 * p.beta + p.alpha + 5)


def grid_images(p):
    """Both images of the whole grid at once, by `_map`."""
    gx, gy = GRID[:, None], GRID[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        x1, y1 = mq.model._map(p, gx, gy)
        x2, y2 = mq.model._map(p, x1, y1)
    return gx, gy, x1, y1, x2, y2


def whole_grid_rule(p):
    """The grid's rule on the whole grid at once, with no cell pruned:
    (cells counted as two-cycles, cells whose residual is not finite)."""
    gx, gy, x1, y1, x2, y2 = grid_images(p)
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.maximum(np.abs(x2 - gx), np.abs(y2 - gy))
        disp = np.maximum(np.abs(x1 - gx), np.abs(y1 - gy))
        return int(np.count_nonzero(res < disp * 1e-10)), int(np.count_nonzero(~np.isfinite(res)))


def _oracle_rates():
    rng = np.random.default_rng(24)
    cases = []
    while len(cases) < 12:  # the battery box: rates in (0, 1], |beta - mu| >= 0.01
        alpha, beta, mu = 1.0 - rng.uniform(0.0, 1.0, size=3)
        if abs(beta - mu) >= 0.01:
            cases.append((alpha, beta, mu))
    for k, sign in zip(rng.integers(1, 16, size=8), [1, -1] * 4):  # beta = mu (1 +- 10^-k)
        alpha, mu = 1.0 - rng.uniform(0.0, 1.0, size=2)
        cases.append((alpha, mu * (1 + sign * 10.0 ** -int(k)), mu))
    cases += [(1e-6, 0.5, 0.48), (1e-6, 0.3, 0.6), (1e-6, 1e9, 0.48)]
    # the envelope closes no pair from beta about 3.5e9, where 2 bound passes every adult residual
    cases += [(1.0, beta, 0.48) for beta in (1e8, 1e9, 5e9, 7e9, 1e10, 3e10, 1e11)]
    cases += [(0.6, 1e12, 0.48), (1.0, 1e12, 0.48), (1.0, 4e307, 0.48)]
    # the envelope at the column scale: columns cut near the grid's top
    # edge, and only the origin's column kept, at tiny mu too
    cases += [(1.0, 0.3, 0.2), (1.0, 0.19, 0.2), (0.005, 0.2, 0.9), (0.5, 0.3, 1e-7), (0.6, 0.5, 1e-300)]
    return [mq.Parameters(*(float(v) for v in c)) for c in cases]


@pytest.mark.parametrize("p", _oracle_rates(), ids=lambda p: f"{p.alpha:.3g}-{p.beta:.17g}-{p.mu:.3g}")
def test_grid_matches_the_whole_grid_rule(p):
    count, bad = whole_grid_rule(p)
    if bad:
        with pytest.raises(mq.VerificationError, match=rf"two-cycle grid: {bad} of the 250000 cells are not finite "):
            mq.count_two_cycles_on_grid(p)
    else:
        assert mq.count_two_cycles_on_grid(p) == count


def _edit_second_image(monkeypatch, p, row, col, value):
    # the real kernel, except that the second image of the grid state
    # (GRID[row], GRID[col]) is `value`: edited in the output of each
    # second `_map` call at the cell that holds that state in the first
    # call before it.  The edit breaks the monotone adult envelope, so
    # every pair is left open and the cell is mapped and checked
    states = []  # the cell of the state, from a first call whose second has not come yet

    def map_recorder(q, x, y):
        out = mq.model._map(q, x, y)
        if states:
            cell = states.pop()
            for image, v in zip(out, value):
                image[cell] = v
        else:
            x, y = np.broadcast_arrays(x, y)
            states.append((x == GRID[row]) & (y == GRID[col]))
        return out

    monkeypatch.setattr(mq.simplex, "_open_pairs", all_pairs_open)
    monkeypatch.setattr(mq.simplex, "_map", map_recorder)


def _block_ruled_out(p, row):
    # every adult residual of the row's block is far above the grid's
    # adult bound (2e-10 (5 beta + alpha + 5) is 1.6e-9 at REF1)
    _, gy, _, _, _, y2 = grid_images(p)
    start = row - row % BLOCK
    return np.abs(y2 - gy)[start:start + BLOCK].min() > 1e-6


SECOND_BLOCK_ROWS = [BLOCK, BLOCK + BLOCK // 2, 2 * BLOCK - 1]  # its first, a middle and its last row


@pytest.mark.parametrize("row", SECOND_BLOCK_ROWS)
def test_grid_counts_one_two_cycle_in_a_block_it_would_skip(monkeypatch, row):
    # the edited state returns to itself; every other state of the block
    # is ruled out by its adult residual.  Every pair is open, so the
    # scan maps its column
    assert _block_ruled_out(REF1, row)
    _edit_second_image(monkeypatch, REF1, row, 100, (GRID[row], GRID[100]))
    assert mq.count_two_cycles_on_grid(REF1) == 1


@pytest.mark.parametrize("row", SECOND_BLOCK_ROWS)
def test_grid_counts_one_nan_image_in_a_block_it_would_skip(monkeypatch, row):
    assert _block_ruled_out(REF1, row)
    _edit_second_image(monkeypatch, REF1, row, 100, (np.nan, np.nan))
    with pytest.raises(mq.VerificationError, match=r"two-cycle grid: 1 of the 250000 cells are not finite "):
        mq.count_two_cycles_on_grid(REF1)


def _bound_rates():
    rng = np.random.default_rng(25)
    alphas = 10.0 ** rng.uniform(-6, 0, size=40)
    mus = 10.0 ** rng.uniform(-4, 0, size=40)
    betas = 10.0 ** rng.uniform(-8, 300, size=40)
    betas[:10] = mus[:10] * (1 + rng.choice([-1, 1], size=10) * 10.0 ** -rng.integers(1, 16, size=10))
    return [mq.Parameters(*(float(v) for v in c)) for c in zip(alphas, betas, mus)]


@pytest.mark.parametrize("p", _bound_rates(), ids=lambda p: f"{p.alpha:.3g}-{p.beta:.3g}-{p.mu:.3g}")
def test_grid_displacement_and_adult_residual_bounds(p):
    # a cell whose adult residual is at least 2e-10 (5 beta + alpha + 5)
    # is not counted: that is sound while no displacement exceeds
    # 5 beta + alpha + 5 by more than a few ulps, and the envelope closes
    # no pair from beta about 3.5e9 while no adult residual exceeds
    # 2 alpha + 5
    gx, gy, x1, y1, x2, y2 = grid_images(p)
    ulps = 1 + 4 * sys.float_info.epsilon
    assert np.maximum(np.abs(x1 - gx), np.abs(y1 - gy)).max() <= (5 * p.beta + p.alpha + 5) * ulps
    assert np.abs(y2 - gy).max() <= (2 * p.alpha + 5) * ulps


@pytest.mark.parametrize("p", _oracle_rates() + _bound_rates(), ids=lambda p: f"{p.alpha:.3g}-{p.beta:.17g}-{p.mu:.3g}")
def test_envelope_closes_only_pairs_whose_cells_are_ruled_out(p):
    # y'' rises with x at fixed y (tests/test_proofs.py), so a pair the
    # envelope closes on its first row has y'' - y >= bound on every cell,
    # one it closes on its last row y'' - y <= -bound: on the whole grid,
    # every cell of a closed pair lies on one side, at least bound from y,
    # so it is neither counted nor not finite.  At both scales the scan
    # runs it at: the whole grid as one block, which chooses the columns,
    # and the row blocks.  The origin (first row, first column, y'' = y)
    # keeps its pair open on every rate set
    _, gy, _, _, _, y2 = grid_images(p)
    for block in (GRID.size, BLOCK):
        open_pairs = mq.simplex._open_pairs(p, GRID.reshape(-1, block), gy, grid_bound(p))
        assert open_pairs.shape == (GRID.size // block, GRID.size) and open_pairs[0, 0]
        with np.errstate(invalid="ignore"):
            ry = (y2 - gy).reshape(-1, block, GRID.size)
            above, below = (ry >= grid_bound(p)).all(axis=1), (ry <= -grid_bound(p)).all(axis=1)
        assert (open_pairs | above | below).all()
