"""Dynamics of the reduced map projected onto the unit simplex.

Normalizing total population away turns the reduced map into a map U of
the simplex segment {x + y = 1, x, y >= 0}, and through the
parametrization (x, 1 - x) into a one-dimensional rational map of [0, 1]:

    T(x) = ((1 - beta) x^2 + (1 - alpha) x + beta)
           / ((mu - beta) x^2 + x + beta - mu + 1).

`check_interval_map_range` decides that T maps [0, 1] into itself, and
`two_cycle_certificate` that T has no period-two point, by the signs of
the quadratic A x^2 + B x + C whose roots in [0, 1] the period-two points
are.  Both evaluate each quantity once, in exact decimals on the float
rates: the formulas have integer literals, so they evaluate alike in
floats, decimals and sympy, and `tests/test_proofs.py` proves the
identity, closed forms and signs behind both for every admissible rate.
With no period two on a self-map of [0, 1], T has no period of 2 or
more (Sharkovskii, 1964); `scan_periodic_points` cross-checks that in
floats by `interval_map`, for periods 2 to 8 on 10,000 points, and
`count_two_cycles_on_grid` the planar argument on 500 x 500 states.
Both float scans skip work that provably cannot change their answer:
the scan bisects each root from a secant bracket where that bracket
holds the sign change, and the grid maps only the cells that one
monotone adult envelope leaves open, applied to whole columns and then
to row blocks.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import VerificationError
from .model import Mode, Parameters, _EXACT, _exact, _map, require_valid

__all__ = [
    "PeriodCertificate",
    "interval_map",
    "interval_map_parts",
    "check_interval_map_range",
    "two_cycle_certificate",
    "scan_periodic_points",
    "count_two_cycles_on_grid",
]


@dataclass(frozen=True)
class PeriodCertificate:
    """The period-two exclusion for one parameter set: the exact A, B, C
    of the quadratic, each rounded once to a float (+-inf past the double
    range), and whether their signs exclude a root in [0, 1]."""

    quad_a: float
    quad_b: float
    quad_c: float
    signs_ok: bool


def interval_map_parts(p: Parameters, x):
    """Numerator and denominator polynomials of T, evaluated at x
    (scalar or array): a(x) = (1-beta) x^2 + (1-alpha) x + beta,
    b(x) = (mu-beta) x^2 + x + (beta - mu + 1).

    Written with w = (1 - x)(1 + x) as

        a = beta w + x (x + (1 - alpha)),
        b = (beta + (1 - mu)) w + x (1 + x),

    every term is nonnegative on [0, 1], so nothing cancels: the
    expanded form cancels terms of size beta near x = 1, where it made
    T(1) 0/0 in floats from beta about 1e16.  On [0, 1], w <= 1 and the
    x terms are at most 2, so nothing overflows, even at beta = DBL_MAX,
    and b >= a after rounding too, as each of its terms is at least the
    matching term of a.  Sharing w and 1 + x keeps the array cost near
    that of the expanded form."""
    v = 1 + x
    w = (1 - x) * v
    a = p.beta * w + x * (x + (1 - p.alpha))
    b = (p.beta + (1 - p.mu)) * w + x * v
    return a, b


def interval_map(p: Parameters, x):
    """The one-dimensional simplex coordinate map T on [0, 1].
    Accepts scalars or numpy arrays."""
    a, b = interval_map_parts(p, x)
    return a / b


def _least_on_unit_interval(q0, q_half, q1):
    # the sign of the least value on [0, 1] of the quadratic c2 x^2 + c1 x
    # + c0 with values q0, q_half, q1 at 0, 1/2, 1: an endpoint's, or if
    # convex with its vertex inside, that of 4 c2 (q0 - c1^2 / (4 c2))
    c2 = 2 * (q0 - 2 * q_half + q1)
    c1 = q1 - q0 - c2
    low = min(q0, q1)
    if c2 > 0 and 0 < -c1 < 2 * c2:
        low = min(low, 4 * c2 * q0 - c1 * c1)
    return low


def check_interval_map_range(p: Parameters) -> bool:
    """Decide exactly that T maps [0, 1] into itself.

    Takes the exact values of a and h = b - a at 0, 1/2 and 1 from
    `interval_map_parts` and decides a > 0 and h >= 0 on all of [0, 1].
    Then b = a + h > 0 and 0 < T = a / b <= 1.
    """
    require_valid(p, Mode.REDUCED)
    with decimal.localcontext(_EXACT):
        q = _exact(p)
        a_vals, h_vals = [], []
        for x in (0, Decimal("0.5"), 1):
            a, b = interval_map_parts(q, x)
            a_vals.append(a)
            h_vals.append(b - a)
        return _least_on_unit_interval(*a_vals) > 0 and _least_on_unit_interval(*h_vals) >= 0


def _two_cycle_coefficients(p: Parameters):
    b = p.beta
    m = p.mu
    a = p.alpha
    qa = (1 - b) * (b - 2) + (b - m + 1) * (b - m)
    qb = (b - 2) * (b - m - a + 2) - b * (b - m)
    qc = (b - m + 1) * (a + m - b - 2) + b * (b - 1)
    return qa, qb, qc


def two_cycle_certificate(p: Parameters) -> PeriodCertificate:
    """Quadratic certificate excluding period-two points on the simplex.

    Reports signs_ok = (A+B+C < 0 and B < 0 and C < 0), decided on the
    exact A, B, C, and those values rounded once.  Those signs keep the
    quadratic negative on all of [0, 1]: the endpoint values are C and
    A + B + C, both negative; for A >= 0 the parabola is convex so its
    maximum on the interval sits at an endpoint, and for A < 0 the
    vertex -B/(2A) lies left of 0 (B < 0), making the parabola
    decreasing across [0, 1].  No root, hence no period-two point.
    """
    require_valid(p, Mode.REDUCED)
    with decimal.localcontext(_EXACT):
        qa, qb, qc = _two_cycle_coefficients(_exact(p))
        signs_ok = qa + qb + qc < 0 and qb < 0 and qc < 0
    return PeriodCertificate(quad_a=float(qa), quad_b=float(qb), quad_c=float(qc), signs_ok=signs_ok)


def _interval_power(p: Parameters, q: int, x: float) -> float:
    """T^q(x) for one float x: `interval_map_parts` inlined, operation for
    operation, with 1 - alpha and beta + (1 - mu) formed once, so it is q
    applications of `interval_map` bit for bit."""
    beta = p.beta
    oma = 1 - p.alpha
    bmu = beta + (1 - p.mu)
    for _ in range(q):
        v = 1 + x
        w = (1 - x) * v
        x = (beta * w + x * (x + oma)) / (bmu * w + x * v)
    return x


def _bisect_root(p: Parameters, q: int, lo: float, hi: float, flo: float, fhi: float) -> float:
    # f(x) = T^q(x) - x with f(lo), f(hi) nonzero and of opposite signs:
    # bisect the +-1e-10 bracket around the secant point, cut to
    # [lo, hi], where f changes sign strictly across it, else [lo, hi]
    s = lo + (hi - lo) * (flo / (flo - fhi))
    a, b = max(lo, s - 1e-10), min(hi, s + 1e-10)
    fa = _interval_power(p, q, a) - a
    fb = _interval_power(p, q, b) - b
    if fa < 0.0 < fb or fb < 0.0 < fa:
        lo, hi, flo = a, b, fa
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fmid = _interval_power(p, q, mid) - mid
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _distinct(roots: list[float]) -> list[float]:
    # sorted, one per cluster of roots within 1e-9 of each other
    out: list[float] = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9:
            out.append(r)
    return out


def scan_periodic_points(p: Parameters) -> dict[int, tuple[float, ...]]:
    """Scan T^q(x) = x for q = 2..8 on 10,000 points of [0, 1] and check
    that every root is an ordinary fixed point of T.

    A float cross-check of the theorem the exact certificates carry: with
    no period-two point (`two_cycle_certificate`) on a self-map of [0, 1]
    (`check_interval_map_range`), T has no period of 2 or more
    (Sharkovskii).  Grid sign changes of T^q(x) - x are refined by
    bisection to width 1e-12, each evaluation one call of the scalar
    kernel `_interval_power`, which is T applied q times bit for bit.
    The bisection starts from the +-1e-10 bracket around the secant
    point of the two grid values, cut to the grid bracket, where
    T^q(x) - x has strictly opposite signs at its ends (2 + 8
    evaluations), and from the grid bracket otherwise (2 + 27): either
    way it ends on a bracket of width at most 1e-12 across which
    T^q(x) - x changes sign, inside the grid bracket.  Grid points
    with |T^q(x) - x| < 1e-13 are roots as they stand, and only when
    there are any do they mask the sign changes next to them.
    A refined root r with
    |T(r) - r| >= 1e-10 max(1, beta) would witness a genuine q-periodic
    point and raises VerificationError, listing at most five distinct
    such roots and their count.  The bound scales with beta because T's
    slope near x = 1 is about beta, so a 1e-12 bracket cannot read
    T(r) - r more finely; for beta >= 1e10 it is at least 1, while
    |T(r) - r| <= 1 on [0, 1], so there only the finiteness guard can
    fail.  `interval_map_parts` adds only nonnegative terms, so T is
    finite on [0, 1] for every admissible rate and the guard catches a
    broken T, not a large beta: an iterate that is not finite raises.
    The guard reads max |T^q(x) - x| < inf, which a nan fails too, and
    counts the iterates that are not finite only for the message.
    Returns the roots found, by q.
    """
    require_valid(p, Mode.REDUCED)
    xs = np.linspace(0.0, 1.0, 10_000)
    cur = xs.copy()
    roots_by_period: dict[int, tuple[float, ...]] = {}
    spurious: list[float] = []
    for q in range(1, 9):
        with np.errstate(invalid="ignore", divide="ignore"):
            cur = interval_map(p, cur)
        if q < 2:
            continue
        diff = cur - xs
        size = np.abs(diff)
        # nan propagates through max; the count is for the message only
        if not size.max() < np.inf:
            bad = xs.size - int(np.count_nonzero(np.isfinite(cur)))
            raise VerificationError(f"periodic-point scan: {bad} of the {xs.size} iterates T^{q}(x) are not finite "
                                    f"(alpha={p.alpha}, beta={p.beta}, mu={p.mu})")
        roots: list[float] = []
        sign = diff > 0.0
        flips = sign[:-1] != sign[1:]
        if size.min() < 1e-13:
            small = size < 1e-13
            roots.extend(float(xs[i]) for i in np.nonzero(small)[0])
            flips &= ~(small[:-1] | small[1:])
        for i in np.nonzero(flips)[0]:
            roots.append(_bisect_root(p, q, float(xs[i]), float(xs[i + 1]), float(diff[i]), float(diff[i + 1])))
        dedup = _distinct(roots)
        for r in dedup:
            if abs(interval_map(p, r) - r) >= 1e-10 * max(1.0, p.beta):
                spurious.append(r)
        roots_by_period[q] = tuple(dedup)
    if spurious:
        spurious = _distinct(spurious)
        shown = [round(r, 12) for r in spurious[:5]]
        raise VerificationError(
            f"periodic-point scan found {len(spurious)} distinct roots that are not fixed points of the interval "
            f"map; the first {len(shown)}: {shown} (alpha={p.alpha}, beta={p.beta}, mu={p.mu})"
        )
    return roots_by_period


# Rows of the 500 x 500 grid per block.  The block sets three sizes:
# the envelope maps each block's first and last row (2 x 500 / B rows of
# the kept columns), each open (block, column) pair holds B cells, and a
# batch holds at most B rows' worth of cells (12,500, 100 kB per array),
# so its temporaries stay in cache.  Summed over the 96 battery sets of
# the benchmark's seeds 1 and 3 on a 2-vCPU Xeon (min of 3 calls a set,
# three rounds), 25 rows take 15.6-16.9 ms, 20 rows 17.0-17.9 ms, 50 rows
# 17.9-18.7 ms, 10 rows 24-27 ms (its 100 edge rows are a fifth of the
# grid) and 100 rows 30-46 ms.
_GRID_BLOCK = 25


def _open_pairs(p: Parameters, rows, gy, bound: float):
    """Which (row block, column) pairs of the grid the adult envelope
    leaves open, as a (blocks, columns) mask: `rows` holds the x values
    of each row block (ascending), `gy` the kept y values as one row.  A
    pair is decided, and closed, where its first row's adult residual
    y'' - y is at least 2 bound or its last row's at most -2 bound (see
    `count_two_cycles_on_grid`); a nan residual decides nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        ry = _map(p, *_map(p, rows[:, [0, -1], None], gy))[1] - gy
    return ~((ry[:, 0] >= 2 * bound) | (ry[:, 1] <= -2 * bound))


def count_two_cycles_on_grid(p: Parameters) -> int:
    """Count the states s of a 500 x 500 grid on [0, 5] x [0, 5] whose
    second iterate returns to them within 1e-10 of their one-step
    displacement, |T(T(s)) - s| < 1e-10 |T(s) - s| in the max norm.  The
    residual is relative, so a state that barely moves (on the x-axis
    when alpha is tiny) is not taken for a two-cycle, and a state that
    does not move at all, the origin included, is a fixed point, not a
    two-cycle.  Expected 0 for admissible rates, by the planar argument:
    one step changes the total by
    x' + y' - x - y = (beta - mu) y exactly, so a two-cycle
    (x, y) -> (x', y') -> (x, y) forces (beta - mu)(y + y') = 0, hence
    y = y' = 0 with beta != mu; then y' is the emergence term alone, so
    x = 0.  The origin is the only period-two state.  The cells left to
    map (below) go to `_map` in batches of at most 500 pairs, the cells
    of one whole row block: the x values of their open pairs, gathered,
    and the matching y values, which broadcast.  A batch takes its two
    images by two `_map` calls and forms its residuals in place.  Every
    cell gets the same float operations as on the whole grid at once, so
    the batches change no count.  A residual that is not finite (beta y overflows
    from beta about 3.6e307) raises VerificationError, counting such
    cells over the whole grid.

    A cell whose adult residual ry = |y'' - y| is at least
    bound = 2e-10 (5 beta + alpha + 5) is not counted:
    - every displacement is at most 5 beta + alpha + 5 to a few ulps,
      as the emergence lies in [0, alpha], beta y <= 5 beta, y' <=
      alpha + 5 and rounding is monotone, so the threshold
      1e-10 |T(s) - s| stays below bound (the factor 2 absorbs the
      roundings);
    - a counted cell has ry <= residual < threshold < bound.

    One rule, the monotone adult envelope (`_open_pairs`), rules such
    cells out before they are mapped, in whole (row block, column) pairs,
    from each block's first and last row.  On the admissible box,
    y'' = e(x') + (1 - mu) y' is nondecreasing in x at fixed y:
    dx'/dx = 1 - alpha / (1 + x)^2 >= 0, dy'/dx = e'(x) >= 0,
    e'(x') >= 0 as x' >= 0, and dy''/dy' = 1 - mu >= 0
    (`tests/test_proofs.py`).  So on a block's rows x_f <= x <= x_l the
    exact y'' lies between its values at x_f and x_l.  In floats, with
    S = 5 beta + alpha + 5 and u = 2^-53:
    - the computed x' is within 4uS of the exact one; e has slope at
      most alpha <= 1 on x' >= 0 and rounds to 3 ulps of alpha, and y'
      to a few ulps of alpha + 5, so the computed y'' is within 20uS of
      the exact one, up to underflow, whose absolute error the margin
      covers;
    - so where the first row's computed residual y''_f - y is at least
      2 bound, every cell of the pair has a computed y'' - y of at least
      2 bound (1 - u) - 40uS, which is above bound = 2e-10 S; rounding
      is monotone and bound is a float, so its ry is at least bound and
      it is not counted.  Where the last row's residual is at most
      -2 bound, the same holds with the signs flipped;
    - a nan residual fails both comparisons, so its pair stays open;
    - a pair closes only where 2 bound <= |y'' - y| <= 2 alpha + 5 <= 7,
      so beta < 3.5e9, where every image is finite.
    So the envelope changes neither the count nor the cells that are
    not finite.  It runs at two scales: first with the whole grid as one
    block, whose rows x = 0 and x = 5 choose the columns to keep, then
    on the `_GRID_BLOCK`-row blocks of the kept columns.  The origin's
    column always stays, as y'' - y = 0 at the origin."""
    require_valid(p, Mode.REDUCED)
    xs = np.linspace(0.0, 5.0, 500)
    bound = 2e-10 * (5 * p.beta + p.alpha + 5)
    gy = xs[None, _open_pairs(p, xs[None, :], xs[None, :], bound)[0]]
    rows = xs.reshape(-1, _GRID_BLOCK)
    blocks, cols = np.nonzero(_open_pairs(p, rows, gy, bound))
    count = bad = 0
    with np.errstate(over="ignore", invalid="ignore"):
        # 500 pairs at a time: at most the cells of one whole row block
        for start in range(0, blocks.size, xs.size):
            bx = rows[blocks[start:start + xs.size]]
            by = gy[0, cols[start:start + xs.size], None]
            x1, y1 = _map(p, bx, by)
            mx, my = _map(p, x1, y1)
            res = np.maximum(np.abs(np.subtract(mx, bx, out=mx), out=mx),
                             np.abs(np.subtract(my, by, out=my), out=my), out=mx)
            # a first image that is not finite makes the second one nan,
            # so the residual alone shows every such cell; max is the
            # cheapest reduction
            if not np.isfinite(res.max()):
                bad += res.size - int(np.count_nonzero(np.isfinite(res)))
                continue
            disp = np.maximum(np.abs(np.subtract(x1, bx, out=x1), out=x1),
                              np.abs(np.subtract(y1, by, out=y1), out=y1), out=x1)
            count += int(np.count_nonzero(res < np.multiply(disp, 1e-10, out=disp)))
    if bad:
        raise VerificationError(f"two-cycle grid: {bad} of the {xs.size ** 2} cells are not finite "
                                f"(alpha={p.alpha}, beta={p.beta}, mu={p.mu})")
    return count
