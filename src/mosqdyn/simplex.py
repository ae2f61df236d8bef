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
floats by `interval_map`, and `count_two_cycles_on_grid` the planar argument.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import VerificationError
from .model import Mode, Parameters, _EXACT, _exact, _map, _next_adults, _next_larvae, require_valid

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


def _bisect_root(p: Parameters, q: int, lo: float, hi: float, flo: float) -> float:
    # f(x) = T^q(x) - x, sign change certified on [lo, hi]
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


def scan_periodic_points(p: Parameters, p_max: int = 8, grid_n: int = 10_000) -> dict[int, tuple[float, ...]]:
    """Scan T^q(x) = x for q = 2..p_max on [0, 1] and check that every
    root is an ordinary fixed point of T.

    A float cross-check of the theorem the exact certificates carry: with
    no period-two point (`two_cycle_certificate`) on a self-map of [0, 1]
    (`check_interval_map_range`), T has no period of 2 or more
    (Sharkovskii).  Grid sign changes of T^q(x) - x are refined by
    bisection to width 1e-12, each evaluation one call of the scalar
    kernel `_interval_power`, which is T applied q times bit for bit;
    grid points with |T^q(x) - x| < 1e-13 are roots as they stand, and
    only when there are any do they mask the sign changes next to them.
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
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    xs = np.linspace(0.0, 1.0, grid_n)
    cur = xs.copy()
    roots_by_period: dict[int, tuple[float, ...]] = {}
    spurious: list[float] = []
    for q in range(1, p_max + 1):
        with np.errstate(invalid="ignore", divide="ignore"):
            cur = interval_map(p, cur)
        if q < 2:
            continue
        diff = cur - xs
        size = np.abs(diff)
        # nan propagates through max; the count is for the message only
        if not size.max() < np.inf:
            bad = grid_n - int(np.count_nonzero(np.isfinite(cur)))
            raise VerificationError(f"periodic-point scan: {bad} of the {grid_n} iterates T^{q}(x) are not finite "
                                    f"(alpha={p.alpha}, beta={p.beta}, mu={p.mu})")
        roots: list[float] = []
        sign = diff > 0.0
        flips = sign[:-1] != sign[1:]
        if size.min() < 1e-13:
            small = size < 1e-13
            roots.extend(float(xs[i]) for i in np.nonzero(small)[0])
            flips &= ~(small[:-1] | small[1:])
        for i in np.nonzero(flips)[0]:
            roots.append(_bisect_root(p, q, float(xs[i]), float(xs[i + 1]), float(diff[i])))
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


# Rows of the 500 x 500 grid that `count_two_cycles_on_grid` evaluates
# at once: at most 12,500 cells, 100 kB per array, so a block's
# temporaries stay in cache.  With the adult cut in place, summed over
# the 48 battery sets of the benchmark's seed 1 on a 2-vCPU Xeon, 25, 40
# and 50 rows time within 10% of each other (31-35 ms); 10 rows are 50%
# slower and 100 rows 20% slower.
_GRID_BLOCK = 25


def _adult_columns(p: Parameters, xs, bound: float) -> int:
    """How many of the grid's y values `xs` (ascending) lie below an upper
    bound on y_hi = ((1 + u)^4 alpha (1 + c) + bound) / (1 - (1 + u)^4 c^2), with
    c = fl(1 - mu) and u = 2^-53: every state with y >= y_hi has an adult
    residual |y'' - y| of at least `bound` (see `count_two_cycles_on_grid`).
    All of them where (1 - c)(1 + c) <= 1e-6."""
    c = 1.0 - p.mu
    den = (1.0 - c) * (1.0 + c)
    if not den > 1e-6:
        return xs.size
    y_hi = (p.alpha * (1.0 + c) + bound) / den * (1.0 + 1e-9)
    return int(np.searchsorted(xs, y_hi))


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
    x = 0.  The origin is the only period-two state.  The grid runs in
    blocks of `_GRID_BLOCK` rows of x, each going to `_map` as its slice
    of the x axis and the kept y values (below), which broadcast: the
    emergence once per x.  Every cell gets the same float operations as on the
    whole grid at once, so the blocks change no count.  A residual that
    is not finite (beta y overflows from beta about 3.6e307) raises
    VerificationError, counting such cells over the whole grid.

    A block takes the second image in the two halves `_map` runs: first
    the adult count y'' by `_next_adults`, and the larval count x'' by
    `_next_larvae` only where the block is not skipped, from the same
    emergence, so no value is computed twice.  A block whose least
    adult residual ry = |y'' - y| is at least
    bound = 2e-10 (5 beta + alpha + 5) skips the rest, with every count
    unchanged:
    - every displacement is at most 5 beta + alpha + 5 to a few ulps,
      as the emergence lies in [0, alpha], beta y <= 5 beta, y' <=
      alpha + 5 and rounding is monotone, so the threshold
      1e-10 |T(s) - s| stays below bound (the factor 2 absorbs the
      roundings);
    - a counted cell has ry <= residual < threshold < bound, so a
      skipped block holds none;
    - a first image that is not finite makes y'' nan (inf / inf), nan
      propagates through the least value and fails the comparison, so
      such a block is never skipped;
    - ry <= 2 alpha + 5 <= 7, so from beta about 7e9 no block is
      skipped: a skipped block has beta < 7e9 and finite images.

    The same bound rules out whole columns before any is mapped: the
    scan keeps only the `_adult_columns` y values below y_hi, and the
    paper's adult bound y' <= alpha + (1 - mu) y says why that cut is
    sound.  In floats, rounding to nearest, with c = fl(1 - mu) and
    u = 2^-53:
    - rounding is monotone and fl(1 + x) >= max(1, x) for x >= 0, so
      every emergence e = fl(alpha fl(x / fl(1 + x))) lies in
      [0, min(alpha, x)]; then x' >= fl(x - e) >= 0, so the second
      emergence lies in [0, alpha] too, wherever x' is finite;
    - so y' <= (1 + u)(alpha + (1 + u) c y), and
      y'' <= (1 + u)^4 (alpha (1 + c) + c^2 y), up to underflow, whose
      absolute error (below 1e-300) the margin below covers;
    - hence y - y'' >= bound once y >= y_hi, and then the computed ry
      is at least bound too, bound being a float: a column with
      y >= y_hi holds no counted cell.
    `_adult_columns` evaluates y_hi as fl(num / den) times fl(1 + 1e-9),
    with num = fl(fl(alpha fl(1 + c)) + bound) and
    den = fl(fl(1 - c) fl(1 + c)).  num is at least
    (1 - u)^3 (alpha (1 + c) + bound), den is within a factor (1 + u)^3
    of (1 - c)(1 + c), and 1 - (1 + u)^4 c^2 is at least
    (1 - c)(1 + c) - 4.0001u.  Where den > 1e-6, these put the exact
    y_hi below (num / den)(1 + 4.5e-10), and the margin, less its own
    three roundings, exceeds that.  Where den <= 1e-6 (mu below about
    5e-7), every column stays.  A column goes only when y_hi <= 5, and
    y_hi >= bound, so bound <= 5: beta < 5e9, where every image is
    finite.  So the cut changes neither the count nor the cells that
    are not finite."""
    require_valid(p, Mode.REDUCED)
    xs = np.linspace(0.0, 5.0, 500)
    bound = 2e-10 * (5 * p.beta + p.alpha + 5)
    gy = xs[None, :_adult_columns(p, xs, bound)]
    count = bad = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, xs.size, _GRID_BLOCK):
            gx = xs[start:start + _GRID_BLOCK, None]
            x1, y1 = _map(p, gx, gy)
            my, em = _next_adults(p, x1, y1)
            ry = np.abs(np.subtract(my, gy, out=my), out=my)
            if ry.min() >= bound:
                continue
            mx = _next_larvae(p, x1, y1, em)
            res = np.maximum(np.abs(np.subtract(mx, gx, out=mx), out=mx), ry, out=mx)
            # a first image that is not finite makes the second one nan,
            # so the residual alone shows every such cell; max is the
            # cheapest reduction
            if not np.isfinite(res.max()):
                bad += res.size - int(np.count_nonzero(np.isfinite(res)))
                continue
            disp = np.maximum(np.abs(np.subtract(x1, gx, out=x1), out=x1), np.abs(np.subtract(y1, gy, out=y1), out=y1), out=x1)
            count += int(np.count_nonzero(res < np.multiply(disp, 1e-10, out=disp)))
    if bad:
        raise VerificationError(f"two-cycle grid: {bad} of the {xs.size ** 2} cells are not finite "
                                f"(alpha={p.alpha}, beta={p.beta}, mu={p.mu})")
    return count
