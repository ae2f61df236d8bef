"""Orbit iteration for the reduced map, with online certificates.

Iterating the reduced map decides between two fates.  For beta < mu the
population dies out: both coordinates sink to (0, 0).  For beta > mu the
larval count grows without bound while the adult count approaches
alpha/mu.  Growth in the escape regime is asymptotically linear,
x^(n+1) - x^(n) -> alpha*(beta - mu)/mu, so "x exceeds some huge
threshold" is generally not observable inside a bounded step budget.
Survival is instead declared once the orbit is in the certified monotone
regime and the second-order adult-limit estimator

    yhat2 = y + (alpha/mu)*u - (alpha/mu)*(u - u_prev)/mu,  u = 1/(1 + x),

with u_prev that of the previous state (u - u_prev = 0 at n = 0), has
stayed within CONV_TOL = 1e-8 of alpha/mu for a confirmation window of
CONFIRM_STEPS = 100 computed steps.  It rests on an exact identity of the
map: the adult deficit e = y - (alpha/mu)*(1 - u) obeys

    e' = (1 - mu)*e + (alpha/mu)*(u' - u),

so e settles at (alpha/mu)*(u - u_prev)/mu, and yhat2 - alpha/mu is e
less that value: the drift of u - u_prev, O(1/x^3), where the raw adult
count is off by O(1/x) and the first-order y + (alpha/mu)*u by O(1/x^2).
The estimator is evaluated only on steps that pass the increment test:
on every step of the window the larvae must strictly grow, dx > 1e-14,
and the adults must not shrink, dy >= -1e-14, so dx + dy > 0.  The
increments sum to (beta - mu)*y, which is <= 0 under beta < mu, so a
contracting orbit can never fill the window.  That includes orbits
creeping toward the origin, where both increments fall inside the 1e-14
tie band and the estimator already sits within CONV_TOL of alpha/mu.
The other rules are just as one-sided: the extinction box (both
coordinates below CONV_TOL) decides only beta < mu, or the fixed point
(0, 0) itself, and the escape threshold (x above DIV_THRESHOLD = 1e9)
decides only beta > mu.  A step that overflows (only the larval count
can: y' = f(x) + (1 - mu)*y is at most alpha + y) ends the run
`exhausted` at its state, inf being no state to decide from.  So does a
step that returns its own input, or that of the step before it, bit for
bit: rounding has frozen the state or caught it in a two-cycle.  A run
that meets no rule within `max_iters` steps is `exhausted` too.

Every rule is judged on every computed step.  The recording stride
`record_every` only picks the rows kept, every k-th step plus the start
and the final state; no verdict, step count, estimate or monitor
depends on it.

On request (`stop_at_certificate`, passed by `battery.sweep` and
`battery.run_certificates`) survival is
certified sooner, once the orbit has entered the both-up region
R = {mu*y < f(x) < beta*y}, f(x) = alpha*x/(1+x): the states whose next
step raises both x and y.  With g = alpha/((1+x)(1+x')) the next
increments are exactly

    dx' = (1 - g)*dx + beta*dy,    dy' = (1 - mu)*dy + g*dx,

and for 0 < alpha <= 1, x' > x >= 0 every coefficient is positive, so R
is forward-invariant.  There y stays under the adult envelope and x
increases; the origin is the only fixed point, so x grows without
bound.  R is empty for beta < mu, since dx + dy = (beta - mu)*y.  The
test is exact in integer arithmetic on the float state, so, like every
other rule here, it certifies the computed state, which then starts an
exact orbit that survives.  It runs on steps whose float increments
are both positive, and on a state where rounding has frozen the run or
caught it in a two-cycle, which would otherwise end it `exhausted`.  The
run ends at the first state in R: `n_steps` is that step and
`y_limit_estimate` the estimator yhat2 there, not a limit.
`adult_limit_step` proves the limit from that state instead: the first
step from which y is within CONV_TOL of alpha/mu.  `simulate` and
`compare` run on to the estimator window.

Monitors accumulated along the way, in one pass.  A slack on a state is
a few ulps of its size, never below an absolute floor (`model._slack`):

* adult envelope  y^(n) <= alpha/mu + (1-mu)^n * (y^(0) - alpha/mu),
  violations beyond the slack on max(y^(0), alpha/mu), floor 1e-12,
  counted;
* forbidden increment-sign patterns in the growth regime: (a) both
  coordinates down in one step, read off the sign census, and (b) a
  decrease after the first both-up step, the one pattern that needs
  state carried across steps;
* the total-increment identity
  x^(n) + y^(n) = (beta - mu)*y^(n-1) + x^(n-1) + y^(n-1), exact in real
  arithmetic, tracked as a running max of the float residual;
* the monotone onset: the last step index whose increments dipped below
  the -1e-14 tie tolerance (0 if none);
* a census of increment sign combinations, one class per step.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import IntegrationError
from .ioutil import FLOAT_FIELD
from .model import Mode, Parameters, State, Verdict, _map, _same_bits, _slack, require_valid

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Verdict",
    "OrbitConfig",
    "StepSignCensus",
    "MonitorLog",
    "Orbit",
    "iterate_orbit",
    "iterate_general",
    "check_growth_lower_bound",
    "adult_limit_step",
    "check_decreasing_totals",
    "orbit_to_csv",
]

TIE_TOL = 1e-14
Y_BOUND_TOL = 1e-12
CONV_TOL = 1e-8
DIV_THRESHOLD = 1e9
CONFIRM_STEPS = 100
_INF = float("inf")


@dataclass(frozen=True)
class OrbitConfig:
    """Iteration budget and recording stride.  The verdict rules and
    their thresholds (CONV_TOL, DIV_THRESHOLD, CONFIRM_STEPS) are in the
    module docstring; record_every only thins the rows kept."""

    max_iters: int = 1_000_000
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass(frozen=True)
class StepSignCensus:
    """Counts of per-step increment sign combinations (tie tolerance
    1e-14; steps with either increment inside the tie band land in
    `ties`).  The fields partition the steps: they sum to n_steps.  In
    the growth regime pattern (a) is `both_down`.
    """

    both_up: int
    both_down: int
    x_up_y_down: int
    x_down_y_up: int
    ties: int


@dataclass(frozen=True)
class MonitorLog:
    y_bound_violations: int
    pattern_violations: int
    sum_identity_max_err: float
    monotone_onset_estimate: int
    sign_census: StepSignCensus


@dataclass(frozen=True)
class Orbit:
    """A recorded orbit.  `steps`, `xs`, `ys` are aligned arrays of the
    recorded step indices and coordinates; index 0 and the final state
    are always present regardless of record_every.  They grow with the
    rows kept, not with max_iters.  `y_limit_estimate` is the
    second-order estimator at the final state and its predecessor after
    survival (see the module docstring); after extinction or exhaustion
    it is the last y."""

    params: Parameters
    config: OrbitConfig
    steps: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    verdict: Verdict
    n_steps: int
    y_limit_estimate: float
    monitors: MonitorLog


def _adult_limit(am: float, mu: float, x: float, px: float, y: float) -> float:
    """The second-order adult-limit estimator at the state (x, y) whose
    predecessor had larval count px, am = alpha/mu:
    y + am*u - am*(u - u_prev)/mu with u = 1/(1+x), u_prev = 1/(1+px)."""
    u = 1.0 / (1.0 + x)
    return y + am * u - am * (u - 1.0 / (1.0 + px)) / mu


def _in_both_up_region(alpha: float, beta: float, mu: float, x: float, y: float) -> bool:
    """Whether (x, y) lies in the both-up region R, that is
    mu*y*(1+x) < alpha*x < beta*y*(1+x), decided exactly on the given
    floats: each is a ratio of integers with a power-of-two denominator,
    and the inequalities are cross-multiplied in integer arithmetic.  A
    state that is not finite is outside R."""
    if not (x < _INF and y < _INF):
        return False
    an, ad = alpha.as_integer_ratio()
    bn, bd = beta.as_integer_ratio()
    mn, md = mu.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    # times xd*yd: mu*w < alpha*v < beta*w with w = y*(1+x), v = x
    w = yn * (xd + xn)
    v = xn * yd
    return mn * w * ad < an * v * md and an * v * bd < bn * w * ad


def iterate_orbit(
    p: Parameters, s0: State, config: OrbitConfig | None = None, *, stop_at_certificate: bool = False
) -> Orbit:
    """Iterate the reduced map from s0 until a verdict or exhaustion.

    Single pass; all monitors from the module docstring are accumulated
    on the fly.  With `stop_at_certificate`, a state in the both-up
    region ends the run in survival at that step, a state frozen or
    caught in a two-cycle inside it included (see the module docstring);
    without it the orbit runs on to the estimator window.

    The loop inlines `model._map` and, in the window test, the estimator
    `_adult_limit`, operation for operation.  It classifies each step's
    increment signs by nested tests that read each comparison once,
    counts the ties as the steps left over after the loop, and keeps a
    row when a countdown from `record_every` runs out.
    """
    import numpy as np

    require_valid(p, Mode.REDUCED)
    cfg = config if config is not None else OrbitConfig()

    alpha = p.alpha
    beta = p.beta
    mu = p.mu
    growth = beta > mu
    am = alpha / mu
    omm = 1.0 - mu
    bmm = beta - mu
    conv = CONV_TOL
    div = DIV_THRESHOLD
    every = cfg.record_every
    confirm = CONFIRM_STEPS
    tie = TIE_TOL
    ntie = -tie
    ybtol = _slack(max(s0.y, am), Y_BOUND_TOL)
    nybtol = -ybtol
    stop = stop_at_certificate

    x = s0.x
    y = s0.y
    px = x  # larval count of the previous state; x itself at n = 0, so du = 0
    rec_x = array("d", [x])
    rec_y = array("d", [y])
    put_x = rec_x.append
    put_y = rec_y.append

    ybv = 0
    drops_after_both_up = 0
    sum_err = 0.0
    last_bad = 0
    pw = 1.0
    y0_excess = y - am
    c_uu = c_dd = c_ud = c_du = 0
    tie_n = -1  # the last tie step, and its input state
    tie_x = tie_y = 0.0
    dx = dy = 0.0
    streak = 0
    n = 0
    left = every  # steps to the next recorded row
    max_iters = cfg.max_iters

    # The state of step n is judged at the top of the loop, n = 0
    # included, before the budget is looked at: extinction first, then
    # escape, then the survival window, whose increments dx, dy are
    # those of the step that led to this state (zero at n = 0).  Each
    # rule decides only its own regime: the box is extinction for
    # beta < mu and, for beta > mu, only at the fixed point (0, 0);
    # escape is survival for beta > mu only.  The regime is tested after
    # the comparisons, so a step outside the box and below the
    # threshold pays nothing for it.  The threshold is finite, so an
    # overflowed state passes it too, and ends the run exhausted there.
    verdict = Verdict.EXHAUSTED
    while True:
        if x < conv and y < conv and (not growth or (x == 0.0 and y == 0.0)):
            verdict = Verdict.EXTINCTION
            break
        if x > div:
            if x == _INF:
                break
            if growth:
                verdict = Verdict.SURVIVAL
                break
        # the window's estimator is `_adult_limit`, inlined
        if dx > tie and dy >= ntie:
            u = 1.0 / (1.0 + x)
            if abs(y + am * u - am * (u - 1.0 / (1.0 + px)) / mu - am) < conv:
                streak += 1
                if streak >= confirm:
                    verdict = Verdict.SURVIVAL
                    break
            else:
                streak = 0
        else:
            streak = 0
        if n >= max_iters:
            break

        em = alpha * (x / (1.0 + x))
        x1 = (beta * y - em) + x
        y1 = em + omm * y
        n += 1
        dx = x1 - x
        dy = y1 - y

        # `not <=` also takes a nan residual (inf - inf after an
        # overflow), and a nan once taken stays
        err = abs((x1 + y1) - ((bmm * y + x) + y))
        if not err <= sum_err and sum_err == sum_err:
            sum_err = err

        pw *= omm
        if y1 > (am + pw * y0_excess) + ybtol or y1 < nybtol:
            ybv += 1

        # One classification per step, each comparison read once: the
        # census classes partition the steps, so the ties are counted
        # after the loop and pattern (a) is read off the counts.  A step
        # with an increment below -tie is bad (the monotone onset) and,
        # after the first both-up step, a drop.  A step in no class is a
        # tie.  A break below ends the run at the new state, step n
        # complete.
        tied = False
        if dx > tie:
            if dy > tie:
                c_uu += 1
                if stop and _in_both_up_region(alpha, beta, mu, x1, y1):
                    px, x, y, verdict = x, x1, y1, Verdict.SURVIVAL
                    break
            elif dy < ntie:
                c_ud += 1
                last_bad = n
                if c_uu:
                    drops_after_both_up += 1
            else:
                tied = True
        elif dx < ntie:
            last_bad = n
            if c_uu:
                drops_after_both_up += 1
            if dy < ntie:
                c_dd += 1
            elif dy > tie:
                c_du += 1
            else:
                tied = True
        else:
            if dy < ntie:
                last_bad = n
                if c_uu:
                    drops_after_both_up += 1
            tied = True
        if tied:
            # A step that returns its own input (with gradual underflow,
            # exactly zero increments) or the input of the step before it
            # bit for bit has caught the float map in a fixed point or a
            # two-cycle: every later step repeats, and no rule can fire.
            # It ends the run, in R or not; so does a both-positive tie in R.
            caught = (dx == 0.0 and dy == 0.0) or (tie_n == n - 1 and x1 == tie_x and y1 == tie_y)
            if stop and (caught or (dx > 0.0 and dy > 0.0)) and _in_both_up_region(alpha, beta, mu, x1, y1):
                px, x, y, verdict = x, x1, y1, Verdict.SURVIVAL
                break
            if caught:
                px, x, y = x, x1, y1
                break
            tie_n, tie_x, tie_y = n, x, y

        px = x
        x = x1
        y = y1
        left -= 1
        if not left:
            left = every
            put_x(x)
            put_y(y)

    # the rows kept: every k-th step below n, then n itself, recorded in
    # the loop already where the run ended at its top on a multiple of k
    steps = np.append(np.arange(0, n, every, dtype=np.int64), n)
    if len(rec_x) < len(steps):
        put_x(x)
        put_y(y)
    y_limit = _adult_limit(am, mu, x, px, y) if verdict is Verdict.SURVIVAL else y

    pattern_violations = c_dd + drops_after_both_up if growth else 0

    census = StepSignCensus(
        both_up=c_uu,
        both_down=c_dd,
        x_up_y_down=c_ud,
        x_down_y_up=c_du,
        ties=n - (c_uu + c_dd + c_ud + c_du),
    )
    monitors = MonitorLog(
        y_bound_violations=ybv,
        pattern_violations=pattern_violations,
        sum_identity_max_err=sum_err,
        monotone_onset_estimate=last_bad,
        sign_census=census,
    )
    return Orbit(
        params=p,
        config=cfg,
        steps=steps,
        xs=np.frombuffer(rec_x, dtype=np.float64),
        ys=np.frombuffer(rec_y, dtype=np.float64),
        verdict=verdict,
        n_steps=n,
        y_limit_estimate=y_limit,
        monitors=monitors,
    )


def iterate_general(p: Parameters, s0: State, n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw iteration of the full map (larval mortality allowed) by `_map`:
    no verdicts, no monitors, every step recorded.  Exploratory helper for
    side-by-side comparisons.  Both row arrays are allocated before the
    first step, as in `integrate_flow`, so a budget numpy cannot hold
    fails at once (ValueError or MemoryError).  A step below 0 or to nan
    raises IntegrationError, as the model has no meaning off the quadrant;
    a step past 1e15 (inf included) ends the rows.  A step that returns
    its input bit for bit (a zero repeats only a zero of its own sign)
    stops the stepping but not the rows: the map is autonomous, so the
    remaining steps are that state, filled in.
    """
    import numpy as np

    require_valid(p, Mode.GENERAL)
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    xs = np.empty(n_steps + 1, dtype=np.float64)
    ys = np.empty(n_steps + 1, dtype=np.float64)
    put_x = memoryview(xs)
    put_y = memoryview(ys)
    put_x[0] = x = s0.x
    put_y[0] = y = s0.y
    for n in range(1, n_steps + 1):
        nx, ny = _map(p, x, y)
        if not (nx >= 0.0 and ny >= 0.0):
            raise IntegrationError(f"full map left the admissible region at n={n}: x={nx!r}, y={ny!r}")
        put_x[n] = nx
        put_y[n] = ny
        if nx > 1e15 or ny > 1e15:
            xs, ys = xs[: n + 1], ys[: n + 1]
            break
        if nx == x and ny == y and _same_bits(nx, x) and _same_bits(ny, y):
            # the step returned its input: every later step repeats it
            xs[n:] = x
            ys[n:] = y
            break
        x = nx
        y = ny
    return np.arange(len(xs), dtype=np.int64), xs, ys


def check_growth_lower_bound(orbit: Orbit) -> bool:
    """Check the linear growth bound along a recorded growth orbit.

    The anchor n_a is the first recorded step from the monotone onset
    (`monitors.monotone_onset_estimate`) on that has adults; an anchor
    without them gives an empty bound.  With theta = max(y^(0),
    alpha/mu), every later recorded step n must satisfy

        x^(n) > x^(n_a) + y^(n_a) - theta + (beta - mu)*(n - n_a)*y^(n_a)

    up to a slack of a few ulps of x^(n), floored at 1e-12.  With no
    recorded step after the anchor the bound holds vacuously; with later
    steps but no anchor, it fails.
    """
    import numpy as np

    p = orbit.params
    if not p.beta > p.mu:
        raise ValueError("growth bound applies to beta > mu only")
    pos = int(np.searchsorted(orbit.steps, orbit.monitors.monotone_onset_estimate))
    adults = np.flatnonzero(orbit.ys[pos:] > 0.0)
    if adults.size == 0:
        return len(orbit.steps) - pos <= 1
    a = pos + int(adults[0])
    x_a, y_a = float(orbit.xs[a]), float(orbit.ys[a])
    theta = max(float(orbit.ys[0]), p.alpha / p.mu)
    gap = orbit.steps[a + 1 :].astype(np.float64) - float(orbit.steps[a])
    lower = x_a + y_a - theta + (p.beta - p.mu) * gap * y_a
    xs = orbit.xs[a + 1 :]
    return bool(np.all(xs > lower - _slack(xs, 1e-12)))


def adult_limit_step(orbit: Orbit) -> int | None:
    """The first step N from which |y_n - alpha/mu| < CONV_TOL is proved
    for the exact orbit through the final state, or None where that state
    is not in the both-up region R.

    Let k be the final step.  From a state in R the exact orbit raises x
    and y at every step and keeps y < alpha/mu, so u = 1/(1 + x) falls,
    and the adult-deficit identity of the module docstring telescopes:
    for k <= m <= n,

        |y_n - alpha/mu| <= (1-mu)^(n-k) |e_k|
                            + (alpha/mu) ((1-mu)^(n-m) u_k + u_m + u_n),

    where u_j <= 1/(1 + l_j) for the growth bound
    l_j = max(x_k, x_k + y_k - alpha/mu + (beta - mu) (j - k) y_k).  Take
    m = floor((n + k)/2) and (1-mu)^j <= 1/(1 + j mu).  With t = n - k the
    right side is at most

        B(t) = |e_k|/(1 + t mu) + (alpha/mu) u_k/(1 + ceil(t/2) mu)
               + (alpha/mu)/(1 + l_(k + floor(t/2))) + (alpha/mu)/(1 + l_(k+t)).

    Every denominator is nondecreasing in t, so B(N - k) < CONV_TOL holds
    the gap below it for all n >= N.  `tests/test_proofs.py` proves each
    step.  B is decided exactly, in integers: every double is an integer
    over a power of two, so with P the largest of those denominators,
    each term of B is an integer over M + (an integer linear in t).  The
    search solves t = t B(t)/CONV_TOL by a few rounds of fixed-point
    iteration (t B(t) rises to its limit as the gap falls like 1/t), then
    brackets the crossing exactly and bisects it.
    """
    p = orbit.params
    x, y = float(orbit.xs[-1]), float(orbit.ys[-1])
    if not _in_both_up_region(p.alpha, p.beta, p.mu, x, y):
        return None
    ratios = [v.as_integer_ratio() for v in (p.alpha, p.beta, p.mu, x, y)]
    P = max(d for _, d in ratios)
    A, B, W, X, Y = (n * (P // d) for n, d in ratios)  # alpha P, beta P, mu P, x P, y P
    Q = P + X
    # each quantity below is the one named times M = P^2 W Q
    M = P * P * W * Q
    ek = abs(Y * W * Q - A * X * P) * P  # |e_k|
    amu = A * P**3  # (alpha/mu) u_k
    am = A * P * P * Q  # alpha/mu
    xk = X * P * W * Q  # x_k
    c0 = ((X + Y) * W - A * P) * P * Q  # x_k + y_k - alpha/mu
    s = (B - W) * Y * W * Q  # (beta - mu) y_k, positive in R
    mu = W * W * P * Q
    tn, td = CONV_TOL.as_integer_ratio()

    def bound(t: int) -> tuple[int, int]:
        # B(t) as numerator, denominator
        d1 = M + t * mu
        d2 = M + (t + 1) // 2 * mu
        d3 = M + max(xk, c0 + s * (t // 2))
        d4 = M + max(xk, c0 + s * t)
        return (ek * d2 + amu * d1) * d3 * d4 + am * d1 * d2 * (d3 + d4), d1 * d2 * d3 * d4

    def below(t: int) -> bool:
        num, den = bound(t)
        return num * td < tn * den

    # t B(t) rises to (|e_k| + 2 (alpha/mu) u_k)/mu + 3 (alpha/mu)/s
    t = -(-((ek + 2 * amu) * s + 3 * am * mu) * td // (mu * s * tn))
    for _ in range(8):
        num, den = bound(t)
        t, last = -(-t * num * td // (den * tn)), t
        if abs(t - last) <= 1:
            break
    # bracket the first t below: below(hi), and lo = -1 or not below(lo)
    step = 1
    if below(t):
        hi, lo = t, t - 1
        while lo >= 0 and below(lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)
    else:
        lo, hi = t, t + 1
        while not below(hi):
            lo, step = hi, 2 * step
            hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return orbit.n_steps + hi


def check_decreasing_totals(orbit: Orbit) -> bool:
    """Check the two weighted totals that certify contraction for
    beta < mu: both x + y and (mu/beta) x + y must be nonnegative and
    nonincreasing along the orbit (their one-step increments are
    (beta - mu) y <= 0 and (1 - mu/beta) * emergence <= 0), up to a slack
    of a few ulps of the total's first value, its largest, and never
    below the 1e-14 tie tolerance.
    """
    import numpy as np

    p = orbit.params
    if not p.beta < p.mu:
        raise ValueError("decreasing totals apply to beta < mu only")
    plain = orbit.xs + orbit.ys
    weighted = (p.mu / p.beta) * orbit.xs + orbit.ys
    for total in (plain, weighted):
        tol = _slack(total[0], TIE_TOL)
        if np.any(total < -tol) or np.any(np.diff(total) > tol):
            return False
    return True


_CSV_ROW = f"%d,{FLOAT_FIELD},{FLOAT_FIELD}\n"


def orbit_to_csv(orbit: Orbit) -> str:
    """The orbit as CSV text: header n,x,y then one row per recorded
    step, coordinates in 17-significant-digit scientific notation, LF
    line endings."""
    # memoryviews yield Python ints and floats, which format faster than
    # numpy scalars, into the same bytes
    rows = zip(memoryview(orbit.steps), memoryview(orbit.xs), memoryview(orbit.ys))
    return "n,x,y\n" + "".join(map(_CSV_ROW.__mod__, rows))
