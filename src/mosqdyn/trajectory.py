"""Orbit iteration for the reduced map, with online certificates.

Iterating the reduced map decides between two fates.  For beta < mu the
population dies out: both coordinates sink to (0, 0).  For beta > mu the
larval count grows without bound while the adult count approaches
alpha/mu.  Growth in the escape regime is asymptotically linear,
x^(n+1) - x^(n) -> alpha*(beta - mu)/mu, so "x exceeds some huge
threshold" is generally not observable inside a bounded step budget.
Survival is instead declared once the orbit is in the certified monotone
regime and the adult-limit estimator

    yhat = y + (alpha/mu) / (1 + x)

has stayed within conv_tol of alpha/mu for a confirmation window of
CONFIRM_STEPS = 100 computed steps (the estimator removes the leading
1/(1+x) correction of the adult count, so it converges like 1/x^2
instead of 1/x).  On every step of the window
the larvae must strictly grow, dx > 1e-14, and the adults must not
shrink, dy >= -1e-14, so dx + dy > 0.  The increments sum to
(beta - mu)*y, which is <= 0 under beta < mu, so a contracting orbit can
never fill the window.  That includes orbits creeping toward the origin,
where both increments fall inside the 1e-14 tie band and the estimator
already sits within conv_tol of alpha/mu.  The other rules are just as
one-sided: the extinction box (both coordinates below conv_tol) decides
only beta < mu, or the fixed point (0, 0) itself, and the escape
threshold decides only beta > mu.  A step that overflows (only the
larval count can: y' = f(x) + (1 - mu)*y is at most alpha + y) ends the
run `exhausted` at its state, inf being no state to decide from.

Every rule is judged on every computed step.  The recording stride
`record_every` only picks the rows kept, every k-th step plus the start
and the final state; no verdict, step count, estimate or monitor
depends on it.

On request (`stop_at_certificate`, passed by `battery.sweep` and
`battery.run_trials`) survival is certified sooner, once the orbit has
entered the both-up region R = {mu*y < f(x) < beta*y}, f(x) =
alpha*x/(1+x): the states whose next step raises both x and y.  With
g = alpha/((1+x)(1+x')) the next increments are exactly

    dx' = (1 - g)*dx + beta*dy,    dy' = (1 - mu)*dy + g*dx,

and for 0 < alpha <= 1, x' > x >= 0 every coefficient is positive, so R
is forward-invariant.  There y stays under the adult envelope and x
increases; the origin is the only fixed point, so x grows without
bound.  R is empty for beta < mu, since dx + dy = (beta - mu)*y.  The
test is exact in integer arithmetic on the float state, so, like every
other rule here, it certifies the computed state, which then starts an
exact orbit that survives.  It runs only on steps whose float
increments are both positive, and the run ends at the first state in R:
`n_steps` is that step and `y_limit_estimate` the estimator there, not a
limit.  `simulate`, the `certify` orbit and `compare` run on to the
estimator window.

Monitors accumulated along the way, one pass, all tolerances absolute
(the bound `battery.run_certificates` holds the identity residual to is
relative: a few ulps of the largest total x + y, floored at 1e-9):

* adult envelope  y^(n) <= alpha/mu + (1-mu)^n * (y^(0) - alpha/mu),
  violations beyond 1e-12 counted;
* forbidden increment-sign patterns in the growth regime: (a) both
  coordinates down in one step, read off the sign census, and (b) a
  decrease after the first both-up step, the one pattern that needs
  state carried across steps (see `count_forbidden_patterns`);
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
from enum import Enum

import numpy as np

from .model import Mode, Parameters, State, _map, require_valid

__all__ = [
    "Verdict",
    "OrbitConfig",
    "StepSignCensus",
    "MonitorLog",
    "Orbit",
    "iterate_orbit",
    "iterate_general",
    "check_y_bound",
    "check_sum_identity",
    "count_forbidden_patterns",
    "check_growth_lower_bound",
    "check_decreasing_totals",
    "orbit_to_csv",
]

TIE_TOL = 1e-14
Y_BOUND_TOL = 1e-12
CONFIRM_STEPS = 100
_INF = float("inf")


class Verdict(str, Enum):
    EXTINCTION = "extinction"
    SURVIVAL = "survival"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class OrbitConfig:
    """Iteration budget and detection thresholds.

    extinction: both coordinates below conv_tol, for beta < mu; for
                beta > mu only the fixed point (0, 0) itself.
    survival:   for beta > mu only: x above div_threshold (finite), or
                the monotone-regime estimator window of CONFIRM_STEPS
                computed steps described in the module docstring; or,
                where the caller asks for it (`battery.sweep`,
                `battery.run_trials`), a state in the both-up region, a
                certificate that needs none of these thresholds.
    exhausted:  neither within max_iters; or a step overflowed; or a
                step returned its own input or that of the step before
                it bit for bit: rounding has frozen the state or caught
                it in a two-cycle, so the run ends there.

    Each rule decides only the regime whose fate it names, so no verdict
    falls on the wrong side of the dichotomy.  The two patterns counted
    online are (a) and (b) of `count_forbidden_patterns`.  record_every
    only thins the rows kept: every k-th step, plus the start and the
    final state.
    """

    max_iters: int = 1_000_000
    conv_tol: float = 1e-8
    div_threshold: float = 1e9
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.conv_tol > 0.0):
            raise ValueError("conv_tol must be positive")
        if not (1.0 < self.div_threshold < _INF):
            raise ValueError("div_threshold must be finite and exceed 1")
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
    rows kept, not with max_iters.  `y_limit_estimate` is the estimator
    y + (alpha/mu)/(1+x) at the final state after survival; after
    extinction or exhaustion it is the last y."""

    params: Parameters
    config: OrbitConfig
    steps: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    verdict: Verdict
    n_steps: int
    y_limit_estimate: float
    monitors: MonitorLog


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
    region ends the run in survival at that step (see the module
    docstring); without it the orbit runs on to the estimator window.
    """
    require_valid(p, Mode.REDUCED)
    cfg = config if config is not None else OrbitConfig()

    alpha = p.alpha
    beta = p.beta
    mu = p.mu
    growth = beta > mu
    am = alpha / mu
    omm = 1.0 - mu
    bmm = beta - mu
    conv = cfg.conv_tol
    div = cfg.div_threshold
    every = cfg.record_every
    confirm = CONFIRM_STEPS
    tie = TIE_TOL
    ybtol = Y_BOUND_TOL
    stop = stop_at_certificate

    x = s0.x
    y = s0.y
    rec_n = array("q", [0])
    rec_x = array("d", [x])
    rec_y = array("d", [y])
    put_n = rec_n.append
    put_x = rec_x.append
    put_y = rec_y.append

    ybv = 0
    drops_after_both_up = 0
    sum_err = 0.0
    last_bad = 0
    pw = 1.0
    y0_excess = y - am
    c_uu = c_dd = c_ud = c_du = c_tie = 0
    tie_n = -1  # the last tie step, and its input state
    tie_x = tie_y = 0.0
    dx = dy = 0.0
    streak = 0
    n = 0
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
        if dx > tie and dy >= -tie and abs((y + am / (1.0 + x)) - am) < conv:
            streak += 1
            if streak >= confirm:
                verdict = Verdict.SURVIVAL
                break
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
        bound = am + pw * y0_excess
        if y1 > bound + ybtol or y1 < -ybtol:
            ybv += 1

        up_x = dx > tie
        dn_x = dx < -tie
        up_y = dy > tie
        dn_y = dy < -tie
        if dn_x or dn_y:
            last_bad = n
            if c_uu:  # after the first both-up step
                drops_after_both_up += 1
        # One classification per step: the census branches partition the
        # steps, so pattern (a) is read off their counts after the loop.
        # A break below ends the run at the new state, step n complete.
        if up_x and up_y:
            c_uu += 1
            if stop and _in_both_up_region(alpha, beta, mu, x1, y1):
                x, y, verdict = x1, y1, Verdict.SURVIVAL
                break
        elif dn_x and dn_y:
            c_dd += 1
        elif up_x and dn_y:
            c_ud += 1
        elif dn_x and up_y:
            c_du += 1
        else:
            c_tie += 1
            if stop and dx > 0.0 and dy > 0.0 and _in_both_up_region(alpha, beta, mu, x1, y1):
                x, y, verdict = x1, y1, Verdict.SURVIVAL
                break
            # A step that returns its own input (with gradual underflow,
            # exactly zero increments) or the input of the step before it
            # bit for bit has caught the float map in a fixed point or a
            # two-cycle: every later step repeats, and no rule can fire.
            if (dx == 0.0 and dy == 0.0) or (tie_n == n - 1 and x1 == tie_x and y1 == tie_y):
                x, y = x1, y1
                break
            tie_n, tie_x, tie_y = n, x, y

        x = x1
        y = y1
        if n % every == 0:
            put_n(n)
            put_x(x)
            put_y(y)

    if rec_n[-1] != n:
        put_n(n)
        put_x(x)
        put_y(y)
    y_limit = y + am / (1.0 + x) if verdict is Verdict.SURVIVAL else y

    pattern_violations = c_dd + drops_after_both_up if growth else 0

    census = StepSignCensus(
        both_up=c_uu,
        both_down=c_dd,
        x_up_y_down=c_ud,
        x_down_y_up=c_du,
        ties=c_tie,
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
        steps=np.frombuffer(rec_n, dtype=np.int64),
        xs=np.frombuffer(rec_x, dtype=np.float64),
        ys=np.frombuffer(rec_y, dtype=np.float64),
        verdict=verdict,
        n_steps=n,
        y_limit_estimate=y_limit,
        monitors=monitors,
    )


def iterate_general(
    p: Parameters, s0: State, n_steps: int, record_every: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw iteration of the full map (larval mortality allowed): no
    verdicts, no monitors.  Exploratory helper for side-by-side
    comparisons.  Stops early if a coordinate leaves [0, 1e15] or turns
    non-finite, keeping what was recorded so far.
    """
    require_valid(p, Mode.GENERAL)
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    x = s0.x
    y = s0.y
    ns = array("q", [0])
    xs = array("d", [x])
    ys = array("d", [y])
    for n in range(1, n_steps + 1):
        x, y = _map(p, x, y)
        outside = not (0.0 <= x <= 1e15 and 0.0 <= y <= 1e15)
        if outside or n % record_every == 0 or n == n_steps:
            ns.append(n)
            xs.append(x)
            ys.append(y)
        if outside:
            break
    return (
        np.frombuffer(ns, dtype=np.int64),
        np.frombuffer(xs, dtype=np.float64),
        np.frombuffer(ys, dtype=np.float64),
    )


def check_y_bound(orbit: Orbit) -> int:
    """Count recorded states violating the adult envelope
    y^(n) <= alpha/mu + (1-mu)^n (y^(0) - alpha/mu), beyond 1e-12.
    Offline counterpart of the online monitor; 0 on valid orbits.
    """
    p = orbit.params
    am = p.alpha / p.mu
    y0 = float(orbit.ys[0])
    decay = np.power(1.0 - p.mu, orbit.steps.astype(np.float64))
    bound = am + decay * (y0 - am)
    bad = (orbit.ys > bound + Y_BOUND_TOL) | (orbit.ys < -Y_BOUND_TOL)
    return int(np.count_nonzero(bad[1:]))


def check_sum_identity(orbit: Orbit) -> float:
    """Max float residual of the total-increment identity
    x^(n) + y^(n) = (beta - mu) y^(n-1) + x^(n-1) + y^(n-1)
    over consecutive recorded states.  Requires a full-resolution
    recording (record_every == 1); the identity links adjacent steps.
    """
    p = orbit.params
    if orbit.config.record_every != 1:
        raise ValueError("sum identity needs record_every == 1 (consecutive states)")
    if len(orbit.xs) < 2:
        return 0.0
    xs = orbit.xs
    ys = orbit.ys
    lhs = xs[1:] + ys[1:]
    rhs = ((p.beta - p.mu) * ys[:-1] + xs[:-1]) + ys[:-1]
    return float(np.max(np.abs(lhs - rhs)))


def count_forbidden_patterns(orbit: Orbit) -> int:
    """Scan a full-resolution growth-regime orbit for increment-sign
    patterns the dynamics forbids.  Returns a violation count; 0 on any
    orbit of the reduced map with beta > mu.

    Counted per step:
      (a) both coordinates strictly decreasing in one step (impossible:
          the increments sum to (beta - mu) y > 0);
      (b) any strict decrease after the first step where both
          coordinates strictly increased (the both-up regime is
          forward-invariant).

    `iterate_orbit` counts the same patterns online: (a) from its sign
    census, (b) from the first both-up step on.

    A strict inequality here means beyond the 1e-14 tie tolerance; the
    sub-tolerance churn of late orbits stays out of the counts.
    """
    p = orbit.params
    if not p.beta > p.mu:
        raise ValueError("forbidden patterns are statements about the growth regime (beta > mu)")
    if orbit.config.record_every != 1:
        raise ValueError("pattern scan needs record_every == 1 (consecutive states)")
    dx = np.diff(orbit.xs)
    dy = np.diff(orbit.ys)
    if dx.size == 0:
        return 0
    up_x = dx > TIE_TOL
    dn_x = dx < -TIE_TOL
    up_y = dy > TIE_TOL
    dn_y = dy < -TIE_TOL

    violations = int(np.count_nonzero(dn_x & dn_y))

    both_up = up_x & up_y
    idx = np.nonzero(both_up)[0]
    if idx.size:
        first = int(idx[0])
        violations += int(np.count_nonzero(dn_x[first + 1 :] | dn_y[first + 1 :]))
    return violations


def check_growth_lower_bound(orbit: Orbit, n_start: int) -> bool:
    """Check the linear growth bound along a recorded growth orbit.

    Anchoring at the first recorded step n_a >= n_start (intended: at or
    after the monotone onset), with theta = max(y^(0), alpha/mu), every
    later recorded step n must satisfy

        x^(n) > x^(n_a) + y^(n_a) - theta + (beta - mu)*(n - n_a)*y^(n_a)

    up to a slack of 1e-12.  With a later step to bound, the anchor
    adult count must be positive (an anchor on the x-axis gives an empty
    bound); with none, the bound holds vacuously.
    """
    p = orbit.params
    if not p.beta > p.mu:
        raise ValueError("growth bound applies to beta > mu only")
    pos = int(np.searchsorted(orbit.steps, n_start))
    if pos >= len(orbit.steps):
        raise ValueError(f"no recorded step at or after n_start={n_start}")
    after = orbit.steps > orbit.steps[pos]
    if not np.any(after):
        return True
    n_a = float(orbit.steps[pos])
    x_a = float(orbit.xs[pos])
    y_a = float(orbit.ys[pos])
    if not y_a > 0.0:
        raise ValueError("anchor adult count must be positive for the growth bound")
    theta = max(float(orbit.ys[0]), p.alpha / p.mu)
    gap = orbit.steps[after].astype(np.float64) - n_a
    lower = x_a + y_a - theta + (p.beta - p.mu) * gap * y_a
    return bool(np.all(orbit.xs[after] > lower - 1e-12))


def check_decreasing_totals(orbit: Orbit) -> bool:
    """Check the two weighted totals that certify contraction for
    beta < mu: both x + y and (mu/beta) x + y must be nonnegative and
    nonincreasing along the orbit, up to the 1e-14 tie tolerance (their
    one-step increments are (beta - mu) y <= 0 and
    (1 - mu/beta) * emergence <= 0).
    """
    p = orbit.params
    if not p.beta < p.mu:
        raise ValueError("decreasing totals apply to beta < mu only")
    plain = orbit.xs + orbit.ys
    weighted = (p.mu / p.beta) * orbit.xs + orbit.ys
    for total in (plain, weighted):
        if np.any(total < -TIE_TOL):
            return False
        if total.size >= 2 and np.any(np.diff(total) > TIE_TOL):
            return False
    return True


def orbit_to_csv(orbit: Orbit) -> str:
    """The orbit as CSV text: header n,x,y then one row per recorded
    step, coordinates in 17-significant-digit scientific notation, LF
    line endings."""
    rows = [f"{int(n)},{float(x):.16e},{float(y):.16e}" for n, x, y in zip(orbit.steps, orbit.xs, orbit.ys)]
    return "n,x,y\n" + "\n".join(rows) + "\n"
