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

has stayed within conv_tol of alpha/mu for a confirmation window (the
estimator removes the leading 1/(1+x) correction of the adult count, so
it converges like 1/x^2 instead of 1/x).  On every step of the window
the larvae must strictly grow, dx > 1e-14, and the adults must not
shrink, dy >= -1e-14, so dx + dy > 0.  The increments sum to
(beta - mu)*y, which is <= 0 under beta < mu, so a contracting orbit can
never fill the window.  That includes orbits creeping toward the origin,
where both increments fall inside the 1e-14 tie band and the estimator
already sits within conv_tol of alpha/mu.

Monitors accumulated along the way, one pass, all tolerances absolute:

* adult envelope  y^(n) <= alpha/mu + (1-mu)^n * (y^(0) - alpha/mu),
  violations beyond 1e-12 counted;
* forbidden increment-sign patterns in the growth regime (see
  `count_forbidden_patterns` for the list);
* the total-increment identity
  x^(n) + y^(n) = (beta - mu)*y^(n-1) + x^(n-1) + y^(n-1), exact in real
  arithmetic, tracked as a running max of the float residual;
* the monotone onset: the last step index whose increments dipped below
  the -1e-14 tie tolerance (0 if none);
* an observational census of increment sign combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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
    "write_orbit_csv",
]

TIE_TOL = 1e-14
Y_BOUND_TOL = 1e-12


class Verdict(str, Enum):
    EXTINCTION = "extinction"
    SURVIVAL = "survival"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class OrbitConfig:
    """Iteration budget and detection thresholds.

    extinction: both coordinates below conv_tol.
    survival:   x above div_threshold, or the monotone-regime estimator
                window described in the module docstring, sustained for
                confirm_window recorded steps (confirm_window *
                record_every raw steps).
    exhausted:  neither within max_iters.
    """

    max_iters: int = 1_000_000
    conv_tol: float = 1e-8
    div_threshold: float = 1e9
    record_every: int = 1
    confirm_window: int = 100

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.conv_tol > 0.0):
            raise ValueError("conv_tol must be positive")
        if not (self.div_threshold > 1.0):
            raise ValueError("div_threshold must exceed 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.confirm_window < 1:
            raise ValueError("confirm_window must be at least 1")


@dataclass(frozen=True)
class StepSignCensus:
    """Counts of per-step increment sign combinations (tie tolerance
    1e-14; steps with either increment inside the tie band land in
    `ties`).  The last three fields are observational only: switches
    counts (x up, y down) -> (x down, y up) transitions between
    consecutive steps, and the two event counters record breaks of the
    conjectured gain/drop monotonicity inside an (x up, y down) stretch.
    None of these constitute violations.
    """

    both_up: int
    both_down: int
    x_up_y_down: int
    x_down_y_up: int
    ties: int
    switches: int
    gain_growth_events: int
    drop_shrink_events: int


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
    are always present regardless of record_every."""

    params: Parameters
    config: OrbitConfig
    steps: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    verdict: Verdict
    n_steps: int
    y_limit_estimate: float
    monitors: MonitorLog

    @property
    def final_state(self) -> State:
        return State(float(self.xs[-1]), float(self.ys[-1]))

    def states(self) -> list[State]:
        return [State(float(x), float(y)) for x, y in zip(self.xs, self.ys)]


def iterate_orbit(p: Parameters, s0: State, config: OrbitConfig | None = None) -> Orbit:
    """Iterate the reduced map from s0 until a verdict or exhaustion.

    Single pass; all monitors from the module docstring are accumulated
    on the fly.  Forbidden-pattern persistence flags (patterns that the
    theory rules out only "for all steps") are folded into
    pattern_violations solely for completed runs; a window truncated by
    max_iters cannot certify a forever-statement, so exhausted runs keep
    only the per-step pattern counts.
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
    confirm = cfg.confirm_window * every
    tie = TIE_TOL
    ybtol = Y_BOUND_TOL

    n_rec_cap = cfg.max_iters // every + 2
    rec_n = np.empty(n_rec_cap, dtype=np.int64)
    rec_x = np.empty(n_rec_cap, dtype=np.float64)
    rec_y = np.empty(n_rec_cap, dtype=np.float64)

    x = s0.x
    y = s0.y
    rec_n[0] = 0
    rec_x[0] = x
    rec_y[0] = y
    k = 1

    ybv = 0
    per_step_pat = 0
    seen_both_up = False
    all_down_up = True
    all_up_down = True
    alternation_all = True
    n_pairs = 0
    sum_err = 0.0
    last_bad = 0
    pw = 1.0
    y0_excess = y - am
    c_uu = c_dd = c_ud = c_du = c_tie = 0
    switches = 0
    gain_growth = 0
    drop_shrink = 0
    prev_dx = 0.0
    prev_dy = 0.0
    have_prev = False
    streak = 0
    n = 0

    verdict = Verdict.EXHAUSTED
    y_limit = y if not growth else y + am / (1.0 + x)

    if x < conv and y < conv:
        verdict = Verdict.EXTINCTION
        y_limit = y
    elif x > div:
        verdict = Verdict.SURVIVAL
        y_limit = y + am / (1.0 + x)
    else:
        max_iters = cfg.max_iters
        while n < max_iters:
            em = alpha * (x / (1.0 + x))
            x1 = (beta * y - em) + x
            y1 = em + omm * y
            n += 1
            dx = x1 - x
            dy = y1 - y

            err = abs((x1 + y1) - ((bmm * y + x) + y))
            if err > sum_err:
                sum_err = err

            pw *= omm
            bound = am + pw * y0_excess
            if y1 > bound + ybtol or y1 < -ybtol:
                ybv += 1

            up_x = dx > tie
            dn_x = dx < -tie
            up_y = dy > tie
            dn_y = dy < -tie
            if up_x and up_y:
                c_uu += 1
            elif dn_x and dn_y:
                c_dd += 1
            elif up_x and dn_y:
                c_ud += 1
            elif dn_x and up_y:
                c_du += 1
            else:
                c_tie += 1
            if dn_x or dn_y:
                last_bad = n

            if growth:
                if dn_x and dn_y:
                    per_step_pat += 1
                if seen_both_up and (dn_x or dn_y):
                    per_step_pat += 1
                elif up_x and up_y:
                    seen_both_up = True
                if not (dn_x and up_y):
                    all_down_up = False
                if not (up_x and dn_y):
                    all_up_down = False
                if have_prev:
                    n_pairs += 1
                    was_ud = prev_dx > tie and prev_dy < -tie
                    if was_ud and dn_x and up_y:
                        switches += 1
                    else:
                        alternation_all = False
                    if was_ud and up_x and dn_y:
                        if dx > prev_dx + tie:
                            gain_growth += 1
                        if -dy < -prev_dy - tie:
                            drop_shrink += 1

            x = x1
            y = y1
            if n % every == 0:
                rec_n[k] = n
                rec_x[k] = x
                rec_y[k] = y
                k += 1

            if x < conv and y < conv:
                verdict = Verdict.EXTINCTION
                y_limit = y
                break
            if x > div:
                verdict = Verdict.SURVIVAL
                y_limit = y + am / (1.0 + x)
                break
            yhat = y + am / (1.0 + x)
            if dx > tie and dy >= -tie and abs(yhat - am) < conv:
                streak += 1
                if streak >= confirm:
                    verdict = Verdict.SURVIVAL
                    y_limit = yhat
                    break
            else:
                streak = 0

            prev_dx = dx
            prev_dy = dy
            have_prev = True

        if verdict is Verdict.EXHAUSTED:
            y_limit = y + am / (1.0 + x) if growth else y

    if k == 0 or rec_n[k - 1] != n:
        rec_n[k] = n
        rec_x[k] = x
        rec_y[k] = y
        k += 1

    pattern_violations = per_step_pat
    if growth and verdict is not Verdict.EXHAUSTED:
        if n >= 2:
            pattern_violations += int(all_down_up) + int(all_up_down)
        if n_pairs >= 2:
            pattern_violations += int(alternation_all)

    census = StepSignCensus(
        both_up=c_uu,
        both_down=c_dd,
        x_up_y_down=c_ud,
        x_down_y_up=c_du,
        ties=c_tie,
        switches=switches,
        gain_growth_events=gain_growth,
        drop_shrink_events=drop_shrink,
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
        steps=rec_n[:k].copy(),
        xs=rec_x[:k].copy(),
        ys=rec_y[:k].copy(),
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
    ns = [0]
    xs = [s0.x]
    ys = [s0.y]
    x = s0.x
    y = s0.y
    for n in range(1, n_steps + 1):
        x, y = _map(p, x, y)
        if not (0.0 <= x <= 1e15 and 0.0 <= y <= 1e15):
            ns.append(n)
            xs.append(x)
            ys.append(y)
            break
        if n % record_every == 0 or n == n_steps:
            ns.append(n)
            xs.append(x)
            ys.append(y)
    return (
        np.asarray(ns, dtype=np.int64),
        np.asarray(xs, dtype=np.float64),
        np.asarray(ys, dtype=np.float64),
    )


def _require_same_params(p: Parameters, orbit: Orbit) -> None:
    if p != orbit.params:
        raise ValueError("parameters do not match the orbit's parameters")


def check_y_bound(p: Parameters, orbit: Orbit, tol: float = Y_BOUND_TOL) -> int:
    """Count recorded states violating the adult envelope
    y^(n) <= alpha/mu + (1-mu)^n (y^(0) - alpha/mu), beyond `tol`.
    Offline counterpart of the online monitor; 0 on valid orbits.
    """
    _require_same_params(p, orbit)
    am = p.alpha / p.mu
    y0 = float(orbit.ys[0])
    decay = np.power(1.0 - p.mu, orbit.steps.astype(np.float64))
    bound = am + decay * (y0 - am)
    bad = (orbit.ys > bound + tol) | (orbit.ys < -tol)
    return int(np.count_nonzero(bad[1:]))


def check_sum_identity(p: Parameters, orbit: Orbit) -> float:
    """Max float residual of the total-increment identity
    x^(n) + y^(n) = (beta - mu) y^(n-1) + x^(n-1) + y^(n-1)
    over consecutive recorded states.  Requires a full-resolution
    recording (record_every == 1); the identity links adjacent steps.
    """
    _require_same_params(p, orbit)
    if orbit.config.record_every != 1:
        raise ValueError("sum identity needs record_every == 1 (consecutive states)")
    if len(orbit.xs) < 2:
        return 0.0
    xs = orbit.xs
    ys = orbit.ys
    lhs = xs[1:] + ys[1:]
    rhs = ((p.beta - p.mu) * ys[:-1] + xs[:-1]) + ys[:-1]
    return float(np.max(np.abs(lhs - rhs)))


def count_forbidden_patterns(orbit: Orbit, tie: float = TIE_TOL) -> int:
    """Scan a full-resolution growth-regime orbit for increment-sign
    patterns the dynamics forbids.  Returns a violation count; 0 on any
    orbit of the reduced map with beta > mu.

    Counted per step:
      (a) both coordinates strictly decreasing in one step (impossible:
          the increments sum to (beta - mu) y > 0);
      (b) any strict decrease after the first step where both
          coordinates strictly increased (the both-up regime is
          forward-invariant).

    Counted once if they hold on every available step (>= 2 steps;
    persistence statements, diagnostic on truncated windows):
      (c) x strictly down, y strictly up on every step;
      (d) x strictly up, y strictly down on every step;
      (e) the alternation (x up, y down) -> (x down, y up) on every
          consecutive step pair.

    A strict inequality here means beyond the `tie` tolerance; the
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
    up_x = dx > tie
    dn_x = dx < -tie
    up_y = dy > tie
    dn_y = dy < -tie

    violations = int(np.count_nonzero(dn_x & dn_y))

    both_up = up_x & up_y
    idx = np.nonzero(both_up)[0]
    if idx.size:
        first = int(idx[0])
        violations += int(np.count_nonzero(dn_x[first + 1 :] | dn_y[first + 1 :]))

    if dx.size >= 2:
        violations += int(np.all(dn_x & up_y))
        violations += int(np.all(up_x & dn_y))
    if dx.size >= 3:
        pair = up_x[:-1] & dn_x[1:] & dn_y[:-1] & up_y[1:]
        violations += int(np.all(pair))
    return violations


def check_growth_lower_bound(p: Parameters, orbit: Orbit, n_start: int, slack: float = 1e-12) -> bool:
    """Check the linear growth bound along a recorded growth orbit.

    Anchoring at the first recorded step n_a >= n_start (intended: at or
    after the monotone onset), with theta = max(y^(0), alpha/mu), every
    later recorded step n must satisfy

        x^(n) > x^(n_a) + y^(n_a) - theta + (beta - mu)*(n - n_a)*y^(n_a)

    up to `slack`.  The anchor adult count must be positive (starting on
    the x-axis at the origin gives a y == 0 anchor and an empty bound).
    """
    _require_same_params(p, orbit)
    if not p.beta > p.mu:
        raise ValueError("growth bound applies to beta > mu only")
    pos = int(np.searchsorted(orbit.steps, n_start))
    if pos >= len(orbit.steps):
        raise ValueError(f"no recorded step at or after n_start={n_start}")
    n_a = float(orbit.steps[pos])
    x_a = float(orbit.xs[pos])
    y_a = float(orbit.ys[pos])
    if not y_a > 0.0:
        raise ValueError("anchor adult count must be positive for the growth bound")
    theta = max(float(orbit.ys[0]), p.alpha / p.mu)
    after = orbit.steps > orbit.steps[pos]
    if not np.any(after):
        return True
    gap = orbit.steps[after].astype(np.float64) - n_a
    lower = x_a + y_a - theta + (p.beta - p.mu) * gap * y_a
    return bool(np.all(orbit.xs[after] > lower - slack))


def check_decreasing_totals(p: Parameters, orbit: Orbit, tol: float = TIE_TOL) -> bool:
    """Check the two weighted totals that certify contraction for
    beta < mu: both x + y and (mu/beta) x + y must be nonnegative and
    nonincreasing along the orbit (their one-step increments are
    (beta - mu) y <= 0 and (1 - mu/beta) * emergence <= 0).
    """
    _require_same_params(p, orbit)
    if not p.beta < p.mu:
        raise ValueError("decreasing totals apply to beta < mu only")
    plain = orbit.xs + orbit.ys
    weighted = (p.mu / p.beta) * orbit.xs + orbit.ys
    for total in (plain, weighted):
        if np.any(total < -tol):
            return False
        if total.size >= 2 and np.any(np.diff(total) > tol):
            return False
    return True


def _csv_rows(orbit: Orbit) -> Iterable[str]:
    yield "n,x,y"
    for n, x, y in zip(orbit.steps, orbit.xs, orbit.ys):
        yield f"{int(n)},{float(x):.16e},{float(y):.16e}"


def orbit_to_csv(orbit: Orbit) -> str:
    """The orbit as CSV text: header n,x,y then one row per recorded
    step, coordinates in 17-significant-digit scientific notation, LF
    line endings."""
    return "\n".join(_csv_rows(orbit)) + "\n"


def write_orbit_csv(orbit: Orbit, path) -> None:
    """Write `orbit_to_csv` output atomically (temp file, then rename)."""
    from .ioutil import atomic_write_lines

    atomic_write_lines(path, _csv_rows(orbit))
