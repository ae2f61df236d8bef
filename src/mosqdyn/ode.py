"""Continuous-time reference model and its equilibrium structure.

The discrete map is the unit-step Euler scheme of the planar flow

    x. = beta*y - alpha*x/(1+x) - (d0 + d1*x)*x
    y. = alpha*x/(1+x) - mu*y

(the kernel `model._field`; `tests/test_proofs.py` proves the map equal
to the identity plus it).  The flow carries its own threshold
quantity, the basic offspring number

    r0 = alpha*beta / ((alpha + d0) * mu):

the extinction equilibrium is asymptotically stable when r0 <= 1, and
for r0 > 1 with density-dependent larval mortality (d1 > 0) a unique
positive equilibrium appears at the root of d1 x^2 + (d0 + d1) x = c,
c = (alpha + d0)(r0 - 1), in the form that cancels no terms:

    x0 = 2 c / (sqrt((d0 + d1)^2 + 4 d1 c) + d0 + d1)
    y0 = alpha*x0 / (mu*(1 + x0)).

With d1 = 0 the larval balance is linear and no positive equilibrium
exists (the discrete reduced case inherits exactly this degeneracy:
r0 = beta/mu and the dichotomy is extinction versus unbounded growth).

`integrate_flow` is a fixed-step classical Runge-Kutta (4th order)
integrator; deliberately plain, it is the package's independent
reference for cross-checking discrete verdicts, so it avoids adaptive
machinery that would be harder to reason about.  For speed its loop
inlines `_field` at each of the four stages instead of calling it;
`test_rk4_loop_matches_field_kernel_bit_for_bit` in `tests/test_ode.py`
pins the loop to an RK4 step written on `_field`, bit for bit.  It also
stops at the first step that returns its input bit for bit: the field
is autonomous and the step size fixed, so every later step would return
the same state, and the remaining samples are filled with it.  On the
long horizons of `compare`, where the flow settles on the positive
equilibrium, that is most of the samples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, VerificationError
from .model import Mode, Parameters, State, _field, _same_bits, _slack, require_valid

__all__ = [
    "OdeConfig",
    "FlowTrajectory",
    "offspring_number",
    "positive_equilibrium",
    "integrate_flow",
]

_INF = math.inf
_TINY = sys.float_info.min  # the smallest normal double


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step integrator settings.  The number of steps is
    floor(t_end/step + 1e-9), which must be finite; the final time is
    that many whole steps."""

    step: float = 0.01
    t_end: float = 500.0

    def __post_init__(self) -> None:
        if not (0.0 < self.step <= 1.0):
            raise ValueError("step must lie in (0, 1]")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.t_end < self.step:
            raise ValueError("t_end must be at least one step")
        if not math.isfinite(self.t_end / self.step):
            raise ValueError(f"t_end / step must be finite, got {self.t_end} / {self.step}")

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.t_end / self.step + 1e-9))


@dataclass(frozen=True)
class FlowTrajectory:
    """Integrator output: aligned arrays of times and coordinates.
    Coordinates are raw floats (a numerical trajectory may graze zero),
    not State instances."""

    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    @property
    def final(self) -> tuple[float, float]:
        return (float(self.xs[-1]), float(self.ys[-1]))


def offspring_number(p: Parameters) -> float:
    """Basic offspring number r0 = alpha*beta / ((alpha + d0) * mu).

    Evaluated as beta * (alpha / (alpha + d0)) / mu: no divisor can
    round to zero, and the first product is at most beta, so nothing
    overflows before r0 itself does.  With d0 = 0 the fraction is
    exactly 1, so r0 is beta/mu rounded once and lies on the same side
    of 1 as beta of mu.  Where the fraction or the first product is
    subnormal it has lost digits (or all of them), and r0 is the exact
    rational value rounded once instead, inf beyond the float range."""
    require_valid(p, Mode.GENERAL)
    a = p.alpha / (p.alpha + p.d0)
    q = p.beta * a
    if a < _TINY or q < _TINY:
        # digits lost: evaluate exactly and round once.  Imported here,
        # as every command's start-up would pay for it at the top.
        from fractions import Fraction as F

        try:
            return float(F(p.alpha) * F(p.beta) / ((F(p.alpha) + F(p.d0)) * F(p.mu)))
        except OverflowError:
            return _INF
    return q / p.mu


def positive_equilibrium(p: Parameters) -> State | None:
    """The unique positive equilibrium of the flow, or None when r0 <= 1.

    Requires d1 > 0 (with d1 = 0 the equilibrium escapes to infinity as
    the larval balance degenerates; callers in the reduced world should
    not ask).  The closed form is verified against the vector field
    before being returned; a residual beyond `_slack` (floor 1e-9) of
    the largest term the increments cancel, max(beta y, e, (d0 + d1 x) x,
    mu y) with e the emergence, raises VerificationError.  So does a
    root that is not finite: when r0 overflows (beta about 1e308 over a
    small mu), x0 is inf/inf, and beta y would overflow the field anyway,
    so no float equilibrium can be verified.
    """
    require_valid(p, Mode.GENERAL)
    if not p.d1 > 0.0:
        raise ValueError("positive equilibrium requires density-dependent larval mortality d1 > 0")
    r0 = offspring_number(p)
    if r0 <= 1.0:
        return None
    c = (p.alpha + p.d0) * (r0 - 1.0)
    x = 2.0 * c / (math.sqrt((p.d0 + p.d1) ** 2 + 4.0 * p.d1 * c) + p.d0 + p.d1)
    y = p.alpha * x / (p.mu * (1.0 + x))
    if not (math.isfinite(x) and math.isfinite(y)):
        raise VerificationError(f"positive equilibrium is not finite: ({x!r}, {y!r}) at r0={r0!r}")
    res = max(map(abs, _field(p, x, y)))
    tol = _slack(max(p.beta * y, _field(p, x, 0.0)[1], (p.d0 + p.d1 * x) * x, p.mu * y), 1e-9)
    if res > tol:
        raise VerificationError(f"positive equilibrium residual {res:.3e} exceeds {tol:.1e}")
    return State(x, y)


def integrate_flow(p: Parameters, s0: State, config: OdeConfig | None = None) -> FlowTrajectory:
    """Integrate the flow from s0 with fixed-step classical Runge-Kutta.

    Raises IntegrationError if the state turns non-finite or the larval
    count falls below -0.5 (the vector field has a pole at x = -1;
    nothing meaningful lives on that side); every computed step is
    checked.  A step that returns its input bit for bit (a zero repeats
    only a zero of its own sign) ends the loop: the later samples are
    that state, which each further step would return again.
    """
    require_valid(p, Mode.GENERAL)
    cfg = config if config is not None else OdeConfig()
    h = cfg.step
    n_steps = cfg.n_steps

    # both sample arrays up front: a horizon beyond memory fails here, at once
    xs = np.empty(n_steps + 1, dtype=np.float64)
    ys = np.empty(n_steps + 1, dtype=np.float64)
    put_x = memoryview(xs)
    put_y = memoryview(ys)
    alpha = p.alpha
    beta = p.beta
    mu = p.mu
    d0 = p.d0
    d1 = p.d1
    larval = bool(d0 or d1)
    x = s0.x
    y = s0.y
    put_x[0] = x
    put_y[0] = y
    half = 0.5 * h
    sixth = h / 6.0
    # `_field` inlined at each of the four stages, the larval term behind
    # its own test; tests/test_ode.py pins the loop to `_field` bit for bit
    try:
        for i in range(1, n_steps + 1):
            em = alpha * (x / (1.0 + x))
            k1x = beta * y - em
            if larval:
                k1x = k1x - (d0 + d1 * x) * x
            k1y = em - mu * y

            sx = x + half * k1x
            sy = y + half * k1y
            em = alpha * (sx / (1.0 + sx))
            k2x = beta * sy - em
            if larval:
                k2x = k2x - (d0 + d1 * sx) * sx
            k2y = em - mu * sy

            sx = x + half * k2x
            sy = y + half * k2y
            em = alpha * (sx / (1.0 + sx))
            k3x = beta * sy - em
            if larval:
                k3x = k3x - (d0 + d1 * sx) * sx
            k3y = em - mu * sy

            sx = x + h * k3x
            sy = y + h * k3y
            em = alpha * (sx / (1.0 + sx))
            k4x = beta * sy - em
            if larval:
                k4x = k4x - (d0 + d1 * sx) * sx
            k4y = em - mu * sy

            nx = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
            ny = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
            # not finite, or x below -0.5: nan fails every comparison
            if not (-0.5 <= nx < _INF and -_INF < ny < _INF):
                raise IntegrationError(
                    f"integration left the admissible region at t={i * h:.6g}: x={nx!r}, y={ny!r}"
                )
            if nx == x and ny == y and _same_bits(nx, x) and _same_bits(ny, y):
                # the step returned its input: every later step repeats it
                xs[i:] = x
                ys[i:] = y
                break
            put_x[i] = x = nx
            put_y[i] = y = ny
    except ZeroDivisionError as exc:
        raise IntegrationError("vector field pole reached (x = -1)") from exc
    # sample i is at float(i) * h, the product i * h rounded once
    ts = np.arange(n_steps + 1, dtype=np.float64)
    ts *= h
    return FlowTrajectory(ts=ts, xs=xs, ys=ys)
