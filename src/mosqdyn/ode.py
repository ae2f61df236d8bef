"""Continuous-time reference model and its equilibrium structure.

The discrete map is the unit-step Euler scheme of the planar flow

    x. = beta*y - alpha*x/(1+x) - (d0 + d1*x)*x
    y. = alpha*x/(1+x) - mu*y

(the shared `vector_field`).  The flow carries its own threshold
quantity, the basic offspring number

    r0 = alpha*beta / ((alpha + d0) * mu):

the extinction equilibrium is asymptotically stable when r0 <= 1, and
for r0 > 1 with density-dependent larval mortality (d1 > 0) a unique
positive equilibrium appears at

    x0 = (sqrt((d0 + d1)^2 - 4 d1 (alpha + d0)(1 - r0)) - d0 - d1) / (2 d1)
    y0 = alpha*x0 / (mu*(1 + x0)).

With d1 = 0 the larval balance is linear and no positive equilibrium
exists (the discrete reduced case inherits exactly this degeneracy:
r0 = beta/mu and the dichotomy is extinction versus unbounded growth).

`integrate_flow` is a fixed-step classical Runge-Kutta (4th order)
integrator; deliberately plain, it is the package's independent
reference for cross-checking discrete verdicts, so it avoids adaptive
machinery that would be harder to reason about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, VerificationError
from .model import Mode, Parameters, State, _field, require_valid, vector_field

__all__ = [
    "OdeConfig",
    "EquilibriumReport",
    "FlowTrajectory",
    "offspring_number",
    "positive_equilibrium",
    "equilibrium_report",
    "integrate_flow",
    "flow_to_csv",
    "write_flow_csv",
]


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step integrator settings.  The number of steps is
    floor(t_end/step + 1e-9); the final time is that many whole steps."""

    step: float = 0.01
    t_end: float = 500.0
    conv_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.step <= 1.0):
            raise ValueError("step must lie in (0, 1]")
        if self.t_end < self.step:
            raise ValueError("t_end must be at least one step")
        if not (self.conv_tol > 0.0):
            raise ValueError("conv_tol must be positive")


@dataclass(frozen=True)
class EquilibriumReport:
    """Threshold quantity and equilibria of the flow: r0, stability of
    the extinction state (stable iff r0 <= 1), and the positive
    equilibrium when it exists (r0 > 1 and d1 > 0, else None)."""

    r0: float
    trivial_stable: bool
    positive: State | None


@dataclass(frozen=True)
class FlowTrajectory:
    """Integrator output: aligned arrays of times and coordinates.
    Coordinates are raw floats (a numerical trajectory may graze zero),
    not State instances."""

    params: Parameters
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    @property
    def final(self) -> tuple[float, float]:
        return (float(self.xs[-1]), float(self.ys[-1]))

    def points(self):
        for t, x, y in zip(self.ts, self.xs, self.ys):
            yield (float(t), float(x), float(y))


def offspring_number(p: Parameters) -> float:
    """Basic offspring number r0 = alpha*beta / ((alpha + d0) * mu)."""
    require_valid(p, Mode.GENERAL)
    denom = (p.alpha + p.d0) * p.mu
    if denom == 0.0:
        raise ValueError("offspring number undefined: (alpha + d0) * mu is zero")
    return (p.alpha * p.beta) / denom


def positive_equilibrium(p: Parameters, residual_tol: float = 1e-9) -> State | None:
    """The unique positive equilibrium of the flow, or None when r0 <= 1.

    Requires d1 > 0 (with d1 = 0 the equilibrium escapes to infinity as
    the larval balance degenerates; callers in the reduced world should
    not ask).  The closed form is verified against the vector field
    before being returned; a residual above `residual_tol` raises
    VerificationError.
    """
    require_valid(p, Mode.GENERAL)
    if not p.d1 > 0.0:
        raise ValueError("positive equilibrium requires density-dependent larval mortality d1 > 0")
    r0 = offspring_number(p)
    if r0 <= 1.0:
        return None
    disc = (p.d0 + p.d1) ** 2 - 4.0 * p.d1 * (p.alpha + p.d0) * (1.0 - r0)
    x0 = (math.sqrt(disc) - p.d0 - p.d1) / (2.0 * p.d1)
    y0 = p.alpha * x0 / (p.mu * (1.0 + x0))
    eq = State(x0, y0)
    fx, fy = vector_field(p, eq)
    if max(abs(fx), abs(fy)) > residual_tol:
        raise VerificationError(
            f"positive equilibrium residual {max(abs(fx), abs(fy)):.3e} exceeds {residual_tol:.1e}"
        )
    return eq


def equilibrium_report(p: Parameters) -> EquilibriumReport:
    """r0, trivial-state stability, and the positive equilibrium if any."""
    r0 = offspring_number(p)
    positive = None
    if p.d1 > 0.0 and r0 > 1.0:
        positive = positive_equilibrium(p)
    return EquilibriumReport(r0=r0, trivial_stable=r0 <= 1.0, positive=positive)


def integrate_flow(p: Parameters, s0: State, config: OdeConfig | None = None) -> FlowTrajectory:
    """Integrate the flow from s0 with fixed-step classical Runge-Kutta.

    Raises IntegrationError if the state turns non-finite or the larval
    count falls below -0.5 (the vector field has a pole at x = -1;
    nothing meaningful lives on that side).
    """
    require_valid(p, Mode.GENERAL)
    cfg = config if config is not None else OdeConfig()
    h = cfg.step
    n_steps = int(math.floor(cfg.t_end / h + 1e-9))

    ts = np.empty(n_steps + 1, dtype=np.float64)
    xs = np.empty(n_steps + 1, dtype=np.float64)
    ys = np.empty(n_steps + 1, dtype=np.float64)
    x = s0.x
    y = s0.y
    ts[0] = 0.0
    xs[0] = x
    ys[0] = y
    half = 0.5 * h
    sixth = h / 6.0
    try:
        for i in range(1, n_steps + 1):
            k1x, k1y = _field(p, x, y)
            k2x, k2y = _field(p, x + half * k1x, y + half * k1y)
            k3x, k3y = _field(p, x + half * k2x, y + half * k2y)
            k4x, k4y = _field(p, x + h * k3x, y + h * k3y)
            x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
            y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
            if not (math.isfinite(x) and math.isfinite(y)) or x < -0.5:
                raise IntegrationError(
                    f"integration left the admissible region at t={i * h:.6g}: x={x!r}, y={y!r}"
                )
            ts[i] = i * h
            xs[i] = x
            ys[i] = y
    except ZeroDivisionError as exc:
        raise IntegrationError("vector field pole reached (x = -1)") from exc
    return FlowTrajectory(params=p, ts=ts, xs=xs, ys=ys)


def _csv_rows(traj: FlowTrajectory):
    yield "t,x,y"
    for t, x, y in zip(traj.ts, traj.xs, traj.ys):
        yield f"{float(t):.6f},{float(x):.16e},{float(y):.16e}"


def flow_to_csv(traj: FlowTrajectory) -> str:
    return "\n".join(_csv_rows(traj)) + "\n"


def write_flow_csv(traj: FlowTrajectory, path) -> None:
    from .ioutil import atomic_write_lines

    atomic_write_lines(path, _csv_rows(traj))
