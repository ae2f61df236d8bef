"""Parameter and state types plus the one-generation evolution operators.

The model follows a wild mosquito population in two stages, larvae ``x``
and adults ``y``.  One generation advances by

    x' = beta*y - alpha*x/(1+x) - (d0 + d1*x)*x + x
    y' = alpha*x/(1+x) - mu*y + y

where ``alpha`` is the emergence rate with crowding saturation x/(1+x),
``beta`` the egg production rate, ``mu`` the adult mortality, and larval
mortality splits into a density-independent part ``d0`` and a
density-dependent part ``d1*x``.  Dropping larval mortality gives the
reduced map (d0 = d1 = 0); the asymptotic analysis implemented by the
rest of the package concerns that case with beta != mu.

The map is the identity plus the continuous-time right-hand side.  Two
private kernels hold all of the map arithmetic, for scalars and numpy
arrays alike: `_field` gives the increments (the right-hand side of the
flow, used by `vector_field`, `step` and the reference integrator) and
`_map` gives the next generation (used by the array scans and the full
map iteration).  Everything is plain IEEE-754 double arithmetic in the
literal term order written above; no compensated summation anywhere.
The reduced-map orbit loop in `trajectory` inlines `_map` for speed and
is tested against it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Mode",
    "Parameters",
    "State",
    "ValidationReport",
    "validate_parameters",
    "require_valid",
    "vector_field",
    "step",
    "step_reduced",
]


class Mode(str, Enum):
    """Validation mode: the full map, or the reduced no-larval-death case."""

    GENERAL = "general"
    REDUCED = "reduced"


@dataclass(frozen=True)
class Parameters:
    """Model rates.

    Admissible ranges (checked by `validate_parameters`, not here):
    0 < alpha <= 1, beta > 0, 0 < mu <= 1, d0 >= 0, d1 >= 0.  The rates
    are per-generation probabilities-turned-rates; beta in particular is
    not capped at 1.
    """

    alpha: float
    beta: float
    mu: float
    d0: float = 0.0
    d1: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "mu", "d0", "d1"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def is_reduced(self) -> bool:
        """True when larval mortality vanishes and birth != death rate."""
        return self.d0 == 0.0 and self.d1 == 0.0 and self.beta != self.mu


@dataclass(frozen=True)
class State:
    """A population state (larvae, adults).  Both counts must be finite
    and nonnegative; x/(1+x) is meaningless for x < 0."""

    x: float
    y: float

    def __post_init__(self) -> None:
        x = float(self.x)
        y = float(self.y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"state must be finite, got ({self.x!r}, {self.y!r})")
        if x < 0.0 or y < 0.0:
            raise ValueError(f"state must be in the closed positive quadrant, got ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of parameter validation: every constraint with its verdict.

    A report, not an exception; callers that need hard failure use
    `require_valid`.
    """

    mode: Mode
    checks: tuple[tuple[str, bool], ...]

    @property
    def valid(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)

    def message(self) -> str:
        if self.valid:
            return f"parameters valid (mode={self.mode.value})"
        return f"invalid parameters (mode={self.mode.value}): " + "; ".join(self.failures)


def validate_parameters(p: Parameters, mode: Mode | str = Mode.GENERAL) -> ValidationReport:
    """Check the admissible ranges for the requested mode.

    General mode checks 0 < alpha <= 1, beta > 0, 0 < mu <= 1 and
    nonnegative larval mortality.  Reduced mode additionally requires
    d0 = d1 = 0 and beta != mu.
    """
    mode = Mode(mode)
    finite = all(
        math.isfinite(v) for v in (p.alpha, p.beta, p.mu, p.d0, p.d1)
    )
    checks: list[tuple[str, bool]] = [
        ("all parameters finite", finite),
        ("0 < alpha <= 1", finite and 0.0 < p.alpha <= 1.0),
        ("beta > 0", finite and p.beta > 0.0),
        ("0 < mu <= 1", finite and 0.0 < p.mu <= 1.0),
        ("d0 >= 0", finite and p.d0 >= 0.0),
        ("d1 >= 0", finite and p.d1 >= 0.0),
    ]
    if mode is Mode.REDUCED:
        checks.append(("d0 = 0 and d1 = 0", p.d0 == 0.0 and p.d1 == 0.0))
        checks.append(("beta != mu", finite and p.beta != p.mu))
    return ValidationReport(mode=mode, checks=tuple(checks))


def require_valid(p: Parameters, mode: Mode | str = Mode.GENERAL) -> None:
    """Raise ValueError unless `p` validates in `mode`."""
    report = validate_parameters(p, mode)
    if not report.valid:
        raise ValueError(report.message())


# Both kernels skip the larval mortality term when d0 = d1 = 0: for x >= 0
# it is then exactly +0.0, so the result is the same bit for bit, and on
# the reduced-map array scans it made `find_fixed_points` 40% slower.


def _field(p: Parameters, x, y):
    """Per-generation increments (dx, dy) at x, y (scalars or arrays)."""
    emergence = p.alpha * (x / (1.0 + x))
    dx = p.beta * y - emergence
    if p.d0 or p.d1:
        dx = dx - (p.d0 + p.d1 * x) * x
    return dx, emergence - p.mu * y


def _map(p: Parameters, x, y):
    """Next generation (x', y') from x, y (scalars or arrays)."""
    emergence = p.alpha * (x / (1.0 + x))
    dx = p.beta * y - emergence
    if p.d0 or p.d1:
        dx = dx - (p.d0 + p.d1 * x) * x
    return dx + x, emergence + (1.0 - p.mu) * y


def vector_field(p: Parameters, s: State) -> tuple[float, float]:
    """Continuous-time right-hand side at `s`.

    Also the exact per-generation increment: `step(p, s)` equals
    s + vector_field(p, s) coordinatewise, bit for bit, because the map
    is written as the identity plus this field.
    """
    return _field(p, s.x, s.y)


def step(p: Parameters, s: State) -> State:
    """Advance one generation under the full map."""
    require_valid(p, Mode.GENERAL)
    dx, dy = vector_field(p, s)
    return State(s.x + dx, s.y + dy)


def step_reduced(p: Parameters, s: State) -> State:
    """Advance one generation under the reduced map (no larval mortality).

    Requires reduced-mode validity, in particular beta != mu.  With
    d0 = d1 = 0 the mortality term contributes exactly nothing to the
    floating-point sum, so this shares `vector_field` with `step`.
    """
    require_valid(p, Mode.REDUCED)
    dx, dy = vector_field(p, s)
    return State(s.x + dx, s.y + dy)
