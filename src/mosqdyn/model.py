"""Parameter and state types plus the one-generation evolution operator.

The model follows a wild mosquito population in two stages, larvae ``x``
and adults ``y``.  One generation advances by

    x' = beta*y - alpha*x/(1+x) - (d0 + d1*x)*x + x
    y' = alpha*x/(1+x) - mu*y + y

where ``alpha`` is the emergence rate with crowding saturation x/(1+x),
``beta`` the egg production rate, ``mu`` the adult mortality, and larval
mortality splits into a density-independent part ``d0`` and a
density-dependent part ``d1*x``.  Dropping larval mortality gives the
reduced map (d0 = d1 = 0); the asymptotic analysis implemented by the
rest of the package concerns that case with beta != mu.  One kernel
serves both maps.

The map is the identity plus the flow's right-hand side, as
`tests/test_proofs.py` proves in exact arithmetic.  Two private kernels
hold all of the map arithmetic, for scalars, arrays and sympy symbols:
`_map` gives the next generation and `_field` the increments.  In floats
they round apart, and `_map`'s y' = e + (1 - mu) y is the closer to the
exact image, so every next state comes from `_map`.  No compensated
summation.  `_map` is the one map kernel: every caller, the planar grid
(`simplex.count_two_cycles_on_grid`) included, takes both counts of the
next generation from it; `trajectory.iterate_general` calls it once a
step.  Two hot loops inline a kernel's arithmetic, operation for
operation, and a test pins each to the kernel bit for bit:

* `trajectory.iterate_orbit` inlines `_map`
  (`test_orbit_loop_matches_map_kernel_bit_for_bit` in
  `tests/test_trajectory.py`);
* `ode.integrate_flow` inlines `_field` at each RK4 stage
  (`test_rk4_loop_matches_field_kernel_bit_for_bit` in
  `tests/test_ode.py`).

`_slack`, the one rounding bound of every float residual, lives here too,
and so does `_EXACT`, the decimal context of every exact sign.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from types import SimpleNamespace

import numpy as np

__all__ = [
    "Mode",
    "Parameters",
    "State",
    "ValidationReport",
    "validate_parameters",
    "require_valid",
    "step",
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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of parameter validation: the constraints that failed.

    A report, not an exception; callers that need hard failure use
    `require_valid`.
    """

    mode: Mode
    failures: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.failures

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
    # nan fails every comparison, so each range names only its own rate
    checks: list[tuple[str, bool]] = [
        ("all parameters finite", finite),
        ("0 < alpha <= 1", 0.0 < p.alpha <= 1.0),
        ("beta > 0", p.beta > 0.0),
        ("0 < mu <= 1", 0.0 < p.mu <= 1.0),
        ("d0 >= 0", p.d0 >= 0.0),
        ("d1 >= 0", p.d1 >= 0.0),
    ]
    if mode is Mode.REDUCED:
        checks.append(("d0 = 0 and d1 = 0", p.d0 == 0.0 and p.d1 == 0.0))
        checks.append(("beta != mu", p.beta != p.mu))
    return ValidationReport(mode=mode, failures=tuple(name for name, ok in checks if not ok))


def require_valid(p: Parameters, mode: Mode | str = Mode.GENERAL) -> None:
    """Raise ValueError unless `p` validates in `mode`."""
    report = validate_parameters(p, mode)
    if not report.valid:
        raise ValueError(report.message())


# `_field` and `_map` skip the larval mortality term when
# d0 = d1 = 0: for x >= 0 it is then exactly +0.0, so the result is the
# same bit for bit, and on the cells
# `simplex.count_two_cycles_on_grid` maps the term would add about a
# fifth to the scan.


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
    # y' first, while the emergence is in cache: on the planar grid's
    # arrays that is about 6% faster than x' first
    y1 = emergence + (1.0 - p.mu) * y
    dx = p.beta * y - emergence
    if p.d0 or p.d1:
        dx = dx - (p.d0 + p.d1 * x) * x
    return dx + x, y1


def _slack(size, floor: float):
    """Eight ulps of `size` (a float or an array), never below `floor`."""
    scaled = 8 * sys.float_info.epsilon * abs(size)
    return np.maximum(floor, scaled) if isinstance(scaled, np.ndarray) else max(floor, scaled)


def _same_bits(a: float, b: float) -> bool:
    """Whether two equal floats are the same double: a zero equals the
    zero of the other sign (-0.0 == 0.0), and the two format apart."""
    return math.copysign(1.0, a) == math.copysign(1.0, b)


# Decimal(float) is exact, as every double is a finite decimal.  Each
# value formed in this context is a polynomial of degree <= 2 in the
# rates with coefficients in Z/16: at most 2,771 digits (1e619 down to
# 1e-2152), so nothing rounds, and the Inexact trap would raise rather
# than round.  `simplex` and `spectral` decide their exact signs here.
_EXACT = decimal.Context(prec=3000, traps=[decimal.Inexact])


def _exact(p: Parameters) -> SimpleNamespace:
    """The rates of `p` as exact decimals, for use inside `_EXACT`."""
    return SimpleNamespace(alpha=Decimal(p.alpha), beta=Decimal(p.beta), mu=Decimal(p.mu))


def step(p: Parameters, s: State) -> State:
    """Advance one generation under the full map (the reduced map when
    d0 = d1 = 0) by `_map`.  Checks general-mode validity only; callers
    that need beta != mu check it themselves.  An image outside the
    quadrant raises ValueError, through `State`."""
    require_valid(p, Mode.GENERAL)
    return State(*_map(p, s.x, s.y))
