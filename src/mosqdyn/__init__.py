"""mosqdyn: a discrete-time wild mosquito population model with distinct
birth and death rates, plus the machinery to certify its asymptotics.

The package simulates the two-stage (larvae, adults) map, classifies the
extinction state spectrally, verifies the extinction/escape dichotomy
along orbits with online monitors, excludes periodic behavior on the
population simplex, and cross-checks everything against the continuous
flow the map discretizes.  `battery` gathers those checks into the sweep
and certificate battery that the command line interface runs.

Each command loads only the modules it runs.  This module imports none
at load: `mosqdyn.<module>` and the names of every module's `__all__`
resolve on first use (PEP 562), each looked up in its module on every
access.  `cli` imports at load only what its parser and `classify` need,
and each other command imports the rest as its first statement.  numpy
is imported by the functions that build arrays, never at load.  So
`classify` loads neither numpy nor `trajectory`, `battery` or `simplex`.
"""

import importlib

__version__ = "0.1.0"

# each public name by the module whose __all__ lists it; a test holds
# this table to those lists
_EXPORTS = {
    "battery": ("Certificate", "SweepCell", "SWEEP_CSV_HEADER", "expected_fate", "sweep",
                "run_certificates", "run_trials", "thresholds_agree"),
    "errors": ("VerificationError", "IntegrationError"),
    "model": ("Mode", "Parameters", "State", "ValidationReport", "validate_parameters", "require_valid", "step"),
    "ode": ("OdeConfig", "FlowTrajectory", "offspring_number", "positive_equilibrium", "integrate_flow"),
    "simplex": ("PeriodCertificate", "interval_map", "interval_map_parts", "check_interval_map_range",
                "two_cycle_certificate", "scan_periodic_points", "count_two_cycles_on_grid"),
    "spectral": ("Classification", "SpectralReport", "classify_origin", "stability_inequalities",
                 "find_fixed_points"),
    "trajectory": ("Verdict", "OrbitConfig", "StepSignCensus", "MonitorLog", "Orbit", "iterate_orbit",
                   "iterate_general", "check_growth_lower_bound", "adult_limit_step",
                   "check_decreasing_totals", "orbit_to_csv"),
}
_SUBMODULES = frozenset({*_EXPORTS, "ioutil"})
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # a name outside the table, a dunder included, imports nothing
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_HOME})
