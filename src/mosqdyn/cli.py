"""Command line interface.

Subcommands:

    simulate   iterate the reduced map, print a verdict, dump the orbit
    classify   spectral report for the extinction state as JSON
    sweep      grid scan: classification vs simulated verdict agreement
    certify    run the certificate battery for one parameter set
    compare    discrete orbit next to the continuous flow

Exit codes: 0 success, 2 invalid parameters or options (argparse errors
included, and budgets too large for memory), 3 I/O failure, 4 a
verification or agreement failure.  The rates (through
`model.require_valid`), then the options, are checked before any
computation.

Every option is a command line flag.  The detection thresholds and the
certify scan sizes are not options: they are constants of the modules
that use them (`trajectory.CONV_TOL` and `DIV_THRESHOLD`, the grids of
`simplex.scan_periodic_points` and `count_two_cycles_on_grid`).
`certify --trials` runs the whole battery on rates and starts drawn from
--seed (default DEFAULT_SEED) and echoes the seed in effect.
File outputs are written atomically (temp file in the target directory,
then rename); an --out that names something other than a regular file
or a directory, such as a FIFO or a device node, is refused (exit 3) and
left as it is.  The checks themselves live in `battery`; this module
parses, prints, writes and maps outcomes to exit codes.

Each command loads only the library modules it runs (the rule is stated
in the package docstring).  At load this module imports only what the
parser and `classify` need; each other command imports its `trajectory`
and `battery` names as its first statement; those names stay readable
as attributes of this module (`_DEFERRED`).
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import math
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING

from .errors import IntegrationError, VerificationError
from .ioutil import FLOAT_FIELD, atomic_write_lines, atomic_write_text, fmt, json_text
from .model import Mode, Parameters, State, expected_fate, require_valid, validate_parameters
from .ode import OdeConfig, integrate_flow, offspring_number, positive_equilibrium, thresholds_agree
from .spectral import classify_origin, stability_inequalities

if TYPE_CHECKING:
    import numpy as np

    from .trajectory import Orbit, OrbitConfig

__all__ = ["main", "DEFAULT_SEED"]

DEFAULT_SEED = 12345

# the names of `battery` and `trajectory` readable as attributes of this
# module (`cli.iterate_orbit`), by module.  `__getattr__` looks each up in
# its module on every access and never binds it here, so a name patched
# in its module reads patched here too.
_DEFERRED = {
    "SWEEP_CSV_HEADER": "battery",
    "run_certificates": "battery",
    "run_trials": "battery",
    "sweep": "battery",
    "Orbit": "trajectory",
    "OrbitConfig": "trajectory",
    "iterate_general": "trajectory",
    "iterate_orbit": "trajectory",
    "orbit_to_csv": "trajectory",
}


def __getattr__(name: str):
    # a name outside the table, a dunder included, imports nothing
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_DEFERRED[name]}"), name)


def _orbit_config(args: argparse.Namespace) -> OrbitConfig:
    from .trajectory import OrbitConfig

    record_every = getattr(args, "record_every", 1)  # certify and compare keep every step
    # checked here as well as in OrbitConfig, so that the message names the flag
    for flag, value in (("--steps", args.steps), ("--record-every", record_every)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    return OrbitConfig(max_iters=args.steps, record_every=record_every)


# ---------------------------------------------------------------- parser


def _add_rate_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=float, required=True, help="emergence rate, in (0, 1]")
    sp.add_argument("--beta", type=float, required=True, help="egg production rate, > 0")
    sp.add_argument("--mu", type=float, required=True, help="adult mortality, in (0, 1]")


def _add_start_flags(sp: argparse.ArgumentParser, required: bool) -> None:
    if required:
        sp.add_argument("--x0", type=float, required=True, help="initial larval count")
        sp.add_argument("--y0", type=float, required=True, help="initial adult count")
    else:
        sp.add_argument("--x0", type=float, default=1.0, help="initial larval count (default 1.0)")
        sp.add_argument("--y0", type=float, default=1.0, help="initial adult count (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosqdyn",
        description="Simulate and certify the two-stage wild mosquito population model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="iterate the reduced map and report the verdict")
    _add_rate_flags(sp)
    _add_start_flags(sp, required=True)
    sp.add_argument("--steps", type=int, default=1_000_000, help="iteration budget (default 1000000)")
    sp.add_argument("--record-every", type=int, default=1, help="keep every k-th step of the orbit (default 1)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv", help="orbit dump format (default csv)")
    sp.add_argument("--out", type=str, default=None, help="output path (default: orbit to stdout)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("classify", help="spectral report for the extinction state (JSON)")
    _add_rate_flags(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("sweep", help="grid scan comparing classification with simulated fate")
    sp.add_argument("--alpha-range", type=float, nargs=3, required=True, metavar=("LO", "HI", "N"),
                    help="emergence rate grid: low, high, count")
    sp.add_argument("--beta-range", type=float, nargs=3, required=True, metavar=("LO", "HI", "N"),
                    help="egg production grid: low, high, count")
    sp.add_argument("--mu-range", type=float, nargs=3, required=True, metavar=("LO", "HI", "N"),
                    help="adult mortality grid: low, high, count")
    _add_start_flags(sp, required=False)
    sp.add_argument("--steps", type=int, default=1_000_000, help="iteration budget per cell (default 1000000)")
    sp.add_argument("--record-every", type=int, default=16,
                    help="keep every k-th step of each cell's orbit in memory (default 16)")
    sp.add_argument("--out", type=str, required=True, help="CSV output path")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("certify", help="run the certificate battery for one parameter set")
    _add_rate_flags(sp)
    _add_start_flags(sp, required=False)
    sp.add_argument("--steps", type=int, default=1_000_000, help="iteration budget for orbit certificates")
    sp.add_argument("--trials", type=int, default=0, help="additional randomized parameter trials (default 0)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"RNG seed for --trials (default {DEFAULT_SEED})")
    sp.add_argument("--out", type=str, default=None, help="optional JSON certificate dump")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("compare", help="discrete orbit next to the continuous flow")
    _add_rate_flags(sp)
    sp.add_argument("--d0", type=float, default=0.0, help="density-independent larval mortality (default 0)")
    sp.add_argument("--d1", type=float, default=0.0, help="density-dependent larval mortality (default 0)")
    _add_start_flags(sp, required=True)
    sp.add_argument("--steps", type=int, default=500, help="discrete steps (default 500)")
    sp.add_argument("--t-end", type=float, default=500.0, help="integration horizon (default 500)")
    sp.add_argument("--dt", type=float, default=0.01, help="integrator step (default 0.01)")
    sp.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_compare)

    return parser


# ------------------------------------------------------------- simulate


def _finite_or_none(v: float) -> float | None:
    return v if math.isfinite(v) else None


def _orbit_json(orbit: Orbit) -> dict:
    import numpy as np

    # strict JSON has no NaN or Infinity: an overflowed value is null
    coords = np.array([orbit.xs, orbit.ys])
    finite = np.isfinite(coords)
    if not finite.all():
        coords = np.where(finite, coords, None)
    xs, ys = coords.tolist()
    monitors = asdict(orbit.monitors)
    monitors["sum_identity_max_err"] = _finite_or_none(orbit.monitors.sum_identity_max_err)
    return {
        "params": asdict(orbit.params),
        "config": asdict(orbit.config),
        "verdict": orbit.verdict.value,
        "n_steps": orbit.n_steps,
        "y_limit_estimate": _finite_or_none(orbit.y_limit_estimate),
        "monitors": monitors,
        "orbit": list(zip(orbit.steps.tolist(), xs, ys)),
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    from .trajectory import iterate_orbit, orbit_to_csv

    p = Parameters(args.alpha, args.beta, args.mu)
    require_valid(p, Mode.REDUCED)
    orbit = iterate_orbit(p, State(args.x0, args.y0), _orbit_config(args))
    verdict_line = (
        f"verdict={orbit.verdict.value} n_steps={orbit.n_steps} "
        f"y_limit_estimate={fmt(orbit.y_limit_estimate)}"
    )
    if args.format == "csv":
        body = orbit_to_csv(orbit)
    else:
        body = json_text(_orbit_json(orbit))
    if args.out:
        atomic_write_text(args.out, body)
        print(verdict_line)
    else:
        sys.stdout.write(body)
        print(verdict_line, file=sys.stderr)
    return 0


# ------------------------------------------------------------- classify


def cmd_classify(args: argparse.Namespace) -> int:
    p = Parameters(args.alpha, args.beta, args.mu)
    report = classify_origin(p)
    ineq = stability_inequalities(p)
    comparison, fate = expected_fate(p)
    out = {
        "alpha": p.alpha,
        "beta": p.beta,
        "mu": p.mu,
        "jacobian": [list(row) for row in report.jacobian],
        "eigenvalues": [_finite_or_none(report.lambda1), _finite_or_none(report.lambda2)],
        "classification": report.classification.value,
        "stability_inequalities": list(ineq),
        "r0": _finite_or_none(offspring_number(p)),
        "rate_comparison": comparison,
        "expected_fate": fate,
    }
    sys.stdout.write(json_text(out))
    return 0


# ---------------------------------------------------------------- sweep


def _axis(rng3: list[float], name: str) -> np.ndarray:
    import numpy as np

    lo, hi, n_f = rng3
    if not np.all(np.isfinite(rng3)):
        raise ValueError(f"{name}: low, high and count must be finite, got {lo} {hi} {n_f}")
    if not n_f.is_integer():
        raise ValueError(f"{name}: grid count must be a whole number, got {n_f}")
    n = int(n_f)
    if n < 1:
        raise ValueError(f"{name}: grid count must be at least 1, got {n_f}")
    if hi < lo:
        raise ValueError(f"{name}: inverted range [{lo}, {hi}]")
    if n == 1:
        # not np.linspace(lo, hi, 1): that is [nan] where hi - lo overflows
        return np.asarray([lo], dtype=np.float64)
    if not np.isfinite(hi - lo):
        # np.linspace would warn and return nan nodes
        raise ValueError(f"{name}: high - low must be finite, got {lo} {hi} {n_f}")
    try:
        return np.linspace(lo, hi, n)
    except (ValueError, MemoryError):
        # ValueError past numpy's largest array size, MemoryError for a
        # count it can size but not allocate
        raise ValueError(f"{name}: grid count too large, got {n_f}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    from .battery import SWEEP_CSV_HEADER, sweep

    alphas = _axis(args.alpha_range, "--alpha-range")
    betas = _axis(args.beta_range, "--beta-range")
    mus = _axis(args.mu_range, "--mu-range")
    cells = sweep(alphas, betas, mus, State(args.x0, args.y0), _orbit_config(args))
    atomic_write_lines(args.out, [SWEEP_CSV_HEADER] + [c.csv_row() for c in cells])
    n_in = sum(c.in_condition for c in cells)
    n_agree = sum(c.agree is True for c in cells)
    print(f"cells={len(cells)} in_condition={n_in} agree={n_agree} disagree={n_in - n_agree}")
    return 4 if n_agree < n_in else 0


# -------------------------------------------------------------- certify


def cmd_certify(args: argparse.Namespace) -> int:
    from .battery import run_certificates, run_trials

    p = Parameters(args.alpha, args.beta, args.mu)
    require_valid(p, Mode.REDUCED)
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    cfg = _orbit_config(args)
    results, _ = run_certificates(p, State(args.x0, args.y0), cfg)
    seed = args.seed if args.trials > 0 else None
    if seed is not None:
        print(f"seed={seed}")
        results.extend(run_trials(args.trials, seed, cfg))
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    n_fail = sum(1 for _, ok, _ in results if not ok)
    print(f"certificates={len(results)} failed={n_fail}")
    if args.out:
        payload = {
            "params": asdict(p),
            "seed": seed,
            "certificates": [
                {"name": name, "pass": ok, "detail": detail} for name, ok, detail in results
            ],
        }
        atomic_write_text(args.out, json_text(payload))
    return 4 if n_fail else 0


# -------------------------------------------------------------- compare


# `compare` CSV rows: map n, x, y beside flow t, x, y; a side that has
# run out leaves its three fields empty
_COMPARE_HEADER = "n,x_map,y_map,t,x_flow,y_flow"
_COMPARE_XY = f"{FLOAT_FIELD},{FLOAT_FIELD}"


def _last_change(v: np.ndarray) -> int:
    """Index of the last element of `v` that differs from its final one,
    -1 if none: argmax on a mask built in reverse order, so neither an
    index array nor a contiguous copy of the mask is made."""
    back = v[::-1] != v[-1]
    j = int(back.argmax())
    return len(v) - 1 - j if back[j] else -1


def _compare_rows(sides):
    """The `compare` rows of two sides, each (lead, xs, ys, lead field),
    header first.  The rows are cut where a side's frozen tail begins
    and where it ends; in each segment a frozen side's "x,y" text is
    spliced into the row template once, so it is formatted once.  Each
    row is still one `%` of its template, streamed as it is written.
    Frozen means the same bits as the last row, so a -0.0 does not
    repeat a 0.0.

    Memoryviews yield Python ints and floats, which format faster than
    numpy scalars, into the same bytes, and copy nothing."""
    import numpy as np

    parts = []
    for lead, xs, ys, lead_field in sides:
        # the first row of the tail frozen at the last (x, y)
        k = max(_last_change(xs.view(np.int64)), _last_change(ys.view(np.int64))) + 1
        xy = _COMPARE_XY % (float(xs[-1]), float(ys[-1]))
        parts.append((len(xs), k, lead_field, xy, *map(memoryview, (lead, xs, ys))))
    cuts = sorted({0, *(c for n, k, *_ in parts for c in (n, k))})
    segments = [(_COMPARE_HEADER,)]
    for a, b in zip(cuts, cuts[1:]):
        fields = []
        cols = []
        for n, k, lead_field, xy, lead, xs, ys in parts:
            if a >= n:
                fields.append(",,")
            elif a >= k:
                fields.append(f"{lead_field},{xy}")
                cols.append(lead[a:b])
            else:
                fields.append(f"{lead_field},{_COMPARE_XY}")
                cols += (lead[a:b], xs[a:b], ys[a:b])
        segments.append(map(",".join(fields).__mod__, zip(*cols)))
    return itertools.chain.from_iterable(segments)


def cmd_compare(args: argparse.Namespace) -> int:
    """The discrete orbit next to the RK4 flow, as CSV, with a summary.

    The map side is `iterate_orbit` where the rates are admissible for
    the reduced map (no larval mortality), else `iterate_general`; both
    take --steps, which must be at least 1.  A side that leaves its region
    raises IntegrationError (exit 4).  The flow and the full map allocate
    their rows before they run, so rows past memory fail at once, naming
    their flags, even where the full map would stop early.
    Rows stream to --out or stdout; a side that has frozen (see
    `_compare_rows`) has its text formatted once, not once per row.
    """
    import numpy as np

    from .trajectory import iterate_general, iterate_orbit

    p = Parameters(args.alpha, args.beta, args.mu, args.d0, args.d1)
    require_valid(p, Mode.GENERAL)
    s0 = State(args.x0, args.y0)
    cfg = _orbit_config(args)
    ode_cfg = OdeConfig(step=args.dt, t_end=args.t_end)
    rk4_too_large = f"--t-end / --dt: RK4 step count too large, got {args.t_end} / {args.dt}"
    if (ode_cfg.n_steps + 1) * 8 > np.iinfo(np.intp).max:
        # past numpy's largest array of the flow's samples, 8 bytes each
        raise ValueError(rk4_too_large)

    r0 = offspring_number(p)
    positive = positive_equilibrium(p) if p.d1 > 0.0 else None
    try:
        flow = integrate_flow(p, s0, ode_cfg)
    except MemoryError:  # a sample count numpy can size but not allocate
        raise ValueError(rk4_too_large) from None

    reduced = validate_parameters(p, Mode.REDUCED).valid
    eq_txt = "none" if positive is None else f"({fmt(positive.x)}, {fmt(positive.y)})"
    summary = [
        f"r0={fmt(r0)} trivial_stable={'true' if r0 <= 1.0 else 'false'} positive_equilibrium={eq_txt}"
    ]
    if reduced:
        orbit = iterate_orbit(p, s0, cfg)
        ns, xs, ys = orbit.steps, orbit.xs, orbit.ys
        summary.append(
            f"discrete: verdict={orbit.verdict.value} n={orbit.n_steps} "
            f"final=({fmt(xs[-1])}, {fmt(ys[-1])})"
        )
        summary.append(f"threshold_coherence={'true' if thresholds_agree(p) else 'false'}")
    else:
        try:
            ns, xs, ys = iterate_general(p, s0, cfg.max_iters)
        except (ValueError, MemoryError):  # rows past numpy's largest array, or past memory
            raise ValueError(f"--steps: full map step count too large, got {args.steps}") from None
        summary.append(
            f"discrete: full map, {int(ns[-1])} steps, final=({fmt(xs[-1])}, {fmt(ys[-1])})"
        )
    fx, fy = flow.final
    summary.append(f"continuous: t={flow.ts[-1]:.6g} final=({fmt(fx)}, {fmt(fy)})")

    rows = _compare_rows(((ns, xs, ys, "%d"), (flow.ts, flow.xs, flow.ys, "%.6f")))

    if args.out:
        atomic_write_lines(args.out, rows)
        for line in summary:
            print(line)
    else:
        sys.stdout.writelines(row + "\n" for row in rows)
        for line in summary:
            print(line, file=sys.stderr)
    return 0


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: budget too large for memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
