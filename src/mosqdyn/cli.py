"""Command line interface.

Subcommands:

    simulate   iterate the reduced map, print a verdict, dump the orbit
    classify   spectral report for the extinction state as JSON
    sweep      grid scan: classification vs simulated verdict agreement
    certify    run the certificate battery for one parameter set
    compare    discrete orbit next to the continuous flow

Exit codes: 0 success, 2 invalid parameters/config (argparse errors
included), 3 I/O failure, 4 a verification or agreement failure.

Options may come from a config file (--config PATH or --config=PATH,
lines of "key = value", # comments allowed, keys named like the long
options); explicit command line flags override config values.  Commands
that draw randomness take --seed, falling back to the MOSQDYN_SEED
environment variable, then to the built-in default; the seed in effect
is echoed.
File outputs are written atomically (temp file in the target directory,
then rename).  The checks themselves live in `battery`; this module
parses, prints, writes and maps outcomes to exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .battery import SWEEP_CSV_HEADER, expected_fate, run_certificates, run_trials, sweep, thresholds_agree
from .errors import IntegrationError, VerificationError
from .ioutil import atomic_write_json, atomic_write_lines, atomic_write_text, fmt
from .model import Mode, Parameters, State, validate_parameters
from .ode import OdeConfig, equilibrium_report, integrate_flow, offspring_number
from .spectral import classify_origin, stability_inequalities
from .trajectory import Orbit, OrbitConfig, iterate_general, iterate_orbit, orbit_to_csv

__all__ = ["main", "DEFAULT_SEED"]

DEFAULT_SEED = 12345


# ---------------------------------------------------------------- config


def _config_tokens(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    tokens: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key == "config":
            raise ValueError(f"{path}:{lineno}: config files cannot nest")
        if not value:
            raise ValueError(f"{path}:{lineno}: empty value for {key!r}")
        tokens.append("--" + key)
        tokens.extend(value.split())
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    hits = [i for i, tok in enumerate(argv) if tok == "--config" or tok.startswith("--config=")]
    if not hits:
        return argv
    if len(hits) > 1:
        raise ValueError("--config may be given at most once")
    idx = hits[0]
    _, inline, path = argv[idx].partition("=")
    tail = argv[idx + 1 :]
    if not inline and tail:
        path, tail = tail[0], tail[1:]
    if not path:
        raise ValueError("--config requires a path")
    if idx == 0:
        raise ValueError("--config must follow a subcommand")
    head = argv[:idx]
    # config tokens go right after the subcommand so that explicit flags,
    # parsed later, win
    return [head[0]] + _config_tokens(path) + head[1:] + tail


def _orbit_config(args: argparse.Namespace, **fields) -> OrbitConfig:
    return OrbitConfig(max_iters=args.steps, conv_tol=args.conv_tol, div_threshold=args.div_threshold, **fields)


def _resolve_seed(args: argparse.Namespace) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return seed
    env = os.environ.get("MOSQDYN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MOSQDYN_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


# ---------------------------------------------------------------- parser


def _add_rate_flags(sp: argparse.ArgumentParser, with_mortality: bool = True) -> None:
    sp.add_argument("--alpha", type=float, required=True, help="emergence rate, in (0, 1]")
    sp.add_argument("--beta", type=float, required=True, help="egg production rate, > 0")
    sp.add_argument("--mu", type=float, required=True, help="adult mortality, in (0, 1]")
    if with_mortality:
        sp.add_argument("--d0", type=float, default=0.0, help="density-independent larval mortality (default 0)")
        sp.add_argument("--d1", type=float, default=0.0, help="density-dependent larval mortality (default 0)")


def _add_start_flags(sp: argparse.ArgumentParser, required: bool, default: float = 1.0) -> None:
    if required:
        sp.add_argument("--x0", type=float, required=True, help="initial larval count")
        sp.add_argument("--y0", type=float, required=True, help="initial adult count")
    else:
        sp.add_argument("--x0", type=float, default=default, help=f"initial larval count (default {default})")
        sp.add_argument("--y0", type=float, default=default, help=f"initial adult count (default {default})")


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
    sp.add_argument("--conv-tol", type=float, default=1e-8, help="detection tolerance (default 1e-8)")
    sp.add_argument("--div-threshold", type=float, default=1e9, help="larval escape threshold (default 1e9)")
    sp.add_argument("--record-every", type=int, default=1, help="record every k-th step (default 1)")
    sp.add_argument("--confirm-window", type=int, default=100, help="recorded steps confirming survival (default 100)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv", help="orbit dump format (default csv)")
    sp.add_argument("--out", type=str, default=None, help="output path (default: orbit to stdout)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("classify", help="spectral report for the extinction state (JSON)")
    _add_rate_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-9, help="unit-circle tolerance (default 1e-9)")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("sweep", help="grid scan comparing classification with simulated fate")
    sp.add_argument("--alpha-range", type=float, nargs=3, required=True, metavar=("LO", "HI", "N"),
                    help="emergence rate grid: low, high, count")
    sp.add_argument("--beta-range", type=float, nargs=3, required=True, metavar=("LO", "HI", "N"),
                    help="egg production grid: low, high, count")
    sp.add_argument("--mu-range", type=float, nargs=3, required=True, metavar=("LO", "HI", "N"),
                    help="adult mortality grid: low, high, count")
    sp.add_argument("--d0", type=float, default=0.0, help="fixed density-independent larval mortality")
    sp.add_argument("--d1", type=float, default=0.0, help="fixed density-dependent larval mortality")
    _add_start_flags(sp, required=False)
    sp.add_argument("--steps", type=int, default=1_000_000, help="iteration budget per cell (default 1000000)")
    sp.add_argument("--conv-tol", type=float, default=1e-8)
    sp.add_argument("--div-threshold", type=float, default=1e9)
    sp.add_argument("--record-every", type=int, default=16, help="recording stride per cell (default 16)")
    sp.add_argument("--tol", type=float, default=1e-9, help="unit-circle tolerance for classification")
    sp.add_argument("--out", type=str, required=True, help="CSV output path")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("certify", help="run the certificate battery for one parameter set")
    _add_rate_flags(sp)
    _add_start_flags(sp, required=False)
    sp.add_argument("--steps", type=int, default=1_000_000, help="iteration budget for orbit certificates")
    sp.add_argument("--conv-tol", type=float, default=1e-8)
    sp.add_argument("--div-threshold", type=float, default=1e9)
    sp.add_argument("--p-max", type=int, default=8, help="highest period scanned (default 8)")
    sp.add_argument("--grid", type=int, default=10_000, help="interval scan grid size (default 10000)")
    sp.add_argument("--trials", type=int, default=0, help="additional randomized parameter trials (default 0)")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed for --trials")
    sp.add_argument("--out", type=str, default=None, help="optional JSON certificate dump")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("compare", help="discrete orbit next to the continuous flow")
    _add_rate_flags(sp)
    _add_start_flags(sp, required=True)
    sp.add_argument("--steps", type=int, default=500, help="discrete steps (default 500)")
    sp.add_argument("--record-every", type=int, default=1)
    sp.add_argument("--conv-tol", type=float, default=1e-8)
    sp.add_argument("--div-threshold", type=float, default=1e9)
    sp.add_argument("--t-end", type=float, default=500.0, help="integration horizon (default 500)")
    sp.add_argument("--dt", type=float, default=0.01, help="integrator step (default 0.01)")
    sp.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_compare)

    return parser


# ------------------------------------------------------------- simulate


def _orbit_json(orbit: Orbit) -> dict:
    return {
        "params": asdict(orbit.params),
        "config": asdict(orbit.config),
        "verdict": orbit.verdict.value,
        "n_steps": orbit.n_steps,
        "y_limit_estimate": orbit.y_limit_estimate,
        "monitors": asdict(orbit.monitors),
        "orbit": [
            [int(n), float(x), float(y)]
            for n, x, y in zip(orbit.steps, orbit.xs, orbit.ys)
        ],
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    p = Parameters(args.alpha, args.beta, args.mu, args.d0, args.d1)
    report = validate_parameters(p, Mode.REDUCED)
    if not report.valid:
        print(report.message(), file=sys.stderr)
        return 2
    cfg = _orbit_config(args, record_every=args.record_every, confirm_window=args.confirm_window)
    orbit = iterate_orbit(p, State(args.x0, args.y0), cfg)
    verdict_line = (
        f"verdict={orbit.verdict.value} n_steps={orbit.n_steps} "
        f"y_limit_estimate={fmt(orbit.y_limit_estimate)}"
    )
    if args.format == "csv":
        body = orbit_to_csv(orbit)
    else:
        body = json.dumps(_orbit_json(orbit), sort_keys=True, indent=2) + "\n"
    if args.out:
        atomic_write_text(args.out, body)
        print(verdict_line)
    else:
        sys.stdout.write(body)
        print(verdict_line, file=sys.stderr)
    return 0


# ------------------------------------------------------------- classify


def cmd_classify(args: argparse.Namespace) -> int:
    p = Parameters(args.alpha, args.beta, args.mu, args.d0, args.d1)
    report = classify_origin(p, tol=args.tol)
    ineq = stability_inequalities(p)
    comparison, fate = expected_fate(p)
    out = {
        "alpha": p.alpha,
        "beta": p.beta,
        "mu": p.mu,
        "jacobian": [list(row) for row in report.jacobian],
        "eigenvalues": [report.lambda1, report.lambda2],
        "classification": report.classification.value,
        "stability_inequalities": list(ineq),
        "r0": offspring_number(p),
        "rate_comparison": comparison,
        "expected_fate": fate,
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------- sweep


def _axis(rng3: list[float], name: str) -> np.ndarray:
    lo, hi, n_f = rng3
    n = int(round(n_f))
    if n < 1:
        raise ValueError(f"{name}: grid count must be at least 1, got {n_f}")
    if hi < lo:
        raise ValueError(f"{name}: inverted range [{lo}, {hi}]")
    if n == 1:
        return np.asarray([lo], dtype=np.float64)
    return np.linspace(lo, hi, n)


def cmd_sweep(args: argparse.Namespace) -> int:
    alphas = _axis(args.alpha_range, "--alpha-range")
    betas = _axis(args.beta_range, "--beta-range")
    mus = _axis(args.mu_range, "--mu-range")
    cfg = _orbit_config(args, record_every=args.record_every)
    cells = sweep(alphas, betas, mus, State(args.x0, args.y0), cfg, args.d0, args.d1, args.tol)
    atomic_write_lines(args.out, [SWEEP_CSV_HEADER] + [c.csv_row() for c in cells])
    n_in = sum(c.in_condition for c in cells)
    n_agree = sum(c.agree is True for c in cells)
    print(f"cells={len(cells)} in_condition={n_in} agree={n_agree} disagree={n_in - n_agree}")
    return 4 if n_agree < n_in else 0


# -------------------------------------------------------------- certify


def cmd_certify(args: argparse.Namespace) -> int:
    p = Parameters(args.alpha, args.beta, args.mu, args.d0, args.d1)
    report = validate_parameters(p, Mode.REDUCED)
    if not report.valid:
        print(report.message(), file=sys.stderr)
        return 2
    cfg = _orbit_config(args)
    results = run_certificates(p, State(args.x0, args.y0), cfg, args.p_max, args.grid)
    seed = None
    if args.trials > 0:
        seed = _resolve_seed(args)
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
        atomic_write_json(args.out, payload)
    return 4 if n_fail else 0


# -------------------------------------------------------------- compare


def cmd_compare(args: argparse.Namespace) -> int:
    p = Parameters(args.alpha, args.beta, args.mu, args.d0, args.d1)
    general = validate_parameters(p, Mode.GENERAL)
    if not general.valid:
        print(general.message(), file=sys.stderr)
        return 2
    s0 = State(args.x0, args.y0)

    eq = equilibrium_report(p)
    flow = integrate_flow(p, s0, OdeConfig(step=args.dt, t_end=args.t_end))

    reduced = validate_parameters(p, Mode.REDUCED).valid
    summary: list[str] = []
    if eq.positive is not None:
        eq_txt = f"({fmt(eq.positive.x)}, {fmt(eq.positive.y)})"
    else:
        eq_txt = "none"
    summary.append(
        f"r0={fmt(eq.r0)} trivial_stable={'true' if eq.trivial_stable else 'false'} "
        f"positive_equilibrium={eq_txt}"
    )
    if reduced:
        orbit = iterate_orbit(p, s0, _orbit_config(args, record_every=args.record_every))
        ns, xs, ys = orbit.steps, orbit.xs, orbit.ys
        summary.append(
            f"discrete: verdict={orbit.verdict.value} n={orbit.n_steps} "
            f"final=({fmt(xs[-1])}, {fmt(ys[-1])})"
        )
        summary.append(f"threshold_coherence={'true' if thresholds_agree(p) else 'false'}")
    else:
        ns, xs, ys = iterate_general(p, s0, args.steps, record_every=args.record_every)
        summary.append(
            f"discrete: full map, {int(ns[-1])} steps, final=({fmt(xs[-1])}, {fmt(ys[-1])})"
        )
    fx, fy = flow.final
    summary.append(f"continuous: t={flow.ts[-1]:.6g} final=({fmt(fx)}, {fmt(fy)})")

    rows = ["n,x_map,y_map,t,x_flow,y_flow"]
    n_rows = max(len(ns), len(flow.ts))
    for i in range(n_rows):
        if i < len(ns):
            left = f"{int(ns[i])},{fmt(xs[i])},{fmt(ys[i])}"
        else:
            left = ",,"
        if i < len(flow.ts):
            right = f"{float(flow.ts[i]):.6f},{fmt(flow.xs[i])},{fmt(flow.ys[i])}"
        else:
            right = ",,"
        rows.append(left + "," + right)

    if args.out:
        atomic_write_lines(args.out, rows)
        for line in summary:
            print(line)
    else:
        for row in rows:
            sys.stdout.write(row + "\n")
        for line in summary:
            print(line, file=sys.stderr)
    return 0


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _expand_config(argv)
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
