"""Output checks: each command's exit code and outputs, re-derived by a
route other than the one the program took.

`check(cmd, outcome)` returns a list of problems; an empty list means the
command passed.  Checks never look at inputs to decide whether to run:
every generated command is checked.
"""

from __future__ import annotations

import json
import math

Y_LIMIT_TOL = 1e-6  # C2's accuracy for the adult limit


def _fields(line: str) -> dict[str, str]:
    out = {}
    for tok in line.split():
        key, sep, value = tok.partition("=")
        if sep:
            out[key] = value
    return out


def _read_rows(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def _fate(beta: float, mu: float) -> str:
    return "survival" if beta > mu else "extinction"


def check_sweep(cmd, outcome) -> list[str]:
    problems = []
    summary = _fields(outcome.stdout.strip().splitlines()[-1]) if outcome.stdout.strip() else {}
    if summary.get("disagree") != "0":
        problems.append(f"summary reports disagree={summary.get('disagree')}")
    rows = _read_rows(cmd.outputs[0])
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    grid = cmd.params["grid"]
    if len(body) != len(grid) ** 2:
        problems.append(f"{len(body)} cells, expected {len(grid) ** 2}")
    grid_set = set(grid)
    n_in = 0
    for row in body:
        beta = float(row[col["beta"]])
        mu = float(row[col["mu"]])
        if beta not in grid_set or mu not in grid_set:
            problems.append(f"cell ({beta}, {mu}) is off the grid")
            continue
        in_cond = row[col["in_condition"]] == "true"
        if in_cond != (beta != mu):
            problems.append(f"cell ({beta}, {mu}): in_condition={in_cond}")
            continue
        if not in_cond:
            continue
        n_in += 1
        if row[col["verdict"]] != _fate(beta, mu):
            problems.append(f"cell ({beta}, {mu}): verdict {row[col['verdict']]}")
        if row[col["agree"]] != "true":
            problems.append(f"cell ({beta}, {mu}): agree={row[col['agree']]}")
    if summary.get("in_condition") != str(n_in):
        problems.append(f"summary in_condition={summary.get('in_condition')}, CSV has {n_in}")
    return problems


def check_certify(cmd, outcome) -> list[str]:
    problems = []
    lines = outcome.stdout.strip().splitlines()
    certs = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    if not certs:
        problems.append("no certificate lines")
    problems += [ln for ln in certs if not ln.startswith("PASS ")]
    summary = _fields(lines[-1]) if lines else {}
    if summary.get("certificates") != str(len(certs)) or summary.get("failed") != "0":
        problems.append(f"summary line {lines[-1] if lines else ''!r}")
    dichotomy = [ln for ln in certs if ln.split()[1] == "orbit-dichotomy:"]
    fate = _fate(cmd.params["beta"], cmd.params["mu"])
    if len(dichotomy) != 1 or _fields(dichotomy[0]).get("verdict") != fate:
        problems.append(f"orbit-dichotomy does not report verdict={fate}")
    return problems


def _orbit_csv(path: str) -> tuple[list[int], list[float], list[float]]:
    rows = _read_rows(path)
    if rows[0] != ["n", "x", "y"]:
        raise ValueError(f"{path}: header {rows[0]}")
    body = rows[1:]
    return [int(r[0]) for r in body], [float(r[1]) for r in body], [float(r[2]) for r in body]


def _check_survival_orbit(p: dict, verdict: str, y_limit: float) -> list[str]:
    problems = []
    if verdict != _fate(p["beta"], p["mu"]):
        problems.append(f"verdict {verdict}")
    if verdict == "survival" and not abs(y_limit - p["alpha"] / p["mu"]) <= Y_LIMIT_TOL:
        problems.append(f"y_limit_estimate {y_limit!r} vs alpha/mu {p['alpha'] / p['mu']!r}")
    return problems


def check_simulate_csv(cmd, outcome) -> list[str]:
    p = cmd.params
    fields = _fields(outcome.stdout)
    n_steps = int(fields["n_steps"])
    problems = _check_survival_orbit(p, fields["verdict"], float(fields["y_limit_estimate"]))
    ns, xs, ys = _orbit_csv(cmd.outputs[0])
    if ns != list(range(n_steps + 1)):
        problems.append(f"{len(ns)} rows for n_steps={n_steps}")
    if xs[:1] != [p["x0"]] or ys[:1] != [p["y0"]]:
        problems.append("first row is not the start state")
    return problems


def check_simulate_json(cmd, outcome) -> list[str]:
    p = cmd.params
    fields = _fields(outcome.stdout)
    with open(cmd.outputs[0], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    n_steps = doc["n_steps"]
    problems = _check_survival_orbit(p, doc["verdict"], doc["y_limit_estimate"])
    if str(n_steps) != fields.get("n_steps"):
        problems.append(f"JSON n_steps={n_steps}, verdict line n_steps={fields.get('n_steps')}")
    orbit = doc["orbit"]
    if len(orbit) != n_steps + 1:
        problems.append(f"{len(orbit)} JSON rows for n_steps={n_steps}")
    ns, xs, ys = _orbit_csv(p["csv"])
    if [r[0] for r in orbit] != ns or [r[1] for r in orbit] != xs or [r[2] for r in orbit] != ys:
        problems.append("JSON orbit differs from the CSV orbit of the same configuration")
    return problems


def check_compare(cmd, outcome) -> list[str]:
    p = cmd.params
    problems = []
    rows = _read_rows(cmd.outputs[0])
    if rows[0] != ["n", "x_map", "y_map", "t", "x_flow", "y_flow"]:
        problems.append(f"header {rows[0]}")
    body = rows[1:]
    rk4_steps = math.floor(p["t_end"] / p["dt"] + 1e-9)
    flow_rows = sum(1 for r in body if r[3])
    if flow_rows != rk4_steps + 1:
        problems.append(f"{flow_rows} flow rows for {rk4_steps} RK4 steps")
    discrete = [ln for ln in outcome.stdout.splitlines() if ln.startswith("discrete:")]
    if len(discrete) != 1:
        return problems + ["no discrete summary line"]
    if p["reduced"]:
        n_steps = int(_fields(discrete[0])["n"])
    else:
        n_steps = int(discrete[0].split("full map, ")[1].split()[0])
    map_rows = [int(r[0]) for r in body if r[0]]
    if map_rows != list(range(n_steps + 1)):
        problems.append(f"{len(map_rows)} map rows for n={n_steps}")
    if len(body) != max(n_steps + 1, rk4_steps + 1):
        problems.append(f"{len(body)} rows")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "certify": check_certify,
    "simulate-csv": check_simulate_csv,
    "simulate-json": check_simulate_json,
    "compare": check_compare,
}


def check(cmd, outcome) -> list[str]:
    """Problems with one command's result; empty when it passed."""
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}: {outcome.stderr.strip()[-300:]}"]
    try:
        return CHECKS[cmd.kind](cmd, outcome)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
