"""Command line behavior: output formats, exit codes, config handling.

Everything drives `main(argv)` in-process; one smoke test goes through
the installed entry point to cover module execution.
"""

import dataclasses
import json
import os
import stat
import subprocess
import sys

import pytest

from mosqdyn import battery
from mosqdyn.cli import DEFAULT_SEED, _resolve_seed, build_parser, main

REF1 = ["--alpha", "0.6", "--beta", "0.5", "--mu", "0.48"]
EXT = ["--alpha", "0.5", "--beta", "0.3", "--mu", "0.6"]


# --------------------------------------------------------------- simulate


def test_simulate_csv_to_stdout(capsys):
    rc = main(["simulate", *EXT, "--x0", "1", "--y0", "1"])
    out, err = capsys.readouterr()
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,x,y"
    assert lines[1].startswith("0,")
    assert err.startswith("verdict=extinction n_steps=")
    assert "y_limit_estimate=" in err


def test_simulate_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "orbit.json"
    rc = main(["simulate", *REF1, "--x0", "2", "--y0", "0.1",
               "--record-every", "64", "--format", "json", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out.startswith("verdict=survival")
    assert err == ""
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "survival"
    assert doc["params"]["beta"] == 0.5
    assert doc["config"]["record_every"] == 64
    assert abs(doc["y_limit_estimate"] - 1.25) < 1e-6
    assert doc["monitors"]["pattern_violations"] == 0
    assert doc["orbit"][0] == [0, 2.0, 0.1]
    assert doc["orbit"][-1][0] == doc["n_steps"]


def test_simulate_rejects_invalid_rates(capsys):
    rc = main(["simulate", "--alpha", "1.5", "--beta", "0.5", "--mu", "0.48",
               "--x0", "1", "--y0", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "0 < alpha <= 1" in err


def test_simulate_rejects_equal_rates(capsys):
    rc = main(["simulate", "--alpha", "0.9", "--beta", "0.9", "--mu", "0.9",
               "--x0", "1", "--y0", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "beta != mu" in err


def test_simulate_growth_orbit_through_the_extinction_box_survives(capsys):
    rc = main(["simulate", "--alpha", "0.3", "--beta", "0.25", "--mu", "0.1", "--x0", "1.5e-8", "--y0", "0"])
    _, err = capsys.readouterr()
    assert rc == 0
    assert err.startswith("verdict=survival ")


def test_simulate_contracting_orbit_beyond_the_escape_threshold_does_not_survive(capsys):
    # escape decides only beta > mu; extinction from 2e9 takes about 8e9 steps
    rc = main(["simulate", *EXT, "--x0", "2e9", "--y0", "1", "--steps", "1000"])
    _, err = capsys.readouterr()
    assert rc == 0
    assert err.startswith("verdict=exhausted n_steps=1000 ")


def test_simulate_stops_on_a_state_frozen_by_rounding(capsys):
    # from step 1 the state is (0, 5e-324): beta*y rounds to 0 and
    # (1 - mu)*y rounds back to y, so step 2 returns its input bit for bit
    rc = main(["simulate", *REF1, "--x0", "5e-324", "--y0", "0"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == "verdict=exhausted n_steps=2 y_limit_estimate=4.9406564584124654e-324\n"
    assert out.splitlines()[1:] == ["0,4.9406564584124654e-324,0.0000000000000000e+00",
                                    "1,0.0000000000000000e+00,4.9406564584124654e-324",
                                    "2,0.0000000000000000e+00,4.9406564584124654e-324"]


def test_simulate_stops_on_a_float_two_cycle(capsys):
    # beta*y rounds up to 5e-324 and (1 - mu)*y rounds to 0, so the
    # state alternates between (5e-324, 0) and (0, 5e-324): step 2
    # returns the input of step 1 bit for bit
    rc = main(["simulate", "--alpha", "0.9", "--beta", "0.9", "--mu", "0.88",
               "--x0", "5e-324", "--y0", "0"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == "verdict=exhausted n_steps=2 y_limit_estimate=0.0000000000000000e+00\n"
    assert out.splitlines()[1:] == ["0,4.9406564584124654e-324,0.0000000000000000e+00",
                                    "1,0.0000000000000000e+00,4.9406564584124654e-324",
                                    "2,4.9406564584124654e-324,0.0000000000000000e+00"]


def test_simulate_exhausted_growth_orbit_reports_the_adult_count(capsys):
    # x grows past x0 but stays near 1e-300, where the estimator
    # y + (alpha/mu)/(1+x) is alpha/mu to rounding
    rc = main(["simulate", "--alpha", "0.6", "--beta", "0.3001", "--mu", "0.3",
               "--x0", "1e-300", "--y0", "0", "--steps", "20000"])
    out, err = capsys.readouterr()
    assert rc == 0
    first, last = out.splitlines()[1], out.splitlines()[-1]
    assert float(last.split(",")[1]) > float(first.split(",")[1])
    y_last = last.split(",")[2]
    assert err == f"verdict=exhausted n_steps=20000 y_limit_estimate={y_last}\n"
    assert float(y_last) < 1e-250


def test_simulate_rejects_an_infinite_escape_threshold(capsys):
    rc = main(["simulate", *REF1, "--x0", "1", "--y0", "1", "--div-threshold", "inf"])
    assert rc == 2
    assert capsys.readouterr().err == "error: div_threshold must be finite and exceed 1\n"


def test_simulate_stops_at_an_overflowed_state(capsys):
    # beta*y + x overflows on the first step: the run ends there, with no
    # rows computed from inf
    rc = main(["simulate", "--alpha", "0.5", "--beta", "0.9", "--mu", "1.0",
               "--x0", "1.7e308", "--y0", "1.7e308", "--steps", "5"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out.splitlines()[2:] == ["1,inf,5.0000000000000000e-01"]
    assert err == "verdict=exhausted n_steps=1 y_limit_estimate=5.0000000000000000e-01\n"


def test_simulate_unwritable_output_path(tmp_path, capsys):
    rc = main(["simulate", *EXT, "--x0", "1", "--y0", "1",
               "--out", str(tmp_path / "missing" / "orbit.csv")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "i/o error" in err


def test_simulate_budget_far_beyond_memory_matches_default(tmp_path, capsys):
    default_path = tmp_path / "default.csv"
    huge_path = tmp_path / "huge.csv"
    start = [*REF1, "--x0", "2", "--y0", "0.1"]
    assert main(["simulate", *start, "--out", str(default_path)]) == 0
    default_out = capsys.readouterr().out
    rc = main(["simulate", *start, "--steps", "1000000000000", "--out", str(huge_path)])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out == default_out
    assert huge_path.read_bytes() == default_path.read_bytes()


def test_output_files_respect_umask(tmp_path, capsys):
    orbit_path = tmp_path / "orbit.csv"
    compare_path = tmp_path / "cmp.csv"
    old = os.umask(0o027)
    try:
        assert main(["simulate", *EXT, "--x0", "1", "--y0", "1", "--out", str(orbit_path)]) == 0
        assert main(["compare", *EXT, "--x0", "1", "--y0", "1", "--steps", "5",
                     "--t-end", "1", "--out", str(compare_path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(orbit_path.stat().st_mode) == 0o640
    assert stat.S_IMODE(compare_path.stat().st_mode) == 0o640


# --------------------------------------------------------------- classify


def test_classify_json_fields(capsys):
    rc = main(["classify", *REF1])
    out, _ = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out)
    assert doc["classification"] == "saddle"
    assert doc["rate_comparison"] == "beta>mu"
    assert doc["expected_fate"] == "survival"
    assert doc["jacobian"] == [[0.4, 0.5], [0.6, 0.52]]
    assert doc["eigenvalues"][0] == pytest.approx(1.0109990925582364, abs=1e-12)
    assert doc["eigenvalues"][1] == pytest.approx(-0.09099909255823646, abs=1e-12)
    assert doc["stability_inequalities"] == [True, False]
    assert doc["r0"] == pytest.approx(0.5 / 0.48, abs=1e-14)


def test_classify_equal_rates(capsys):
    rc = main(["classify", "--alpha", "0.9", "--beta", "0.9", "--mu", "0.9"])
    out, _ = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out)
    assert doc["classification"] == "nonhyperbolic"
    assert doc["rate_comparison"] == "beta=mu"
    assert doc["expected_fate"] == "none"


def test_classify_rejects_larval_mortality(capsys):
    # the reduced commands have no larval mortality flags; argparse
    # rejects them with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", *REF1, "--d0", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d0 0.1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", *REF1, "--x0", "1", "--y0", "1", "--d1", "0"],
    ["simulate", *REF1, "--x0", "1", "--y0", "1", "--confirm-window", "100"],
    ["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.5", "0.5", "1",
     "--mu-range", "0.48", "0.48", "1", "--d0", "0.1", "--out", "{}"],
    ["certify", *REF1, "--d0", "0"],
], ids=["simulate-d1", "simulate-confirm-window", "sweep-d0", "certify-d0"])
def test_reduced_commands_take_no_mortality_or_window_flags(argv, tmp_path, capsys):
    # the survival window is fixed, and larval mortality belongs to the
    # full map, which only `compare` runs
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as exc:
        main([str(out) if tok == "{}" else tok for tok in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ sweep


def test_sweep_grid_with_diagonal(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.3", "0.7", "3",
               "--mu-range", "0.3", "0.7", "3",
               "--record-every", "16", "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.strip() == "cells=9 in_condition=6 agree=6 disagree=0"
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 10
    assert lines[0] == "alpha,beta,mu,d0,d1,in_condition,classification,verdict,n_steps,y_limit_estimate,agree"
    diagonal = [ln for ln in lines[1:] if ",false,nonhyperbolic,,,," in ln]
    assert len(diagonal) == 3
    survivals = [ln for ln in lines[1:] if ",survival," in ln]
    extinctions = [ln for ln in lines[1:] if ",extinction," in ln]
    assert len(survivals) == 3 and len(extinctions) == 3


def test_sweep_detects_disagreement(tmp_path, capsys):
    # from (5, 0) the orbit first enters the both-up region at step 3, so
    # a 2-step budget cannot certify survival: the cell reads "exhausted"
    # against a saddle classification and the scan must say so
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.8", "0.8", "1",
               "--mu-range", "0.2", "0.2", "1",
               "--x0", "5", "--y0", "0",
               "--steps", "2", "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 4
    assert "disagree=1" in out
    assert ",exhausted," in out_path.read_text()


def test_sweep_certifies_a_tie_band_orbit(tmp_path, capsys):
    # the increments of this orbit stay inside the 1e-14 tie band for
    # over 1e6 steps, so the estimator window never fills; the both-up
    # region test certifies survival at step 8
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.300001", "0.300001", "1",
               "--mu-range", "0.3", "0.3", "1",
               "--x0", "1e-8", "--y0", "0", "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.strip() == "cells=1 in_condition=1 agree=1 disagree=0"
    row = out_path.read_text().strip().split("\n")[1].split(",")
    assert row[6:9] == ["saddle", "survival", "8"] and row[10] == "true"


def test_sweep_origin_start_agrees_in_either_regime(tmp_path, capsys):
    # the start (0, 0) is a fixed point, so every cell ends in extinction
    # at step 0; the classification is still held to the rates
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.3", "0.7", "3",
               "--mu-range", "0.3", "0.7", "3",
               "--x0", "0", "--y0", "0", "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.strip() == "cells=9 in_condition=6 agree=6 disagree=0"
    rows = [ln.split(",") for ln in out_path.read_text().strip().split("\n")[1:]]
    growth = [r for r in rows if r[5] == "true" and float(r[1]) > float(r[2])]
    assert len(growth) == 3
    assert all(r[6] in ("saddle", "repelling") and r[7:9] == ["extinction", "0"] for r in growth)


@pytest.mark.parametrize("start", ["1e6", "1e308"])
def test_sweep_counts_a_large_start_cell_as_it_writes_it(start, tmp_path, capsys):
    # beyond a total of about 6e5 the residual bound is a few ulps of the
    # total; the cell's agreement must be counted as the CSV states it
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.7", "0.7", "1",
               "--mu-range", "0.3", "0.3", "1", "--x0", start, "--y0", start, "--out", str(out_path)])
    assert capsys.readouterr().out == "cells=1 in_condition=1 agree=1 disagree=0\n"
    assert rc == 0
    row = out_path.read_text().splitlines()[1]
    assert ",survival," in row and row.endswith(",true")


def test_sweep_rejects_inverted_range(tmp_path, capsys):
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.7", "0.3", "3",
               "--mu-range", "0.3", "0.7", "3",
               "--out", str(tmp_path / "s.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "inverted range" in err


@pytest.mark.parametrize("tol", ["0", "nan"])
def test_sweep_rejects_invalid_tolerance_before_any_cell(tmp_path, capsys, tol):
    assert main(["classify", *REF1, "--tol", tol]) == 2
    _, classify_err = capsys.readouterr()
    out_path = tmp_path / "s.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.3", "0.7", "3",
               "--mu-range", "0.3", "0.7", "3",
               "--tol", tol, "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == classify_err and err.startswith("error: tol must be positive")
    assert not out_path.exists()


@pytest.mark.parametrize("axis", [("0.6", "0.6", "inf"), ("0.6", "0.6", "nan"),
                                  ("0.6", "inf", "2"), ("nan", "0.6", "1")])
def test_sweep_rejects_non_finite_axis(tmp_path, capsys, axis):
    out_path = tmp_path / "s.csv"
    rc = main(["sweep", "--alpha-range", *axis,
               "--beta-range", "0.3", "0.7", "3",
               "--mu-range", "0.3", "0.7", "3",
               "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --alpha-range: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_sweep_requires_out_flag():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--alpha-range", "0.6", "0.6", "1",
              "--beta-range", "0.3", "0.7", "3",
              "--mu-range", "0.3", "0.7", "3"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- certify


def test_certify_battery_passes(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    rc = main(["certify", *REF1, "--x0", "2", "--y0", "0.1",
               "--grid", "2001", "--p-max", "4", "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "PASS spectral-agreement" in out
    assert "PASS orbit-dichotomy" in out
    assert "PASS growth-lower-bound" in out
    assert "certificates=9 failed=0" in out
    doc = json.loads(out_path.read_text())
    assert doc["seed"] is None
    assert len(doc["certificates"]) == 9
    assert all(c["pass"] for c in doc["certificates"])


def test_certify_extinction_side_uses_totals_certificate(capsys):
    rc = main(["certify", *EXT, "--grid", "2001", "--p-max", "4"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "PASS decreasing-totals" in out
    assert "growth-lower-bound" not in out


def test_certify_fails_on_starved_budget(capsys):
    rc = main(["certify", *REF1, "--x0", "2", "--y0", "0.1",
               "--steps", "100", "--grid", "2001", "--p-max", "4"])
    out, _ = capsys.readouterr()
    assert rc == 4
    assert "FAIL orbit-dichotomy" in out
    assert "verdict=exhausted" in out


def test_certify_sum_bound_scales_with_state_size(capsys):
    # one ulp of 1e8 is 1.5e-8, above the 1e-9 floor of the bound
    rc = main(["certify", *REF1, "--x0", "1e8", "--y0", "1", "--grid", "2001", "--p-max", "4"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "PASS orbit-dichotomy" in out


@pytest.mark.parametrize("argv", [
    # falls into the extinction box after two steps
    ["--alpha", "0.3", "--beta", "0.25", "--mu", "0.1", "--x0", "1.5e-8", "--y0", "0"],
    # starts on the x-axis, so the growth bound anchors after step 0
    ["--alpha", "0.9", "--beta", "0.9", "--mu", "0.88", "--x0", "1e-300", "--y0", "0"],
    # escapes after two (x up, y down) steps
    [*REF1, "--x0", "999999940", "--y0", "100"],
    # escaped at step 0, on the x-axis: no later step to bound
    [*REF1, "--x0", "2e9", "--y0", "0"],
], ids=["through-the-box", "on-the-x-axis", "escaping", "escaped-at-start"])
def test_certify_growth_orbits_from_edge_starts(capsys, argv):
    rc = main(["certify", *argv, "--grid", "2001", "--p-max", "4"])
    out, _ = capsys.readouterr()
    assert rc == 0, out
    assert "PASS orbit-dichotomy: verdict=survival" in out
    assert "PASS growth-lower-bound" in out


def test_certify_origin_start_is_extinction_for_growth_rates(capsys):
    # (0, 0) is a fixed point whatever the rates
    rc = main(["certify", *REF1, "--x0", "0", "--y0", "0", "--grid", "2001", "--p-max", "4"])
    out, _ = capsys.readouterr()
    assert rc == 0, out
    assert "PASS orbit-dichotomy: verdict=extinction n=0 " in out


def test_certify_trial_fails_on_a_broken_sum_bound(monkeypatch, capsys):
    # trial orbits are held to the orbit-dichotomy acceptance rule, the
    # total-increment residual bound included
    real = battery.iterate_orbit

    def broken(p, s0, config=None, **flags):
        orbit = real(p, s0, config, **flags)
        return dataclasses.replace(orbit, monitors=dataclasses.replace(orbit.monitors, sum_identity_max_err=1.0))

    monkeypatch.setattr(battery, "iterate_orbit", broken)
    rc = main(["certify", *REF1, "--x0", "2", "--y0", "0.1", "--grid", "2001", "--p-max", "4",
               "--trials", "2", "--seed", "7"])
    out, _ = capsys.readouterr()
    assert rc == 4
    assert "FAIL orbit-dichotomy:" in out
    assert "FAIL trial-1:" in out and "FAIL trial-2:" in out


def test_certify_does_not_hide_an_overflowed_residual(capsys):
    rc = main(["certify", "--alpha", "0.5", "--beta", "0.9", "--mu", "1.0",
               "--x0", "1.7e308", "--y0", "1.7e308", "--steps", "5"])
    out, _ = capsys.readouterr()
    assert rc == 4
    assert "FAIL orbit-dichotomy: verdict=exhausted n=1 y_bound=0 patterns=0 sum_err=nan" in out.splitlines()


def test_certify_dumps_a_large_start_as_json(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    rc = main(["certify", "--alpha", "0.6", "--beta", "0.7", "--mu", "0.3", "--x0", "1e6", "--y0", "1e6",
               "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert all(c["pass"] is True for c in doc["certificates"])


def test_certify_rejects_negative_trials(capsys):
    rc = main(["certify", *REF1, "--grid", "2001", "--p-max", "4", "--trials", "-3", "--seed", "7"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --trials") and err.count("\n") == 1


def test_certify_trials_echo_default_seed(capsys):
    rc = main(["certify", *REF1, "--x0", "2", "--y0", "0.1",
               "--grid", "2001", "--p-max", "4", "--trials", "3"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert f"seed={DEFAULT_SEED}" in out
    assert "certificates=12 failed=0" in out
    assert "PASS trial-3:" in out


def test_certify_rejects_malformed_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("MOSQDYN_SEED", "not-a-number")
    rc = main(["certify", *REF1, "--grid", "2001", "--p-max", "4", "--trials", "1"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "MOSQDYN_SEED" in err


# ---------------------------------------------------------- seed resolution


def _certify_args(**over):
    args = build_parser().parse_args(
        ["certify", "--alpha", "0.6", "--beta", "0.5", "--mu", "0.48"])
    for key, val in over.items():
        setattr(args, key, val)
    return args


def test_seed_default(monkeypatch):
    monkeypatch.delenv("MOSQDYN_SEED", raising=False)
    assert _resolve_seed(_certify_args()) == DEFAULT_SEED


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("MOSQDYN_SEED", "99")
    assert _resolve_seed(_certify_args()) == 99


def test_seed_flag_beats_env(monkeypatch):
    monkeypatch.setenv("MOSQDYN_SEED", "99")
    assert _resolve_seed(_certify_args(seed=7)) == 7


# ---------------------------------------------------------------- compare


def test_compare_reduced_to_stdout(capsys):
    rc = main(["compare", *EXT, "--x0", "1", "--y0", "1",
               "--steps", "200", "--t-end", "5", "--dt", "0.1"])
    out, err = capsys.readouterr()
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,x_map,y_map,t,x_flow,y_flow"
    # discrete verdict lands inside the step budget, flow grid has 51 rows
    assert len(lines) > 52
    assert "r0=" in err
    assert "discrete: verdict=extinction" in err
    assert "threshold_coherence=true" in err
    assert "continuous: t=5" in err


def test_compare_full_map_to_file(tmp_path, capsys):
    out_path = tmp_path / "cmp.csv"
    rc = main(["compare", "--alpha", "0.6", "--beta", "0.8", "--mu", "0.5",
               "--d0", "0.1", "--d1", "0.05", "--x0", "1", "--y0", "1",
               "--steps", "400", "--t-end", "200", "--dt", "0.05",
               "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "discrete: full map, 400 steps" in out
    assert "positive_equilibrium=(1.2294688" in out
    assert "threshold_coherence" not in out
    first = out_path.read_text().split("\n", 1)[0]
    assert first == "n,x_map,y_map,t,x_flow,y_flow"


def test_compare_shorter_side_padded(capsys):
    rc = main(["compare", *EXT, "--x0", "1", "--y0", "1",
               "--steps", "5", "--t-end", "2", "--dt", "0.1"])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 22  # header + 21 flow rows
    assert lines[-1].startswith(",,,")  # discrete side exhausted after 6 rows


def test_compare_horizon_beyond_memory_exits_2(capsys):
    # 1e14 RK4 steps need 800 TB of samples, beyond any address space
    rc = main(["compare", *EXT, "--x0", "1", "--y0", "1", "--steps", "10", "--t-end", "1e12"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_compare_non_finite_horizon_exits_2(capsys, t_end):
    rc = main(["compare", *EXT, "--x0", "1", "--y0", "1", "--steps", "10", "--t-end", t_end])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == f"error: t_end must be finite, got {float(t_end)}\n"


# ------------------------------------------------------------ config files


def test_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# extinction-side run\n"
        "alpha = 0.5\n"
        "beta = 0.3\n"
        "mu = 0.6\n"
        "x0 = 1.0\n"
        "y0 = 0.1\n"
        "record_every = 4\n"
        "\n"
    )
    rc = main(["simulate", "--config", str(cfg), "--y0", "0.2"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err.startswith("verdict=extinction")
    first_row = out.strip().split("\n")[1]
    n, x, y = first_row.split(",")
    assert float(y) == 0.2  # explicit flag beat the config value


def test_config_flag_with_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.5\nbeta = 0.3\nmu = 0.6\nx0 = 1.0\ny0 = 0.1\n")
    rc = main(["simulate", f"--config={cfg}", "--y0", "0.2"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err.startswith("verdict=extinction")
    assert float(out.strip().split("\n")[1].split(",")[2]) == 0.2
    for argv, message in (
        (["simulate", f"--config={cfg}", "--config", str(cfg)], "at most once"),
        (["simulate", f"--config={cfg}", f"--config={cfg}"], "at most once"),
        ([f"--config={cfg}", "simulate"], "must follow a subcommand"),
        (["simulate", "--config="], "requires a path"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "none.cfg")])
    _, err = capsys.readouterr()
    assert rc == 3


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.5\n")
    rc = main(["simulate", "--config", str(cfg)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "expected key = value" in err


def test_config_file_cannot_nest(tmp_path, capsys):
    cfg = tmp_path / "nest.cfg"
    cfg.write_text("config = other.cfg\n")
    rc = main(["simulate", "--config", str(cfg)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "nest" in err


def test_config_flag_must_follow_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.5\n")
    rc = main(["--config", str(cfg), "simulate"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "must follow a subcommand" in err


def test_config_flag_requires_path(capsys):
    rc = main(["simulate", "--config"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "requires a path" in err


# ------------------------------------------------------------- bad invocations


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--nope", "1"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_no_arguments_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ------------------------------------------------------------ entry point


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "mosqdyn", "classify", "--alpha", "0.6",
         "--beta", "0.5", "--mu", "0.48"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["classification"] == "saddle"
