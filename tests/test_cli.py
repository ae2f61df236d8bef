"""Command line behavior: output formats, exit codes, config handling.

Everything drives `main(argv)` in-process; one smoke test goes through
the installed entry point to cover module execution.
"""

import json
import os
import stat
import subprocess
import sys

import pytest

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


def test_simulate_unwritable_output_path(tmp_path, capsys):
    rc = main(["simulate", *EXT, "--x0", "1", "--y0", "1",
               "--out", str(tmp_path / "missing" / "orbit.csv")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "i/o error" in err


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
    rc = main(["classify", *REF1, "--d0", "0.1"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "error:" in err


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
    # a 50-step budget cannot confirm survival, so the cell reads
    # "exhausted" against a saddle classification and the scan must say so
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.8", "0.8", "1",
               "--mu-range", "0.2", "0.2", "1",
               "--steps", "50", "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 4
    assert "disagree=1" in out
    assert ",exhausted," in out_path.read_text()


def test_sweep_rejects_inverted_range(tmp_path, capsys):
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.7", "0.3", "3",
               "--mu-range", "0.3", "0.7", "3",
               "--out", str(tmp_path / "s.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "inverted range" in err


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
