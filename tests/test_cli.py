"""Command line behavior: output formats, exit codes, option handling.

Everything drives `main(argv)` in-process; one smoke test goes through
the installed entry point to cover module execution.
"""

import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mosqdyn import battery, cli, ioutil, simplex
from mosqdyn.cli import DEFAULT_SEED, main
from mosqdyn.errors import VerificationError
from mosqdyn.model import Mode, Parameters, State, validate_parameters
from mosqdyn.ode import OdeConfig, integrate_flow
from mosqdyn.trajectory import OrbitConfig, iterate_general, iterate_orbit

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
    # x grows past x0 but stays near 1e-300, where the adult-limit
    # estimator is alpha/mu to rounding
    rc = main(["simulate", "--alpha", "0.6", "--beta", "0.3001", "--mu", "0.3",
               "--x0", "1e-300", "--y0", "0", "--steps", "20000"])
    out, err = capsys.readouterr()
    assert rc == 0
    first, last = out.splitlines()[1], out.splitlines()[-1]
    assert float(last.split(",")[1]) > float(first.split(",")[1])
    y_last = last.split(",")[2]
    assert err == f"verdict=exhausted n_steps=20000 y_limit_estimate={y_last}\n"
    assert float(y_last) < 1e-250


def test_simulate_stops_at_an_overflowed_state(capsys):
    # beta*y + x overflows on the first step: the run ends there, with no
    # rows computed from inf
    rc = main(["simulate", "--alpha", "0.5", "--beta", "0.9", "--mu", "1.0",
               "--x0", "1.7e308", "--y0", "1.7e308", "--steps", "5"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out.splitlines()[2:] == ["1,inf,5.0000000000000000e-01"]
    assert err == "verdict=exhausted n_steps=1 y_limit_estimate=5.0000000000000000e-01\n"


OVERFLOW_JSON = """{
  "config": {
    "max_iters": 1000000,
    "record_every": 1
  },
  "monitors": {
    "monotone_onset_estimate": 1,
    "pattern_violations": 0,
    "sign_census": {
      "both_down": 0,
      "both_up": 0,
      "ties": 0,
      "x_down_y_up": 0,
      "x_up_y_down": 1
    },
    "sum_identity_max_err": null,
    "y_bound_violations": 0
  },
  "n_steps": 1,
  "orbit": [
    [
      0,
      1.7e+308,
      1.7e+308
    ],
    [
      1,
      null,
      0.5
    ]
  ],
  "params": {
    "alpha": 0.5,
    "beta": 0.9,
    "d0": 0.0,
    "d1": 0.0,
    "mu": 1.0
  },
  "verdict": "exhausted",
  "y_limit_estimate": 0.5
}
"""


def test_simulate_json_is_strict_after_an_overflow(tmp_path, capsys):
    # RFC 8259 has no NaN or Infinity: the overflowed larval count and
    # the nan residual are written as null
    out_path = tmp_path / "orbit.json"
    rc = main(["simulate", "--alpha", "0.5", "--beta", "0.9", "--mu", "1.0",
               "--x0", "1.7e308", "--y0", "1.7e308", "--format", "json", "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    assert out_path.read_text() == OVERFLOW_JSON


def test_simulate_unwritable_output_path(tmp_path, capsys):
    rc = main(["simulate", *EXT, "--x0", "1", "--y0", "1",
               "--out", str(tmp_path / "missing" / "orbit.csv")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "i/o error" in err


def test_unwritable_output_path_is_named_as_given(tmp_path, capsys):
    # the message names the requested file, not the temp file beside it
    target = tmp_path / "missing" / "cells.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.5", "0.5", "1",
               "--mu-range", "0.48", "0.48", "1", "--out", str(target)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err == f"i/o error: [Errno 2] No such file or directory: '{target}'\n"


def test_output_path_that_is_a_directory_is_named_as_given(tmp_path, capsys):
    # the final rename fails; the message names the requested path, not
    # the temp file, and the temp file is gone
    target = tmp_path / "cells"
    target.mkdir()
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.5", "0.5", "1",
               "--mu-range", "0.48", "0.48", "1", "--out", str(target)])
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err == f"i/o error: [Errno 21] Is a directory: '{target}'\n"
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


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


def test_classify_writes_finite_eigenvalues_and_a_null_r0_at_the_top_of_the_box(capsys):
    # the root sqrt(((alpha - mu)/2)^2 + alpha beta) stays finite where
    # (alpha - mu)^2 + 4 alpha beta overflows, so the eigenvalues are
    # numbers; beta/mu overflows, and strict JSON has no Infinity, so r0
    # is null
    rc = main(["classify", "--alpha", "1", "--beta", "1.7e308", "--mu", "0.5"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out == """{
  "alpha": 1.0,
  "beta": 1.7e+308,
  "classification": "repelling",
  "eigenvalues": [
    1.3038404810405297e+154,
    -1.3038404810405297e+154
  ],
  "expected_fate": "survival",
  "jacobian": [
    [
      0.0,
      1.7e+308
    ],
    [
      1.0,
      0.5
    ]
  ],
  "mu": 0.5,
  "r0": null,
  "rate_comparison": "beta>mu",
  "stability_inequalities": [
    false,
    false
  ]
}
"""


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


# each case appends a flag and a value to a complete argv of its command,
# "{}" standing for the output file
REJECT_BASE = {
    "simulate": ["simulate", *REF1, "--x0", "1", "--y0", "1", "--out", "{}"],
    "classify": ["classify", *REF1],
    "sweep": ["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.5", "0.5", "1",
              "--mu-range", "0.48", "0.48", "1", "--out", "{}"],
    "certify": ["certify", *REF1, "--out", "{}"],
    "compare": ["compare", *REF1, "--x0", "1", "--y0", "1", "--out", "{}"],
}
REJECTED_FLAGS = [
    ("simulate", "--d1", "0"), ("simulate", "--confirm-window", "100"),
    ("sweep", "--d0", "0.1"), ("certify", "--d0", "0"),
    ("simulate", "--conv-tol", "1e-8"), ("simulate", "--div-threshold", "1e9"),
    ("classify", "--tol", "1e-9"),
    ("sweep", "--conv-tol", "1e-8"), ("sweep", "--div-threshold", "1e9"), ("sweep", "--tol", "1e-9"),
    ("certify", "--conv-tol", "1e-8"), ("certify", "--div-threshold", "1e9"),
    ("certify", "--p-max", "8"), ("certify", "--grid", "10000"),
    ("compare", "--conv-tol", "1e-8"), ("compare", "--div-threshold", "1e9"),
    ("compare", "--record-every", "1"),
    ("simulate", "--config", "run.cfg"), ("certify", "--config", "run.cfg"),
]


@pytest.mark.parametrize("command,flag,value", REJECTED_FLAGS,
                         ids=[f"{c}-{f[2:]}" for c, f, _ in REJECTED_FLAGS])
def test_commands_take_no_fixed_value_flags(command, flag, value, tmp_path, capsys):
    # the survival window, the detection thresholds, the unit-circle
    # tolerance and the certify scan sizes are constants, options come
    # from the command line alone, and larval mortality belongs to the
    # full map, which only `compare` runs
    out = tmp_path / "never.out"
    with pytest.raises(SystemExit) as exc:
        main([str(out) if tok == "{}" else tok for tok in REJECT_BASE[command]] + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
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


def test_sweep_writes_a_cell_without_origin_linearization(tmp_path, capsys):
    # alpha = 0 is outside the reduced condition and has no origin
    # classification: the row is written with every field after it empty
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0", "1", "2", "--beta-range", "0.5", "0.5", "1",
               "--mu-range", "0.3", "0.3", "1", "--out", str(out_path)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.strip() == "cells=2 in_condition=1 agree=1 disagree=0"
    rows = out_path.read_text().splitlines()
    assert rows[1].startswith("0.0000000000000000e+00,")
    assert rows[1].endswith(",false,,,,,")


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


def test_sweep_agrees_where_lambda2_crosses_minus_one(tmp_path, capsys):
    # at alpha = mu = 0.5, p(-1) = 2.25 - beta/2 is 0 at beta = 4.5: the
    # origin goes from saddle through nonhyperbolic to repelling, while
    # the fate stays survival.  Agreement reads lambda1's side of 1 only,
    # so no cell disagrees
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0.5", "0.5", "1", "--beta-range", "4.4999999999", "4.5000000001", "3",
               "--mu-range", "0.5", "0.5", "1", "--out", str(out_path)])
    assert capsys.readouterr().out == "cells=3 in_condition=3 agree=3 disagree=0\n"
    assert rc == 0
    rows = [ln.split(",") for ln in out_path.read_text().splitlines()[1:]]
    assert [r[6] for r in rows] == ["saddle", "nonhyperbolic", "repelling"]
    assert all(r[7] == "survival" and r[10] == "true" for r in rows)


def test_sweep_labels_near_critical_cells_by_exact_signs(tmp_path, capsys):
    # 1e-10 either side of mu: the exact signs label the cells attracting
    # and saddle, and the survival cell agrees; the beta < mu orbit still
    # exhausts its budget long before extinction, so that cell alone
    # disagrees
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.4999999999", "0.5000000001", "3",
               "--mu-range", "0.5", "0.5", "1", "--steps", "1000", "--out", str(out_path)])
    assert capsys.readouterr().out == "cells=3 in_condition=2 agree=1 disagree=1\n"
    assert rc == 4
    rows = [ln.split(",") for ln in out_path.read_text().splitlines()[1:]]
    assert [r[6:8] + r[10:] for r in rows] == [
        ["attracting", "exhausted", "false"], ["nonhyperbolic", "", ""], ["saddle", "survival", "true"],
    ]


def test_sweep_rejects_inverted_range(tmp_path, capsys):
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1",
               "--beta-range", "0.7", "0.3", "3",
               "--mu-range", "0.3", "0.7", "3",
               "--out", str(tmp_path / "s.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "inverted range" in err


def test_sweep_single_point_axis_is_its_low_end_when_the_span_overflows(tmp_path, capsys):
    # hi - lo overflows, where np.linspace(lo, hi, 1) would give [nan];
    # argparse reads "-1e+308" as a flag, so the low end is spelled out
    out_path = tmp_path / "s.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", str(int(-1e308)), "1.7e308", "1",
               "--mu-range", "0.5", "0.5", "1", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (0, "cells=1 in_condition=0 agree=0 disagree=0\n", "")
    assert out_path.read_text().splitlines()[1].split(",")[1] == "-1.0000000000000000e+308"


def test_sweep_rejects_an_axis_whose_span_overflows(tmp_path, capsys):
    # with two or more points, np.linspace would give nan nodes and warn
    out_path = tmp_path / "s.csv"
    low = str(int(-1e308))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", low, "1.7e308", "2",
                   "--mu-range", "0.5", "0.5", "1", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert (rc, out, caught) == (2, "", [])
    assert err == "error: --beta-range: high - low must be finite, got -1e+308 1.7e+308 2.0\n"
    assert not out_path.exists()


@pytest.mark.parametrize("count", ["0.6", "2.5", "1.0000000000000002"])
def test_sweep_rejects_a_fractional_grid_count(tmp_path, capsys, count):
    # a count is not rounded: 0.6 wrote one cell and 2.5 two
    out_path = tmp_path / "s.csv"
    rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.3", "0.7", count,
               "--mu-range", "0.48", "0.48", "1", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == f"error: --beta-range: grid count must be a whole number, got {float(count)}\n"
    assert not out_path.exists()


def test_sweep_takes_a_whole_grid_count_written_as_a_float(tmp_path, capsys):
    files = []
    for count in ("20", "20.0"):
        out_path = tmp_path / f"s-{count}.csv"
        rc = main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.05", "1.0", count,
                   "--mu-range", "0.48", "0.48", "1", "--out", str(out_path), "--steps", "2000"])
        out, _ = capsys.readouterr()
        assert rc in (0, 4) and out.startswith("cells=20 ")
        files.append(out_path.read_bytes())
    assert files[0] == files[1]


@pytest.mark.parametrize("argv, flag", [
    (["simulate", *REF1, "--x0", "1", "--y0", "1", "--steps", "0"], "--steps"),
    (["simulate", *REF1, "--x0", "1", "--y0", "1", "--record-every", "0"], "--record-every"),
    (["certify", *REF1, "--steps", "0"], "--steps"),
    (["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.5", "0.5", "1",
      "--mu-range", "0.48", "0.48", "1", "--record-every", "-2", "--out", "s.csv"], "--record-every"),
    (["compare", *REF1, "--x0", "1", "--y0", "1", "--steps", "0"], "--steps"),
    # the full map (larval mortality) is held to the same budget rule
    (["compare", "--alpha", "0.5", "--beta", "0.9", "--mu", "0.3", "--d0", "0.05", "--d1", "0.01",
      "--x0", "1", "--y0", "1", "--steps", "0", "--t-end", "1", "--dt", "0.5"], "--steps"),
    (["compare", "--alpha", "0.5", "--beta", "0.9", "--mu", "0.3", "--d0", "0.05",
      "--x0", "1", "--y0", "1", "--steps", "-3", "--t-end", "1", "--dt", "0.5"], "--steps"),
    # the flow meets its pole at these rates (exit 4), after the budget is refused
    (["compare", "--alpha", "0.5", "--beta", "0.5", "--mu", "0.5", "--d0", "4.25",
      "--x0", "1", "--y0", "1", "--steps", "0", "--t-end", "1", "--dt", "1"], "--steps"),
])
def test_a_budget_or_stride_below_one_names_its_flag(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    out, err = capsys.readouterr()
    value = argv[argv.index(flag) + 1]
    assert (rc, out, err) == (2, "", f"error: {flag} must be at least 1, got {value}\n")
    assert list(tmp_path.iterdir()) == []


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
    rc = main(["certify", *REF1, "--x0", "2", "--y0", "0.1", "--out", str(out_path)])
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
    rc = main(["certify", *EXT])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "PASS decreasing-totals" in out
    assert "growth-lower-bound" not in out


def test_certify_fails_on_starved_budget(capsys):
    rc = main(["certify", *REF1, "--x0", "2", "--y0", "0.1", "--steps", "100"])
    out, _ = capsys.readouterr()
    assert rc == 4
    assert "FAIL orbit-dichotomy" in out
    assert "verdict=exhausted" in out


def test_certify_sum_bound_scales_with_state_size(capsys):
    # one ulp of 1e8 is 1.5e-8, above the 1e-9 floor of the bound
    rc = main(["certify", *REF1, "--x0", "1e8", "--y0", "1"])
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
    rc = main(["certify", *argv])
    out, _ = capsys.readouterr()
    assert rc == 0, out
    assert "PASS orbit-dichotomy: verdict=survival" in out
    assert "PASS growth-lower-bound" in out


def test_certify_origin_start_is_extinction_for_growth_rates(capsys):
    # (0, 0) is a fixed point whatever the rates
    rc = main(["certify", *REF1, "--x0", "0", "--y0", "0"])
    out, _ = capsys.readouterr()
    assert rc == 0, out
    assert "PASS orbit-dichotomy: verdict=extinction n=0 " in out


@pytest.mark.parametrize("alpha", ["1e-9", "1e-12"])
def test_certify_scans_pass_at_tiny_emergence(capsys, alpha):
    # every x-axis state moves by about alpha per step, below the old
    # absolute residual of 1e-10; the scans hold each residual to the
    # size of the motion it measures
    rc = main(["certify", "--alpha", alpha, "--beta", "0.5", "--mu", "0.3", "--steps", "1000"])
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert "PASS two-cycle-grid: 0 non-origin period-two cells" in lines
    assert "PASS fixed-point-scan: origin only" in lines
    assert rc == 0, out


@pytest.mark.parametrize("alpha, beta", [
    ("0.6", "300"), ("0.6", "1000"), ("1", "1e4"), ("0.6", "5e4"), ("1", "5e4"), ("1", "1e8"), ("1", "1e15"),
], ids=["300", "1000", "1e4", "5e4", "5e4-vieta", "1e8", "1e15"])
def test_certify_passes_at_large_egg_production(capsys, alpha, beta):
    # a(1) = (1 - beta) + (1 - alpha) + beta cancels beta, so the interval
    # map's float rounding grows with beta; the range and the two-cycle
    # signs are decided exactly, the periodic scan's bound grows with
    # beta, and the spectral bounds with the eigenvalues and the
    # alpha*beta their residuals cancel
    rc = main(["certify", "--alpha", alpha, "--beta", beta, "--mu", "0.48"])
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert "PASS interval-map-range: T([0,1]) within [0,1]" in lines
    assert sum(ln.startswith("PASS ") for ln in lines) == 9
    assert lines[-1] == "certificates=9 failed=0"
    assert rc == 0, out


@pytest.mark.parametrize("argv", [
    ["--alpha", "0.6", "--beta", "0.50000000001", "--mu", "0.5"],
    ["--alpha", "1", "--beta", "1e8", "--mu", "0.5"],
    ["--alpha", "0.9", "--beta", "0.9", "--mu", "0.88", "--x0", "1e5", "--y0", "1e15"],
], ids=["near-critical", "periodic-scan-1e8", "large-start-envelope"])
def test_certify_passes_every_certificate(capsys, argv):
    # beta 2e-11 above mu once met the old fixed-point scan's residual
    # bound; at beta = 1e8 the interval map's rounding near x = 1 once
    # exceeded the periodic scan's absolute bound; from y0 = 1e15, y_1 =
    # 1.2e14 lies one ulp (0.0156) above the rounded adult envelope, over
    # the old absolute 1e-12
    rc = main(["certify", *argv])
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert sum(ln.startswith("PASS ") for ln in lines) == 9
    assert lines[-1] == "certificates=9 failed=0"
    assert rc == 0, out


def test_certify_totals_slack_scales_with_the_start(capsys):
    # (mu/beta) x + y rises by one ulp of its start value 11297.2 at one
    # step, 1.8e-12, rounding far above the 1e-14 tie tolerance
    rc = main(["certify", "--alpha", "0.011153842706481409", "--beta", "0.00036514205766830367",
               "--mu", "0.2237410905834467", "--x0", "0", "--y0", "11297.223148494579"])
    out, _ = capsys.readouterr()
    assert "PASS decreasing-totals: x+y and (mu/beta)x+y nonincreasing" in out.splitlines()
    assert rc == 0, out


def test_certify_trial_fails_on_a_broken_sum_bound(monkeypatch, capsys):
    # trial orbits are held to the orbit-dichotomy acceptance rule, the
    # total-increment residual bound included
    real = battery.iterate_orbit

    def broken(p, s0, config=None, **flags):
        orbit = real(p, s0, config, **flags)
        return dataclasses.replace(orbit, monitors=dataclasses.replace(orbit.monitors, sum_identity_max_err=1.0))

    monkeypatch.setattr(battery, "iterate_orbit", broken)
    rc = main(["certify", *REF1, "--x0", "2", "--y0", "0.1", "--trials", "2", "--seed", "7"])
    out, _ = capsys.readouterr()
    assert rc == 4
    assert "FAIL orbit-dichotomy:" in out
    assert "FAIL trial-1:" in out and "FAIL trial-2:" in out


def test_certify_fails_the_periodic_scan_alone_on_non_finite_iterates(monkeypatch, capsys):
    # x is 1e18 after one step, where the growth bound needs a slack of
    # its size; the interval map adds nonnegative terms only, so it is
    # finite there and every certificate passes
    rc = main(["certify", "--alpha", "1", "--beta", "1e18", "--mu", "0.48"])
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert "PASS growth-lower-bound: anchored at onset 0" in lines
    assert any(ln.startswith("PASS periodic-scan: periods 2..8: ") for ln in lines)
    assert lines[-1] == "certificates=9 failed=0"
    assert rc == 0
    # a stand-in T that returns nan leaves the scan nothing to check,
    # which must fail it, and it alone
    monkeypatch.setattr(simplex, "interval_map", lambda p, x: x * math.nan)
    rc = main(["certify", *REF1])
    out, _ = capsys.readouterr()
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL ")]
    assert len(fails) == 1 and fails[0].startswith("FAIL periodic-scan: ")
    assert "10000 of the 10000 iterates T^2(x) are not finite" in fails[0]
    assert rc == 4


@pytest.mark.parametrize("beta, names", [
    # beta * y overflows on the planar grid's top rows
    ("4e307", ["two-cycle-grid"]),
    # and beta * e / mu on the nullcline from x about 1
    ("1.7e308", ["two-cycle-grid", "fixed-point-scan"]),
])
def test_certify_fails_each_scan_on_non_finite_values(capsys, beta, names):
    # a nan compares false, so each scan must fail on it by name, and
    # numpy's overflow warnings must not reach stderr
    rc = main(["certify", "--alpha", "1", "--beta", beta, "--mu", "0.48"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert err == ""
    for name in names:
        line = next(ln for ln in out.splitlines() if ln.split(" ")[1] == name + ":")
        assert line.startswith(f"FAIL {name}: ") and "not finite" in line


def _certificate_lines(capsys) -> dict[str, str]:
    # certificate name -> its PASS or FAIL line
    out = capsys.readouterr().out
    return {ln.split(" ")[1].rstrip(":"): ln for ln in out.splitlines() if ln.startswith(("PASS ", "FAIL "))}


@pytest.mark.parametrize("alpha, beta", [("0.6", "0.49999999999"), ("1e-6", "0.49995")])
def test_certify_classifies_a_near_critical_origin_as_attracting(capsys, alpha, beta):
    # lambda1 is within 1e-9 of 1 here, yet the exact signs say
    # attracting; the orbit runs out of budget long before extinction,
    # so the exit code stays 4
    rc = main(["certify", "--alpha", alpha, "--beta", beta, "--mu", "0.5", "--steps", "1000"])
    lines = _certificate_lines(capsys)
    assert lines["stability-equivalence"] == "PASS stability-equivalence: classification=attracting"
    assert [name for name, ln in lines.items() if ln.startswith("FAIL ")] == ["orbit-dichotomy"]
    assert rc == 4


def test_certify_fixed_point_scan_passes_one_ulp_above_mu(capsys):
    # g = (beta/mu - 1) e is inside its own rounding band at every node;
    # there it takes the sign of beta - mu instead of reading as a fixed
    # point.  The orbit freezes in rounding at step 40, so the exit is 4
    rc = main(["certify", "--alpha", "0.6", "--beta", "0.5000000000000001", "--mu", "0.5"])
    lines = _certificate_lines(capsys)
    assert lines["fixed-point-scan"] == "PASS fixed-point-scan: origin only"
    assert lines["stability-equivalence"] == "PASS stability-equivalence: classification=saddle"
    assert [name for name, ln in lines.items() if ln.startswith("FAIL ")] == ["orbit-dichotomy"]
    assert rc == 4


def test_certify_spectral_agreement_passes_at_the_top_of_the_box(capsys):
    # 4 alpha beta overflows from beta about 4.5e307; the root of the
    # closed-form eigenvalues does not, so they agree with the numeric
    # solver.  `two-cycle-grid` still fails on overflowing grid values
    rc = main(["certify", "--alpha", "1", "--beta", "4.6e307", "--mu", "0.48"])
    lines = _certificate_lines(capsys)
    assert lines["spectral-agreement"].startswith("PASS spectral-agreement: ")
    assert [name for name, ln in lines.items() if ln.startswith("FAIL ")] == ["two-cycle-grid"]
    assert rc == 4


def test_certify_keeps_the_periodic_scan_failure_short(monkeypatch, capsys):
    # with the stand-in T(x) = 1 - x every grid point is a two-cycle; the
    # FAIL line lists five roots and counts the rest (it ran to 635,606
    # characters when every root of every even period was listed).  The
    # bisection's kernel `_interval_power` is T applied q times
    def power(p, q, x):
        for _ in range(q):
            x = simplex.interval_map(p, x)
        return x

    monkeypatch.setattr(simplex, "interval_map_parts", lambda p, x: (1 - x, 1 + 0 * x))
    monkeypatch.setattr(simplex, "_interval_power", power)
    rc = main(["certify", *REF1])
    out, _ = capsys.readouterr()
    scan = [ln for ln in out.splitlines() if ln.startswith("FAIL periodic-scan: ")]
    assert rc == 4
    assert len(scan) == 1 and "distinct roots" in scan[0] and "the first 5: " in scan[0]
    assert len(scan[0]) < 300


def test_certify_rejects_invalid_rates(capsys):
    rc = main(["certify", "--alpha", "1.5", "--beta", "0.5", "--mu", "0.48"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == "error: invalid parameters (mode=reduced): 0 < alpha <= 1\n"


@pytest.mark.parametrize("command, start, mode", [
    ("simulate", ["--x0", "1", "--y0", "1"], "reduced"),
    ("certify", [], "reduced"),
    ("compare", ["--x0", "1", "--y0", "1"], "general"),
    ("classify", [], "general"),
], ids=["simulate", "certify", "compare", "classify"])
def test_every_command_rejects_invalid_rates_with_one_message(capsys, command, start, mode):
    rc = main([command, "--alpha", "1.5", "--beta", "0.5", "--mu", "0.48", *start])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", f"error: invalid parameters (mode={mode}): 0 < alpha <= 1\n")


def test_classify_names_only_the_failing_constraints_of_a_nan_rate(capsys):
    rc = main(["classify", "--alpha", "nan", "--beta", "0.5", "--mu", "0.4"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == "error: invalid parameters (mode=general): all parameters finite; 0 < alpha <= 1\n"


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


def test_every_json_output_is_one_strict_encoding(tmp_path, capsys):
    assert ioutil.json_text({"b": 1, "a": [0.5]}) == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        ioutil.json_text({"a": float("nan")})
    out_path = tmp_path / "cert.json"
    assert main(["certify", *REF1, "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["classify", *REF1]) == 0
    for text in (out_path.read_text(), capsys.readouterr().out):
        assert text == ioutil.json_text(json.loads(text))


def test_fmt_and_the_csv_row_templates_share_one_float_spec():
    specials = [math.inf, -math.inf, math.nan, -0.0, 5e-324, sys.float_info.max, 0.1]
    # doubles from random bit patterns cover every exponent and both signs
    bits = np.random.default_rng(1729).integers(0, 2**64, size=10_100, dtype=np.uint64)
    drawn = bits.view(np.float64)
    finite = drawn[np.isfinite(drawn)][:10_000]
    assert len(finite) == 10_000
    for v in [*specials, *finite.tolist()]:
        text = ioutil.fmt(v)
        assert text == ioutil.FLOAT_FIELD % v == ioutil.FLOAT_FIELD % np.float64(v)
    assert ioutil.fmt(0.1) == "1.0000000000000001e-01"
    assert [ioutil.fmt(v) for v in specials[:3]] == ["inf", "-inf", "nan"]


def test_certify_rejects_negative_trials(capsys):
    rc = main(["certify", *REF1, "--trials", "-3", "--seed", "7"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --trials") and err.count("\n") == 1


def test_certify_rejects_a_negative_seed_before_the_battery(monkeypatch, capsys):
    # numpy refuses a negative seed only once the trials start, after the
    # grid, the scan and the orbit have run and `seed=-1` is printed
    def certificates(*args):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(cli, "run_certificates", certificates)
    rc = main(["certify", *REF1, "--trials", "2", "--seed", "-1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == "error: --seed must be nonnegative, got -1\n"


def test_certify_trials_echo_default_seed(capsys):
    rc = main(["certify", *REF1, "--x0", "2", "--y0", "0.1", "--trials", "3"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert f"seed={DEFAULT_SEED}" in out
    assert "certificates=12 failed=0" in out
    assert "PASS trial-3:" in out


def test_seed_default(monkeypatch, capsys):
    # the seed comes from --seed or its default, never from the environment
    monkeypatch.setenv("MOSQDYN_SEED", "99")
    rc = main(["certify", *REF1, "--trials", "1"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.splitlines()[0] == f"seed={DEFAULT_SEED}"


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


def _compare_csv_oracle(alpha, beta, mu, d0, d1, steps, t_end, dt) -> str:
    """The `compare` CSV built field by field from the library layers,
    one `fmt` per coordinate and `,,` for the side that has run out."""
    p = Parameters(alpha, beta, mu, d0, d1)
    s0 = State(1.0, 1.0)
    flow = integrate_flow(p, s0, OdeConfig(step=dt, t_end=t_end))
    if validate_parameters(p, Mode.REDUCED).valid:
        orbit = iterate_orbit(p, s0, OrbitConfig(max_iters=steps, record_every=1))
        ns, xs, ys = orbit.steps, orbit.xs, orbit.ys
    else:
        ns, xs, ys = iterate_general(p, s0, steps)
    rows = ["n,x_map,y_map,t,x_flow,y_flow"]
    for i in range(max(len(ns), len(flow.ts))):
        left = f"{int(ns[i])},{ioutil.fmt(xs[i])},{ioutil.fmt(ys[i])}" if i < len(ns) else ",,"
        right = (
            f"{float(flow.ts[i]):.6f},{ioutil.fmt(flow.xs[i])},{ioutil.fmt(flow.ys[i])}"
            if i < len(flow.ts) else ",,"
        )
        rows.append(left + "," + right)
    return "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("shape, alpha, beta, mu, d0, d1, steps, t_end, dt, n_map, n_flow", [
    ("map-longer", 0.6, 0.8, 0.5, 0.1, 0.05, 400, 2.0, 0.05, 401, 41),
    ("equal", 0.6, 0.8, 0.5, 0.1, 0.05, 40, 2.0, 0.05, 41, 41),
    ("flow-longer", 0.5, 0.3, 0.6, 0.0, 0.0, 5, 2.0, 0.1, 6, 21),
    # the map freezes from row 306, the flow never does
    ("map-frozen", 0.6, 0.8, 0.5, 0.1, 0.05, 400, 30.0, 0.05, 401, 601),
    # both freeze on the positive equilibrium, the map from row 216 and
    # the flow from row 453, and the flow's frozen tail runs on alone
    ("both-frozen", 0.5, 0.9, 0.3, 0.05, 0.01, 600, 500.0, 0.5, 601, 1001),
    # both freeze at (5e-324, 0.0), the map from row 909, the flow from 1333
    ("frozen-zero", 0.5, 0.3, 0.9, 0.5, 0.1, 2000, 1500.0, 1.0, 2001, 1501),
])
def test_compare_csv_bytes_match_the_field_by_field_oracle(
    shape, alpha, beta, mu, d0, d1, steps, t_end, dt, n_map, n_flow, tmp_path, capsys
):
    argv = ["compare", "--alpha", str(alpha), "--beta", str(beta), "--mu", str(mu),
            "--d0", str(d0), "--d1", str(d1), "--x0", "1", "--y0", "1",
            "--steps", str(steps), "--t-end", str(t_end), "--dt", str(dt)]
    expected = _compare_csv_oracle(alpha, beta, mu, d0, d1, steps, t_end, dt)
    lines = expected.split("\n")
    assert len(lines) == 1 + max(n_map, n_flow) + 1  # header, rows, empty after the last LF
    assert lines[min(n_map, n_flow)].count(",,") == 0  # last row with both sides
    if n_map != n_flow:
        assert lines[-2].startswith(",,,") == (n_flow > n_map)
        assert lines[-2].endswith(",,,") == (n_map > n_flow)

    out_path = tmp_path / f"{shape}.csv"
    assert main([*argv, "--out", str(out_path)]) == 0
    file_out, _ = capsys.readouterr()
    assert out_path.read_bytes() == expected.encode()
    assert main(argv) == 0
    stdout, err = capsys.readouterr()
    assert stdout == expected
    assert err == file_out  # the summary moves to stderr, unchanged


def test_compare_rejects_negative_mortality(capsys):
    rc = main(["compare", *EXT, "--d1", "-1", "--x0", "1", "--y0", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == "error: invalid parameters (mode=general): d1 >= 0\n"


def test_compare_integration_failure_exits_4(capsys):
    # strong crowding at dt = 1 throws RK4 far below x = -0.5 in one step
    rc = main(["compare", "--alpha", "0.5", "--beta", "0.5", "--mu", "0.5", "--d1", "50",
               "--x0", "10", "--y0", "0", "--dt", "1", "--t-end", "10", "--steps", "5"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err.startswith("integration failure: ") and err.count("\n") == 1


def test_compare_pole_exits_4(capsys):
    # an RK4 stage lands exactly on the field's pole x = -1 (see
    # tests/test_ode.py), which divides by zero
    rc = main(["compare", "--alpha", "0.5", "--beta", "0.5", "--mu", "0.5", "--d0", "4.25",
               "--x0", "1", "--y0", "1", "--steps", "1", "--t-end", "1", "--dt", "1"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err == "integration failure: vector field pole reached (x = -1)\n"


def test_compare_checks_the_budget_before_the_flow(monkeypatch, capsys):
    def failing(p, s0, cfg):
        raise AssertionError("the flow ran before --steps was checked")

    monkeypatch.setattr(cli, "integrate_flow", failing)
    assert main(["compare", *EXT, "--x0", "1", "--y0", "1", "--steps", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --steps must be at least 1, got 0\n")


@pytest.mark.parametrize("rates", [
    # d1 = 1e-12: the textbook root subtracts two terms of about 0.05
    ["--alpha", "0.5", "--beta", "0.9", "--mu", "0.3", "--d0", "0.05", "--d1", "1e-12"],
    # beta = 1e6: the field's terms are of size 1e7 at the equilibrium
    ["--alpha", "1", "--beta", "1e6", "--mu", "0.1", "--d1", "0.01"],
])
def test_compare_holds_the_positive_equilibrium_to_its_own_scale(capsys, rates):
    rc = main(["compare", *rates, "--x0", "1", "--y0", "1", "--steps", "5", "--t-end", "1"])
    _, err = capsys.readouterr()
    assert rc == 0
    assert "positive_equilibrium=(" in err


def test_compare_with_an_overflowing_offspring_number_exits_4(capsys):
    # r0 overflows to inf; the equilibrium cannot be verified, which is
    # not a fault of the (admissible) rates
    rc = main(["compare", "--alpha", "1", "--beta", "1e308", "--mu", "1e-3", "--d1", "1",
               "--x0", "1", "--y0", "1", "--steps", "2", "--t-end", "1"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err.startswith("verification failure: positive equilibrium is not finite") and err.count("\n") == 1


def test_verification_failure_inside_a_command_exits_4(monkeypatch, capsys):
    def failing(p):
        raise VerificationError("positive equilibrium residual 1.000e+00 exceeds 1.0e-09")

    monkeypatch.setattr(cli, "offspring_number", failing)
    rc = main(["compare", *EXT, "--x0", "1", "--y0", "1", "--steps", "5", "--t-end", "1"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err == "verification failure: positive equilibrium residual 1.000e+00 exceeds 1.0e-09\n"


def test_compare_horizon_beyond_memory_exits_2(capsys):
    # 1e14 RK4 steps need 800 TB of samples, beyond any address space
    rc = main(["compare", *EXT, "--x0", "1", "--y0", "1", "--steps", "10", "--t-end", "1e12"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_compare_subnormal_step_exits_2(capsys):
    # t_end / dt overflows to inf, so there is no step count to run
    rc = main(["compare", *EXT, "--x0", "1", "--y0", "1", "--t-end", "1", "--dt", "5e-324"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == "error: t_end / step must be finite, got 1.0 / 5e-324\n"


def test_classify_offspring_number_of_tiny_rates(capsys):
    # (alpha + d0) * mu underflows to zero at these admissible rates,
    # but r0 = beta/mu does not
    rc = main(["classify", "--alpha", "1e-200", "--beta", "0.5", "--mu", "1e-200"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert json.loads(out)["r0"] == 5e199


def test_compare_threshold_coherence_next_to_the_critical_rate(capsys):
    # beta is one ulp above mu; alpha beta and alpha mu round to the same
    # double, so r0 must be taken as beta/mu, rounded once
    rc = main(["compare", "--alpha", "0.445", "--beta", "0.9360000000000002", "--mu", "0.936",
               "--x0", "1", "--y0", "1", "--steps", "5", "--t-end", "1"])
    _, err = capsys.readouterr()
    assert rc == 0
    assert "r0=1.0000000000000002e+00 trivial_stable=false " in err
    assert "threshold_coherence=true" in err.splitlines()


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_compare_non_finite_horizon_exits_2(capsys, t_end):
    rc = main(["compare", *EXT, "--x0", "1", "--y0", "1", "--steps", "10", "--t-end", t_end])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == f"error: t_end must be finite, got {float(t_end)}\n"


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
