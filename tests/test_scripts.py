"""The scripts under scripts/, run in-process on small grids."""

import importlib.util
from pathlib import Path

from mosqdyn.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_phase_diagram_renders_the_sweep(tmp_path, capsys):
    phase_csv = tmp_path / "phase.csv"
    sweep_csv = tmp_path / "sweep.csv"
    assert _load("phase_diagram").main(["--n", "4", "--out", str(phase_csv)]) == 0
    out = capsys.readouterr().out.splitlines()
    # mu falls from the top row down, beta rises to the right
    assert out[1:5] == ["EEE=", "EE=S", "E=SS", "=SSS"]
    assert out[5] == "cells=16 disagreements=0"
    assert main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.05", "1.0", "4",
                 "--mu-range", "0.05", "1.0", "4", "--out", str(sweep_csv)]) == 0
    assert capsys.readouterr().out.strip() == "cells=16 in_condition=12 agree=12 disagree=0"
    assert phase_csv.read_text() == sweep_csv.read_text()
