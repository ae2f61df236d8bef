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
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.05", "1.0", "4",
                 "--mu-range", "0.05", "1.0", "4", "--out", str(sweep_csv)]) == 0
    assert capsys.readouterr().out.strip() == "cells=16 in_condition=12 agree=12 disagree=0"
    assert _load("phase_diagram").main([str(sweep_csv)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "alpha=0.6  beta left 0.05 to 1 right, mu bottom 0.05 to 1 top"
    # mu falls from the top row down, beta rises to the right
    assert out[1:5] == ["EEE=", "EE=S", "E=SS", "=SSS"]
    assert out[5:] == ["cells=16 disagreements=0"]


def test_phase_diagram_marks_disagreements(tmp_path, capsys):
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.05", "1.0", "4",
                 "--mu-range", "0.05", "1.0", "4", "--out", str(sweep_csv)]) == 0
    # the cell (beta, mu) = (0.05, 0.3667) comes second, mu running fastest
    lines = sweep_csv.read_text().splitlines()
    assert ",extinction," in lines[2] and lines[2].endswith(",true")
    lines[2] = lines[2][: -len("true")] + "false"
    sweep_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _load("phase_diagram").main([str(sweep_csv)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[3] == "!=SS"
    assert out[5] == "cells=16 disagreements=1"
