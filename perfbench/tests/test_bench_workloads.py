import json
from pathlib import Path

import pytest

import bench_workloads as bw
import run

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    build = bw.WORKLOADS[name].build
    first = build(7, str(tmp_path))
    assert first == build(7, str(tmp_path))
    assert [c.argv for c in first] != [c.argv for c in build(8, str(tmp_path))]


def _flag(argv, name):
    return float(argv[argv.index(name) + 1])


@pytest.mark.parametrize("seed", range(20))
def test_sweep_ranges(seed, tmp_path):
    (cmd,) = bw.build_sweep(seed, str(tmp_path))
    alpha = _flag(cmd.argv, "--alpha-range")
    assert bw.SWEEP_ALPHA[0] <= alpha <= bw.SWEEP_ALPHA[1]
    for flag in ("--x0", "--y0"):
        assert bw.START_RANGE[0] <= _flag(cmd.argv, flag) < bw.START_RANGE[1]
    i = cmd.argv.index("--beta-range")
    assert cmd.argv[i + 1 : i + 4] == ("0.05", "1.0", "20")


@pytest.mark.parametrize("seed", range(20))
def test_battery_ranges(seed):
    sets = bw.battery_sets(seed)
    k = bw.BATTERY_SETS_PER_SIDE
    assert len(sets) == 2 * k
    lo, hi = bw.BATTERY_RATES
    for i, (alpha, beta, mu, x0, y0) in enumerate(sets):
        for rate in (alpha, beta, mu):
            assert lo <= rate <= hi
        assert abs(beta - mu) >= bw.BATTERY_MIN_GAP
        assert (beta > mu) == (i >= k)
        assert bw.START_RANGE[0] <= x0 < bw.START_RANGE[1]
        assert bw.START_RANGE[0] <= y0 < bw.START_RANGE[1]


def test_battery_strata_each_hold_one_set_per_side():
    lo, hi = bw.BATTERY_RATES
    k = bw.BATTERY_SETS_PER_SIDE
    sets = bw.battery_sets(3)
    for side in (sets[:k], sets[k:]):
        strata = sorted(int((alpha - lo) / (hi - lo) * k) for alpha, *_ in side)
        assert strata == list(range(k))


@pytest.mark.parametrize("seed", range(5))
def test_dump_uses_reference_configurations(seed, tmp_path):
    cmds = bw.build_dump(seed, str(tmp_path))
    sims = [c for c in cmds if c.kind == "simulate-csv"]
    assert [(c.params["alpha"], c.params["beta"], c.params["mu"]) for c in sims] == list(
        bw.REFERENCE_CONFIGS.values()
    )
    (json_cmd,) = [c for c in cmds if c.kind == "simulate-json"]
    assert json_cmd.params["csv"] in {c.outputs[0] for c in sims}
    for c in cmds:
        for flag in ("--x0", "--y0"):
            assert bw.START_RANGE[0] <= _flag(c.argv, flag) < bw.START_RANGE[1]


def test_benchmark_json_matches_the_runner():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_runner_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
