import contextlib
import io
import sys

import pytest

import bench_trace
from bench_trace import Span, Tracer, self_times


def test_self_times_nested_spans():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # self times of one command add up to its span
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("c1", 1.0, 4.0, parent=0),
        Span("c2", 3.0, 6.0, parent=0),
        Span("c3", 8.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_nests_and_counts_an_error_once():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        raise ValueError("boom")

    traced_inner = tracer.wrap("simplex.inner", inner)
    traced_outer = tracer.wrap("spectral.outer", lambda: traced_inner())
    with pytest.raises(ValueError):
        traced_outer()
    outer, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer.parent is None
    assert (inner_span.error, outer.error) == ("ValueError", None)


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench_trace.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert bench_trace.tail_percentile([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert bench_trace.tail_percentile([3.0, 1.0, 2.0]) == (None, 3.0)


def _originals():
    originals = bench_trace.layer_functions()
    return {
        (mod.__name__, attr): value
        for mod in bench_trace._package_modules()
        for attr, value in vars(mod).items()
        if any(value is fn for fn in originals.values())
    }


def _run_cli(argv):
    import mosqdyn.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return mosqdyn.cli.main(argv)


def test_wrappers_catch_imported_names_and_are_restored(tmp_path):
    import mosqdyn.cli
    import mosqdyn.trajectory

    before = _originals()
    tracer = Tracer()
    with bench_trace.installed(tracer):
        assert mosqdyn.cli.iterate_orbit is mosqdyn.trajectory.iterate_orbit
        assert mosqdyn.cli.iterate_orbit.__wrapped__ is before[("mosqdyn.trajectory", "iterate_orbit")]
        rc = _run_cli(["simulate", "--alpha", "0.5", "--beta", "0.3", "--mu", "0.6",
                       "--x0", "1", "--y0", "1", "--out", str(tmp_path / "orbit.csv")])
    assert rc == 0
    names = {s.name for s in tracer.spans}
    assert {"trajectory.iterate_orbit", "trajectory.orbit_to_csv", "model.validate_parameters"} <= names
    assert _originals() == before
    for (modname, attr), value in before.items():
        assert getattr(sys.modules[modname], attr) is value
    assert bench_trace.installed_wrappers() == []


def test_wrappers_are_restored_when_the_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with bench_trace.installed(Tracer()):
            raise RuntimeError("stop")
    assert _originals() == before
    assert bench_trace.installed_wrappers() == []


def test_coverage_guard_raises_on_unreached_and_unknown_layers():
    spans = [Span("cli.main", 0.0, 1.0), Span("trajectory.iterate_orbit", 0.1, 0.9, parent=0)]
    bench_trace.require_layers(spans, ("trajectory.iterate_orbit",), "sweep")
    required = ("trajectory.iterate_orbit", "simplex.scan_periodic_points", "simplex.no_such_scan")
    with pytest.raises(bench_trace.LayerCoverageError) as err:
        bench_trace.require_layers(spans, required, "battery")
    assert "never reached simplex.scan_periodic_points, simplex.no_such_scan;" in str(err.value)


def test_layer_metrics_cover_every_per_layer_metric():
    import run

    spans = [Span("cli.main", 0.0, 2.0), Span("model.validate_parameters", 0.5, 1.0, parent=0)]
    metrics, _ = bench_trace.layer_metrics(spans, self_times(spans))
    assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER_UNITS)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["model.validate_parameters.calls"] == 1


def test_reference_speed_scale():
    import bench_speed

    nominal = bench_speed.REF_NOMINAL_S
    assert bench_speed.scale([nominal]) == pytest.approx(1.0)
    assert bench_speed.scale([2 * nominal, 2 * nominal]) == pytest.approx(0.5)
    # a pass spent half at full and half at half speed did 3/4 of the nominal work rate
    assert bench_speed.scale([nominal, 2 * nominal]) == pytest.approx(0.75)


def test_speed_sampler_samples_and_restores_the_signal_state():
    import signal
    import time

    import bench_speed

    before = signal.getsignal(signal.SIGALRM)
    with bench_speed.SpeedSampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 4
    assert 0.0 < sampler.busy < 0.1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
