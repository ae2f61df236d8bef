"""Orbit engine: verdicts, monitors, offline checkers, CSV output.

Step counts are deliberately not frozen (they are detector details, not
contract); limits, verdicts, and monitor counts are.  The doctored-orbit
tests feed corrupted data to the offline checkers to prove they can
actually fail.
"""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mosqdyn as mq

REF1 = mq.Parameters(0.6, 0.5, 0.48)
REF2 = mq.Parameters(0.4, 0.35, 0.3)
REF3 = mq.Parameters(0.9, 0.9, 0.88)
EXT = mq.Parameters(0.5, 0.3, 0.6)


@pytest.fixture(scope="module")
def ref1_orbit():
    return mq.iterate_orbit(REF1, mq.State(2.0, 0.1))


@pytest.fixture(scope="module")
def ref2_orbit():
    return mq.iterate_orbit(REF2, mq.State(0.5, 2.0))


@pytest.fixture(scope="module")
def ref3_orbit():
    return mq.iterate_orbit(REF3, mq.State(0.01, 0.2))


@pytest.fixture(scope="module")
def ext_orbit():
    return mq.iterate_orbit(EXT, mq.State(1.0, 1.0))


# ----------------------------------------------------------- reference orbits


def test_growth_orbit_survival_and_limit(ref1_orbit):
    orb = ref1_orbit
    assert orb.verdict is mq.Verdict.SURVIVAL
    assert abs(orb.y_limit_estimate - 0.6 / 0.48) < 1e-6
    assert orb.monitors.y_bound_violations == 0
    assert orb.monitors.pattern_violations == 0
    assert orb.monitors.sum_identity_max_err < 1e-9
    # the raw adult count still carries its 1/(1+x) correction; the
    # reported limit must be exactly the estimator at the final state
    assert orb.final_state.y == pytest.approx(0.6 / 0.48, abs=1e-3)
    est = orb.final_state.y + (0.6 / 0.48) / (1.0 + orb.final_state.x)
    assert orb.y_limit_estimate == pytest.approx(est, abs=1e-12)


def test_growth_orbit_second_config(ref2_orbit):
    orb = ref2_orbit
    assert orb.verdict is mq.Verdict.SURVIVAL
    assert abs(orb.y_limit_estimate - 0.4 / 0.3) < 1e-6
    assert orb.monitors.y_bound_violations == 0
    assert orb.monitors.pattern_violations == 0


def test_near_critical_orbit(ref3_orbit):
    orb = ref3_orbit
    assert orb.verdict is mq.Verdict.SURVIVAL
    assert abs(orb.y_limit_estimate - 0.9 / 0.88) < 1e-6
    assert orb.monitors.pattern_violations == 0
    # observational regression pin: this orbit shows exactly five
    # (x up, y down) -> (x down, y up) transitions in its transient
    assert orb.monitors.sign_census.switches == 5


def test_monotone_onset_is_consistent(ref1_orbit):
    orb = ref1_orbit
    onset = orb.monitors.monotone_onset_estimate
    assert 0 < onset < 100
    after = orb.steps > onset
    assert np.all(np.diff(orb.xs[after]) >= -mq.trajectory.TIE_TOL)
    assert np.all(np.diff(orb.ys[after]) >= -mq.trajectory.TIE_TOL)


def test_extinction_orbit(ext_orbit):
    orb = ext_orbit
    assert orb.verdict is mq.Verdict.EXTINCTION
    assert orb.n_steps <= 200
    assert orb.final_state.x < 1e-8
    assert orb.final_state.y < 1e-8
    assert orb.y_limit_estimate == orb.final_state.y
    assert orb.monitors.pattern_violations == 0
    assert orb.monitors.y_bound_violations == 0


def test_offline_checkers_agree_on_real_orbits(ref1_orbit, ext_orbit):
    assert mq.check_y_bound(REF1, ref1_orbit) == 0
    assert mq.check_sum_identity(REF1, ref1_orbit) < 1e-9
    assert mq.count_forbidden_patterns(ref1_orbit) == 0
    onset = ref1_orbit.monitors.monotone_onset_estimate
    assert mq.check_growth_lower_bound(REF1, ref1_orbit, onset)
    assert mq.check_y_bound(EXT, ext_orbit) == 0
    assert mq.check_decreasing_totals(EXT, ext_orbit)


def test_growth_bound_holds_from_onset(ref2_orbit, ref3_orbit):
    for p, orb in ((REF2, ref2_orbit), (REF3, ref3_orbit)):
        onset = orb.monitors.monotone_onset_estimate
        assert mq.check_growth_lower_bound(p, orb, onset)


# ------------------------------------------------------------- edge starts


def test_origin_start_is_immediate_extinction():
    orb = mq.iterate_orbit(REF1, mq.State(0.0, 0.0))
    assert orb.verdict is mq.Verdict.EXTINCTION
    assert orb.n_steps == 0
    assert list(orb.steps) == [0]


def test_start_beyond_divergence_threshold():
    orb = mq.iterate_orbit(REF1, mq.State(2e9, 1.0))
    assert orb.verdict is mq.Verdict.SURVIVAL
    assert orb.n_steps == 0
    assert orb.y_limit_estimate == pytest.approx(1.0, abs=1e-8)


def test_exhausted_budget():
    orb = mq.iterate_orbit(REF1, mq.State(2.0, 0.1), mq.OrbitConfig(max_iters=10))
    assert orb.verdict is mq.Verdict.EXHAUSTED
    assert orb.n_steps == 10


def test_coarse_recording_still_converges():
    cfg = mq.OrbitConfig(record_every=1024)
    orb = mq.iterate_orbit(REF1, mq.State(2.0, 0.1), cfg)
    assert orb.verdict is mq.Verdict.SURVIVAL
    assert abs(orb.y_limit_estimate - 1.25) < 1e-6
    # recorded grid is coarse but endpoints are always present
    assert orb.steps[0] == 0
    assert orb.steps[-1] == orb.n_steps


def test_contracting_orbit_near_origin_never_confirms_survival():
    # both increments sit inside the tie band and the adult estimator is
    # within conv_tol of alpha/mu, so only strict larval growth in the
    # confirmation window keeps this beta < mu orbit from "surviving"
    p = mq.Parameters(0.001, 0.499999, 0.5)
    orb = mq.iterate_orbit(p, mq.State(1e-6, 2e-9), mq.OrbitConfig(max_iters=5_000))
    assert orb.verdict is mq.Verdict.EXHAUSTED


def test_orbit_loop_matches_map_kernel_bit_for_bit():
    # iterate_orbit inlines the map step for speed; it must stay the
    # shared kernel's arithmetic exactly
    from mosqdyn.model import _map

    cfg = mq.OrbitConfig(max_iters=2_000)
    for p, s0 in ((REF1, mq.State(2.0, 0.1)), (REF3, mq.State(0.01, 0.2)), (EXT, mq.State(1.0, 1.0))):
        orb = mq.iterate_orbit(p, s0, cfg)
        xs, ys = _map(p, orb.xs[:-1], orb.ys[:-1])
        assert np.array_equal(xs, orb.xs[1:]) and np.array_equal(ys, orb.ys[1:])
        x, y = _map(p, float(orb.xs[-2]), float(orb.ys[-2]))
        assert (x, y) == (orb.xs[-1], orb.ys[-1])


def test_orbit_rejects_full_map_parameters():
    with pytest.raises(ValueError):
        mq.iterate_orbit(mq.Parameters(0.6, 0.5, 0.48, 0.1, 0.0), mq.State(1.0, 1.0))
    with pytest.raises(ValueError):
        mq.iterate_orbit(mq.Parameters(0.9, 0.9, 0.9), mq.State(1.0, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        mq.OrbitConfig(max_iters=0)
    with pytest.raises(ValueError):
        mq.OrbitConfig(conv_tol=0.0)
    with pytest.raises(ValueError):
        mq.OrbitConfig(div_threshold=0.5)
    with pytest.raises(ValueError):
        mq.OrbitConfig(record_every=0)
    with pytest.raises(ValueError):
        mq.OrbitConfig(confirm_window=0)


# ------------------------------------------------------------- properties

rate = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
coord = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@given(alpha=rate, mu=st.floats(min_value=0.15, max_value=1.0),
       gap=st.floats(min_value=0.05, max_value=0.9), x0=coord, y0=coord)
@settings(max_examples=30)
def test_contracting_rates_always_reach_extinction(alpha, mu, gap, x0, y0):
    beta = mu - gap
    if beta < 0.01:
        beta = 0.01
    if mu - beta < 0.01:
        return
    p = mq.Parameters(alpha, beta, mu)
    orb = mq.iterate_orbit(p, mq.State(x0, y0), mq.OrbitConfig(record_every=16))
    assert orb.verdict is mq.Verdict.EXTINCTION
    assert orb.monitors.y_bound_violations == 0
    assert mq.check_decreasing_totals(p, orb)


@given(alpha=rate, mu=st.floats(min_value=0.3, max_value=0.95),
       gap=st.floats(min_value=0.05, max_value=0.5),
       x0=st.floats(min_value=0.01, max_value=5.0),
       y0=st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=20)
def test_expanding_rates_always_reach_survival(alpha, mu, gap, x0, y0):
    p = mq.Parameters(alpha, mu + gap, mu)
    orb = mq.iterate_orbit(p, mq.State(x0, y0), mq.OrbitConfig(record_every=16))
    assert orb.verdict is mq.Verdict.SURVIVAL
    assert abs(orb.y_limit_estimate - alpha / mu) < 1e-6
    assert orb.monitors.y_bound_violations == 0
    assert orb.monitors.pattern_violations == 0


# -------------------------------------------------- checker failure modes


def test_sum_identity_requires_full_resolution(ref1_orbit):
    orb = mq.iterate_orbit(REF1, mq.State(2.0, 0.1),
                           mq.OrbitConfig(max_iters=100, record_every=2))
    with pytest.raises(ValueError):
        mq.check_sum_identity(REF1, orb)


def test_checkers_reject_mismatched_parameters(ref1_orbit):
    with pytest.raises(ValueError):
        mq.check_y_bound(REF2, ref1_orbit)
    with pytest.raises(ValueError):
        mq.check_sum_identity(REF2, ref1_orbit)


def test_pattern_scan_requires_growth_regime(ext_orbit):
    with pytest.raises(ValueError):
        mq.count_forbidden_patterns(ext_orbit)


def test_decreasing_totals_requires_contracting_regime(ref1_orbit):
    with pytest.raises(ValueError):
        mq.check_decreasing_totals(REF1, ref1_orbit)


def test_growth_bound_requires_growth_regime(ext_orbit):
    with pytest.raises(ValueError):
        mq.check_growth_lower_bound(EXT, ext_orbit, 0)


def test_growth_bound_rejects_zero_anchor_adults():
    orb = mq.iterate_orbit(REF1, mq.State(5.0, 0.0), mq.OrbitConfig(max_iters=100))
    with pytest.raises(ValueError, match="anchor"):
        mq.check_growth_lower_bound(REF1, orb, 0)


def test_growth_bound_rejects_anchor_past_end(ref1_orbit):
    with pytest.raises(ValueError, match="n_start"):
        mq.check_growth_lower_bound(REF1, ref1_orbit, ref1_orbit.n_steps + 1)


def test_y_bound_checker_detects_doctored_data(ref1_orbit):
    bad_ys = ref1_orbit.ys.copy()
    bad_ys[5] = 0.6 / 0.48 + 10.0
    doctored = dataclasses.replace(ref1_orbit, ys=bad_ys)
    assert mq.check_y_bound(REF1, doctored) >= 1
    neg_ys = ref1_orbit.ys.copy()
    neg_ys[7] = -0.5
    doctored = dataclasses.replace(ref1_orbit, ys=neg_ys)
    assert mq.check_y_bound(REF1, doctored) >= 1


def test_sum_identity_detects_doctored_data(ref1_orbit):
    bad_xs = ref1_orbit.xs.copy()
    bad_xs[10] += 1e-3
    doctored = dataclasses.replace(ref1_orbit, xs=bad_xs)
    assert mq.check_sum_identity(REF1, doctored) > 1e-4


def test_pattern_scan_detects_injected_both_down(ref1_orbit):
    bad_xs = ref1_orbit.xs.copy()
    bad_ys = ref1_orbit.ys.copy()
    bad_xs[10] = bad_xs[9] - 1.0
    bad_ys[10] = bad_ys[9] - 0.05
    doctored = dataclasses.replace(ref1_orbit, xs=bad_xs, ys=bad_ys)
    assert mq.count_forbidden_patterns(doctored) >= 1


def _hand_built_orbit(params, xs, ys):
    template = mq.iterate_orbit(params, mq.State(1.0, 1.0), mq.OrbitConfig(max_iters=5))
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    return dataclasses.replace(
        template, steps=np.arange(len(xs), dtype=np.int64), xs=xs, ys=ys)


def test_pattern_scan_flags_persistent_one_sided_motion():
    # x strictly up and y strictly down on every step is forbidden as a
    # persistent regime; a window exhibiting it on >= 2 steps is flagged
    orb = _hand_built_orbit(REF1, [1.0, 1.1, 1.2, 1.3, 1.4],
                            [1.0, 0.9, 0.8, 0.7, 0.6])
    assert mq.count_forbidden_patterns(orb) == 1
    orb = _hand_built_orbit(REF1, [1.4, 1.3, 1.2, 1.1, 1.0],
                            [0.6, 0.7, 0.8, 0.9, 1.0])
    assert mq.count_forbidden_patterns(orb) == 1


def test_pattern_scan_does_not_flag_honest_alternation():
    # strict alternation cannot persist over two or more consecutive step
    # pairs (a step cannot be both ascending and descending), so the scan
    # keeps alternating transients out of the violation count
    orb = _hand_built_orbit(REF1, [1.0, 1.2, 1.1, 1.3, 1.2],
                            [1.0, 0.8, 0.9, 0.7, 0.8])
    assert mq.count_forbidden_patterns(orb) == 0


def test_online_persistence_flags_gated_by_exhaustion():
    # a truncated window cannot certify a forever-statement: from this
    # start the first few steps are all (x down, y up), which the offline
    # diagnostic reports on a window cut there but the online monitor
    # must not count because the run hit the budget before any verdict
    orb = mq.iterate_orbit(REF1, mq.State(5.0, 0.01), mq.OrbitConfig(max_iters=4))
    assert orb.verdict is mq.Verdict.EXHAUSTED
    assert orb.monitors.pattern_violations == 0
    assert mq.count_forbidden_patterns(orb) == 1


# ----------------------------------------------------------- raw full map


def test_general_iteration_matches_single_steps():
    p = mq.Parameters(0.6, 0.5, 0.48, 0.1, 0.05)
    ns, xs, ys = mq.iterate_general(p, mq.State(1.0, 1.0), 20)
    s = mq.State(1.0, 1.0)
    for i, n in enumerate(ns):
        assert xs[i] == s.x and ys[i] == s.y
        if n < 20:
            s = mq.step(p, s)
    assert len(ns) == 21


def test_general_iteration_stops_outside_quadrant():
    p = mq.Parameters(0.5, 0.5, 0.5, 2.0, 0.0)
    ns, xs, ys = mq.iterate_general(p, mq.State(1.0, 0.1), 100)
    assert ns[-1] == 1
    assert xs[-1] < 0.0


def test_general_iteration_argument_validation():
    p = mq.Parameters(0.6, 0.5, 0.48)
    with pytest.raises(ValueError):
        mq.iterate_general(p, mq.State(1.0, 1.0), -1)
    with pytest.raises(ValueError):
        mq.iterate_general(p, mq.State(1.0, 1.0), 10, record_every=0)


# ------------------------------------------------------------------- CSV


def test_csv_round_trip(tmp_path):
    orb = mq.iterate_orbit(REF1, mq.State(2.0, 0.1), mq.OrbitConfig(max_iters=50))
    text = mq.orbit_to_csv(orb)
    lines = text.strip().split("\n")
    assert lines[0] == "n,x,y"
    assert len(lines) == len(orb.steps) + 1
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0].astype(np.int64), orb.steps)
    assert np.array_equal(data[:, 1], orb.xs)  # %.16e round-trips exactly
    assert np.array_equal(data[:, 2], orb.ys)

    path = tmp_path / "orbit.csv"
    mq.write_orbit_csv(orb, path)
    assert path.read_text() == text
