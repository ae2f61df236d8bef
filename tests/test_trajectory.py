"""Orbit engine: verdicts, monitors, offline checkers, CSV output.

Step counts are deliberately not frozen (they are detector details, not
contract); limits, verdicts, and monitor counts are.  The doctored-orbit
tests feed corrupted data to the offline checkers to prove they can
actually fail.
"""

import dataclasses
import io
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mosqdyn as mq
from mosqdyn.trajectory import _in_both_up_region

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
    assert orb.ys[-1] == pytest.approx(0.6 / 0.48, abs=1e-3)
    est = orb.ys[-1] + (0.6 / 0.48) / (1.0 + orb.xs[-1])
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
    assert orb.xs[-1] < 1e-8
    assert orb.ys[-1] < 1e-8
    assert orb.y_limit_estimate == orb.ys[-1]
    assert orb.monitors.pattern_violations == 0
    assert orb.monitors.y_bound_violations == 0


def test_offline_checkers_agree_on_real_orbits(ref1_orbit, ext_orbit):
    assert mq.check_y_bound(ref1_orbit) == 0
    assert mq.check_sum_identity(ref1_orbit) < 1e-9
    assert mq.count_forbidden_patterns(ref1_orbit) == 0
    onset = ref1_orbit.monitors.monotone_onset_estimate
    assert mq.check_growth_lower_bound(ref1_orbit, onset)
    assert mq.check_y_bound(ext_orbit) == 0
    assert mq.check_decreasing_totals(ext_orbit)


def test_growth_bound_holds_from_onset(ref2_orbit, ref3_orbit):
    for p, orb in ((REF2, ref2_orbit), (REF3, ref3_orbit)):
        onset = orb.monitors.monotone_onset_estimate
        assert mq.check_growth_lower_bound(orb, onset)


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


def test_budget_far_beyond_memory_gives_the_default_budget_orbit(ref1_orbit):
    # recording grows with the rows kept, so an unreachable budget costs
    # nothing once the orbit decides
    orb = mq.iterate_orbit(REF1, mq.State(2.0, 0.1), mq.OrbitConfig(max_iters=10**15))
    assert (orb.verdict, orb.n_steps) == (ref1_orbit.verdict, ref1_orbit.n_steps)
    for got, want in ((orb.steps, ref1_orbit.steps), (orb.xs, ref1_orbit.xs), (orb.ys, ref1_orbit.ys)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_recording_memory_does_not_scale_with_budget():
    import tracemalloc

    tracemalloc.start()
    try:
        orb = mq.iterate_orbit(EXT, mq.State(1.0, 1.0), mq.OrbitConfig(max_iters=10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orb.verdict is mq.Verdict.EXTINCTION
    assert peak < 1_000_000


def test_exhausted_budget():
    orb = mq.iterate_orbit(REF1, mq.State(2.0, 0.1), mq.OrbitConfig(max_iters=10))
    assert orb.verdict is mq.Verdict.EXHAUSTED
    assert orb.n_steps == 10


def test_state_frozen_by_rounding_ends_exhausted():
    # one step takes (5e-324, 0) to (0, 5e-324), where beta*y rounds to 0
    # and (1 - mu)*y rounds back to y; the next step returns its input
    # bit for bit, and so would every later one
    for every in (1, 16):
        orb = mq.iterate_orbit(REF1, mq.State(5e-324, 0.0), mq.OrbitConfig(record_every=every))
        assert (orb.verdict, orb.n_steps) == (mq.Verdict.EXHAUSTED, 2)
        assert (orb.xs[-1], orb.ys[-1]) == (0.0, 5e-324)
        # x never grew past x0, so the limit reported is the adult count
        assert orb.y_limit_estimate == 5e-324
        assert orb.monitors.sign_census.ties == 2
    assert list(orb.steps) == [0, 2]


def test_exhausted_orbit_that_has_not_grown_reports_the_adult_count():
    # the first step from (5, 0) lowers x; the estimator's alpha/mu would
    # claim a limit this orbit has shown nothing of
    orb = mq.iterate_orbit(REF1, mq.State(5.0, 0.0), mq.OrbitConfig(max_iters=1))
    assert (orb.verdict, orb.n_steps) == (mq.Verdict.EXHAUSTED, 1)
    assert orb.xs[-1] < 5.0
    assert orb.y_limit_estimate == orb.ys[-1]


@pytest.mark.parametrize("p, s0", [
    (mq.Parameters(0.9, 0.9, 0.88), (5e-324, 0.0)),
    (mq.Parameters(1.0, 0.6, 0.5), (5e-324, 0.0)),
    (mq.Parameters(1.0, 0.6, 0.5), (0.0, 5e-324)),
])
def test_float_two_cycle_ends_exhausted(p, s0):
    # rounding swaps (5e-324, 0) and (0, 5e-324) forever; step 2 returns
    # the input of step 1 bit for bit, so no later step can differ
    for every in (1, 16):
        orb = mq.iterate_orbit(p, mq.State(*s0), mq.OrbitConfig(record_every=every))
        assert (orb.verdict, orb.n_steps) == (mq.Verdict.EXHAUSTED, 2)
        assert (orb.xs[-1], orb.ys[-1]) == s0
        assert orb.y_limit_estimate == s0[1]
    assert list(orb.steps) == [0, 2]
    orb = mq.iterate_orbit(p, mq.State(*s0))
    assert list(orb.steps) == [0, 1, 2]
    assert (orb.xs[1], orb.ys[1]) == s0[::-1]


def test_exhausted_growth_orbit_reports_the_adult_count():
    # x grows past x0 yet stays near 1e-300; the estimator there is
    # alpha/mu to rounding, a limit this orbit has shown nothing of
    s0 = mq.State(1e-300, 0.0)
    orb = mq.iterate_orbit(mq.Parameters(0.6, 0.3001, 0.3), s0, mq.OrbitConfig(max_iters=20_000))
    assert (orb.verdict, orb.n_steps) == (mq.Verdict.EXHAUSTED, 20_000)
    assert orb.xs[-1] > s0.x
    assert orb.y_limit_estimate == orb.ys[-1] < 1e-250


def test_coarse_recording_still_converges():
    cfg = mq.OrbitConfig(record_every=1024)
    orb = mq.iterate_orbit(REF1, mq.State(2.0, 0.1), cfg)
    assert orb.verdict is mq.Verdict.SURVIVAL
    assert abs(orb.y_limit_estimate - 1.25) < 1e-6
    # recorded grid is coarse but endpoints are always present
    assert orb.steps[0] == 0
    assert orb.steps[-1] == orb.n_steps


def stride_cases():
    yield REF1, mq.State(2.0, 0.1), mq.OrbitConfig()
    yield REF2, mq.State(0.5, 2.0), mq.OrbitConfig()
    yield REF3, mq.State(0.01, 0.2), mq.OrbitConfig()
    yield EXT, mq.State(1.0, 1.0), mq.OrbitConfig()
    for contracting in (True, False):
        for p, s0 in seeded_sets(13, 10, contracting):
            yield p, s0, mq.OrbitConfig(max_iters=20_000)
    yield mq.Parameters(0.6, 0.300001, 0.3), mq.State(1e-8, 0.0), mq.OrbitConfig(max_iters=5_000)


def test_recording_stride_only_thins_the_rows():
    # the stride picks the rows kept and nothing else: verdict, step
    # count, estimate and monitors are those of the full recording
    for p, s0, cfg in stride_cases():
        for stop in (False, True):
            full = None
            for every in (1, 16, 32, 64):
                orb = mq.iterate_orbit(p, s0, dataclasses.replace(cfg, record_every=every), stop_at_certificate=stop)
                if full is None:
                    full = orb
                    assert np.array_equal(full.steps, np.arange(full.n_steps + 1))
                case = (p, s0, every, stop)
                assert (orb.verdict, orb.n_steps) == (full.verdict, full.n_steps), case
                assert orb.y_limit_estimate.hex() == full.y_limit_estimate.hex(), case
                assert dataclasses.asdict(orb.monitors) == dataclasses.asdict(full.monitors), case
                kept = (full.steps % every == 0) | (full.steps == full.n_steps)
                assert np.array_equal(orb.steps, full.steps[kept]), case
                assert np.array_equal(orb.xs, full.xs[kept]) and np.array_equal(orb.ys, full.ys[kept]), case


def test_overflowed_state_ends_the_run():
    # beta*y + x overflows on the first step; the run ends exhausted at
    # that state, and the step's residual, inf - inf, shows as nan
    orb = mq.iterate_orbit(mq.Parameters(0.5, 0.9, 1.0), mq.State(1.7e308, 1.7e308), mq.OrbitConfig(max_iters=5))
    assert (orb.verdict, orb.n_steps) == (mq.Verdict.EXHAUSTED, 1)
    assert list(orb.steps) == [0, 1] and (orb.xs[1], orb.ys[1]) == (math.inf, 0.5)
    assert orb.y_limit_estimate == 0.5
    assert math.isnan(orb.monitors.sum_identity_max_err)
    assert sum(dataclasses.astuple(orb.monitors.sign_census)) == 1


def test_contracting_orbit_near_origin_never_confirms_survival():
    # both increments sit inside the tie band and the adult estimator is
    # within conv_tol of alpha/mu, so only strict larval growth in the
    # confirmation window keeps this beta < mu orbit from "surviving"
    p = mq.Parameters(0.001, 0.499999, 0.5)
    orb = mq.iterate_orbit(p, mq.State(1e-6, 2e-9), mq.OrbitConfig(max_iters=5_000))
    assert orb.verdict is mq.Verdict.EXHAUSTED


def test_growth_orbit_in_the_extinction_box_completes_its_window(monkeypatch):
    # after one step this beta > mu orbit sits inside the extinction box
    # and also completes a one-step survival window; the box decides
    # only beta < mu, so the window's survival verdict stands
    monkeypatch.setattr(mq.trajectory, "CONFIRM_STEPS", 1)
    y0 = 1e-8 + 2e-15
    em = 0.5 * y0 - 5e-15
    orb = mq.iterate_orbit(mq.Parameters(1.0, 0.6, 0.5), mq.State(em / (1.0 - em), y0))
    assert (orb.verdict, orb.n_steps) == (mq.Verdict.SURVIVAL, 1)
    assert orb.xs[-1] < 1e-8 and orb.ys[-1] < 1e-8


def test_escaping_growth_orbit_has_no_pattern_violations():
    # two (x up, y down) steps carry this orbit past the escape
    # threshold; one-sided motion over a finite run violates nothing
    orb = mq.iterate_orbit(REF1, mq.State(999999940.0, 100.0))
    assert (orb.verdict, orb.n_steps) == (mq.Verdict.SURVIVAL, 2)
    assert orb.monitors.sign_census.x_up_y_down == 2
    assert orb.monitors.pattern_violations == 0
    assert mq.count_forbidden_patterns(orb) == 0


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
        mq.OrbitConfig(div_threshold=math.inf)
    with pytest.raises(ValueError):
        mq.OrbitConfig(div_threshold=math.nan)
    with pytest.raises(ValueError):
        mq.OrbitConfig(record_every=0)


# ---------------------------------------------------- survival certificate


def in_both_up_region_exact(alpha, beta, mu, x, y):
    """mu*y*(1+x) < alpha*x < beta*y*(1+x) in rational arithmetic."""
    a, b, m, x, y = (F(v) for v in (alpha, beta, mu, x, y))
    return m * y * (1 + x) < a * x < b * y * (1 + x)


admissible_rate = st.floats(min_value=5e-324, max_value=1.0)
larval = st.one_of(
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormal
    st.floats(min_value=1e-300, max_value=1e-8),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e11, max_value=1e13),
)


@st.composite
def rates_and_state(draw):
    alpha, mu = draw(admissible_rate), draw(admissible_rate)
    beta = draw(st.floats(min_value=5e-324, max_value=2.0))
    x = draw(larval)
    # adult counts on either edge of the region, a few ulps either side,
    # where the floats decide the answer, or anywhere at the same scale
    edge = min(alpha * (x / (1.0 + x)) / draw(st.sampled_from([beta, mu])), 1e300)
    y = edge
    for _ in range(draw(st.integers(0, 3))):
        y = math.nextafter(y, math.inf if draw(st.booleans()) else 0.0)
    y = draw(st.one_of(st.just(y), st.floats(min_value=0.0, max_value=max(2.0 * edge, 5e-324))))
    return alpha, beta, mu, x, y


@given(rates_and_state())
@settings(max_examples=300)
def test_region_test_agrees_with_rational_arithmetic(case):
    assert _in_both_up_region(*case) == in_both_up_region_exact(*case)


def test_region_test_at_the_edges():
    # on either edge one inequality is an equality: outside the open region
    assert not _in_both_up_region(0.5, 0.5, 0.25, 1.0, 0.5)  # alpha*x = beta*y*(1+x)
    assert not _in_both_up_region(0.5, 1.0, 0.25, 1.0, 1.0)  # alpha*x = mu*y*(1+x)
    assert _in_both_up_region(0.5, 1.0, 0.25, 1.0, 0.5)
    assert not _in_both_up_region(0.5, 1.0, 0.25, 0.0, 0.0)
    assert not _in_both_up_region(0.5, 1.0, 0.25, math.inf, 1.0)
    assert not _in_both_up_region(0.5, 1.0, 0.25, 1.0, math.inf)
    # 5e-324 is 2**-1074; the rational route sees it whole
    assert _in_both_up_region(1.0, 1.0, 0.5, 5e-324, 5e-324) == in_both_up_region_exact(1.0, 1.0, 0.5, 5e-324, 5e-324)


def test_certificate_skips_an_overflowed_step():
    # beta*y overflows on the first step while both increments are
    # positive; inf is no state to certify, nor one to escape from
    p = mq.Parameters(1.0, 1.7e308, 0.1)
    cfg = mq.OrbitConfig(max_iters=3)
    orb = mq.iterate_orbit(p, mq.State(1e8, 2.0), cfg, stop_at_certificate=True)
    assert orb.xs[1] == math.inf and orb.monitors.sign_census.both_up == 1
    assert (orb.verdict, orb.n_steps) == (mq.Verdict.EXHAUSTED, 1)


def seeded_sets(seed, n, contracting):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a, b, m = 1.0 - rng.random(3)
        if (b < m) != contracting:
            b, m = m, b
        if b == m:
            continue
        scale = 10.0 ** rng.integers(-12, 2)
        yield mq.Parameters(float(a), float(b), float(m)), mq.State(*(scale * rng.uniform(0.0, 10.0, 2)))


def test_contracting_orbits_never_enter_the_region():
    # dx + dy = (beta - mu) y, so no state of a beta < mu orbit can have
    # both increments positive; checked on every computed state
    cfg = mq.OrbitConfig(max_iters=20_000)
    for p, s0 in seeded_sets(11, 300, contracting=True):
        orb = mq.iterate_orbit(p, s0, cfg, stop_at_certificate=True)
        assert orb.verdict is not mq.Verdict.SURVIVAL, (p, s0)
        assert not any(_in_both_up_region(p.alpha, p.beta, p.mu, float(x), float(y))
                       for x, y in zip(orb.xs, orb.ys)), (p, s0)


def test_growth_orbits_stop_at_the_certificate():
    for p, s0 in seeded_sets(12, 300, contracting=False):
        for every in (1, 16):
            orb = mq.iterate_orbit(p, s0, mq.OrbitConfig(record_every=every), stop_at_certificate=True)
            assert orb.verdict is mq.Verdict.SURVIVAL, (p, s0)
            x, y = float(orb.xs[-1]), float(orb.ys[-1])
            assert orb.steps[-1] == orb.n_steps
            # the escape rule may come first; otherwise the last state is
            # certified and the limit reported is the estimator there
            assert x > 1e9 or in_both_up_region_exact(p.alpha, p.beta, p.mu, x, y), (p, s0)
            assert orb.y_limit_estimate == y + (p.alpha / p.mu) / (1.0 + x)
            assert orb.monitors.pattern_violations == 0 and orb.monitors.y_bound_violations == 0


def test_certificate_stops_only_when_asked(ref1_orbit):
    cert = mq.iterate_orbit(REF1, mq.State(2.0, 0.1), stop_at_certificate=True)
    assert (cert.verdict, cert.n_steps) == (mq.Verdict.SURVIVAL, 5)
    # the first five steps are those of the full orbit, bit for bit
    assert np.array_equal(cert.xs, ref1_orbit.xs[:6]) and np.array_equal(cert.ys, ref1_orbit.ys[:6])
    assert ref1_orbit.n_steps > 100_000


def test_tie_band_orbit_is_certified():
    # the increments never clear the 1e-14 tie band together, so the
    # estimator window never fills; the exact region test decides the
    # orbit on a tie step, at step 8
    p, s0 = mq.Parameters(0.6, 0.300001, 0.3), mq.State(1e-8, 0.0)
    assert mq.iterate_orbit(p, s0, mq.OrbitConfig(max_iters=5_000)).verdict is mq.Verdict.EXHAUSTED
    orb = mq.iterate_orbit(p, s0, stop_at_certificate=True)
    assert (orb.verdict, orb.n_steps) == (mq.Verdict.SURVIVAL, 8)
    census = orb.monitors.sign_census
    assert census.both_up == 0 and census.ties > 0


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
    assert mq.check_decreasing_totals(orb)


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
        mq.check_sum_identity(orb)


def test_pattern_scan_requires_growth_regime(ext_orbit):
    with pytest.raises(ValueError):
        mq.count_forbidden_patterns(ext_orbit)


def test_decreasing_totals_requires_contracting_regime(ref1_orbit):
    with pytest.raises(ValueError):
        mq.check_decreasing_totals(ref1_orbit)


def test_growth_bound_requires_growth_regime(ext_orbit):
    with pytest.raises(ValueError):
        mq.check_growth_lower_bound(ext_orbit, 0)


def test_growth_bound_rejects_zero_anchor_adults():
    orb = mq.iterate_orbit(REF1, mq.State(5.0, 0.0), mq.OrbitConfig(max_iters=100))
    with pytest.raises(ValueError, match="anchor"):
        mq.check_growth_lower_bound(orb, 0)


def test_growth_bound_is_vacuous_without_a_later_step():
    orb = mq.iterate_orbit(REF1, mq.State(2e9, 0.0))
    assert (orb.verdict, orb.n_steps) == (mq.Verdict.SURVIVAL, 0)
    assert mq.check_growth_lower_bound(orb, 0)


def test_growth_bound_rejects_anchor_past_end(ref1_orbit):
    with pytest.raises(ValueError, match="n_start"):
        mq.check_growth_lower_bound(ref1_orbit, ref1_orbit.n_steps + 1)


def test_y_bound_checker_detects_doctored_data(ref1_orbit):
    bad_ys = ref1_orbit.ys.copy()
    bad_ys[5] = 0.6 / 0.48 + 10.0
    doctored = dataclasses.replace(ref1_orbit, ys=bad_ys)
    assert mq.check_y_bound(doctored) >= 1
    neg_ys = ref1_orbit.ys.copy()
    neg_ys[7] = -0.5
    doctored = dataclasses.replace(ref1_orbit, ys=neg_ys)
    assert mq.check_y_bound(doctored) >= 1


def test_sum_identity_detects_doctored_data(ref1_orbit):
    bad_xs = ref1_orbit.xs.copy()
    bad_xs[10] += 1e-3
    doctored = dataclasses.replace(ref1_orbit, xs=bad_xs)
    assert mq.check_sum_identity(doctored) > 1e-4


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


def test_pattern_scan_does_not_flag_honest_alternation():
    # strict alternation cannot persist over two or more consecutive step
    # pairs (a step cannot be both ascending and descending), so the scan
    # keeps alternating transients out of the violation count
    orb = _hand_built_orbit(REF1, [1.0, 1.2, 1.1, 1.3, 1.2],
                            [1.0, 0.8, 0.9, 0.7, 0.8])
    assert mq.count_forbidden_patterns(orb) == 0


def test_sign_census_partitions_the_steps(ref1_orbit, ref2_orbit, ref3_orbit, ext_orbit):
    # the online monitors read pattern (a) off the census, which is
    # exact only if every step lands in exactly one class
    orbits = [ref1_orbit, ref2_orbit, ref3_orbit, ext_orbit]
    rng = np.random.default_rng(2024)
    for _ in range(20):
        p = mq.Parameters(*(1.0 - rng.random(3)))
        s0 = mq.State(*rng.uniform(0.0, 10.0, 2))
        for cfg in (mq.OrbitConfig(max_iters=20_000, record_every=16), mq.OrbitConfig(max_iters=7)):
            orbits.append(mq.iterate_orbit(p, s0, cfg))
    assert any(orb.verdict is mq.Verdict.EXHAUSTED for orb in orbits)
    for orb in orbits:
        c = orb.monitors.sign_census
        assert c.both_up + c.both_down + c.x_up_y_down + c.x_down_y_up + c.ties == orb.n_steps


def test_online_patterns_match_the_offline_scan_on_completed_orbits(ref1_orbit, ref2_orbit, ref3_orbit):
    orbits = [ref1_orbit, ref2_orbit, ref3_orbit]
    # growth orbits started this close to the origin fall into the
    # extinction box after two and three (x down, y up) steps; the box
    # decides only beta < mu, so they go on to survive, with no pattern
    # on either route
    for p in (mq.Parameters(0.3, 0.25, 0.1), mq.Parameters(0.2, 0.2, 0.15)):
        orbits.append(mq.iterate_orbit(p, mq.State(1.5e-8, 0.0)))
    rng = np.random.default_rng(99)
    for _ in range(10):
        mu = float(rng.uniform(0.3, 0.9))
        p = mq.Parameters(float(rng.uniform(0.05, 1.0)), mu + float(rng.uniform(0.05, 0.5)), mu)
        orbits.append(mq.iterate_orbit(p, mq.State(*rng.uniform(0.0, 5.0, 2))))
    assert [(orb.verdict, orb.monitors.pattern_violations) for orb in orbits[3:5]] == [(mq.Verdict.SURVIVAL, 0)] * 2
    for orb in orbits:
        assert orb.verdict is not mq.Verdict.EXHAUSTED
        assert orb.monitors.pattern_violations == mq.count_forbidden_patterns(orb)


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


def test_csv_round_trip():
    orb = mq.iterate_orbit(REF1, mq.State(2.0, 0.1), mq.OrbitConfig(max_iters=50))
    text = mq.orbit_to_csv(orb)
    lines = text.strip().split("\n")
    assert lines[0] == "n,x,y"
    assert len(lines) == len(orb.steps) + 1
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0].astype(np.int64), orb.steps)
    assert np.array_equal(data[:, 1], orb.xs)  # %.16e round-trips exactly
    assert np.array_equal(data[:, 2], orb.ys)
