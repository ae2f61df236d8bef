"""Acceptance battery.

Six end-to-end criteria, each printing a single PASS/FAIL line (run with
pytest -s to see them) before asserting.  Randomized criteria use one
frozen seed so the battery is reproducible; tolerances are part of the
contract and must not be loosened.
"""

import math
import time

import numpy as np
import pytest

import mosqdyn as mq
from mosqdyn.model import _field, _map
from orbit_oracles import check_sum_identity, check_y_bound, count_forbidden_patterns

ACCEPT_SEED = 20260815

REF1 = mq.Parameters(0.6, 0.5, 0.48)
REF2 = mq.Parameters(0.4, 0.35, 0.3)


def _draw_rates(rng):
    while True:
        a, b, m = 1.0 - rng.random(3)
        if abs(b - m) > 0.01:
            return float(a), float(b), float(m)


def _emit(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c1_dichotomy_randomized():
    """100 random admissible rate triples with |beta - mu| > 0.01 and
    random starts in [0,10]^2: verdict extinction iff beta < mu, survival
    iff beta > mu, survival adult limits within 1e-6 of alpha/mu, zero
    monitor violations, under 60 s total."""
    rng = np.random.default_rng(ACCEPT_SEED)
    cfg = mq.OrbitConfig(max_iters=1_000_000, record_every=32)
    t0 = time.perf_counter()
    bad = []
    total_steps = 0
    worst = 0
    for i in range(100):
        a, b, m = _draw_rates(rng)
        p = mq.Parameters(a, b, m)
        s0 = mq.State(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0)))
        orb = mq.iterate_orbit(p, s0, cfg)
        expected = mq.Verdict.EXTINCTION if b < m else mq.Verdict.SURVIVAL
        ok = orb.verdict is expected
        if orb.verdict is mq.Verdict.SURVIVAL:
            ok = ok and abs(orb.y_limit_estimate - a / m) < 1e-6
        ok = (ok and orb.monitors.y_bound_violations == 0
              and orb.monitors.pattern_violations == 0)
        total_steps += orb.n_steps
        worst = max(worst, orb.n_steps)
        if not ok:
            bad.append((i, a, b, m, orb.verdict.value))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _emit("C1 dichotomy sweep", ok,
          f"100 orbits, {total_steps} steps, worst {worst}, {elapsed:.2f} s, "
          f"{len(bad)} mismatches")
    assert not bad, f"verdict mismatches: {bad}"
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f} s"


def test_c2_reference_configurations():
    """The two admissible reference configurations reach survival with
    adult limits 1.25 and 4/3 within 1e-6 and zero bound/pattern
    violations (online and offline); the equal-rates configuration is
    classified nonhyperbolic."""
    cases = [
        (REF1, mq.State(2.0, 0.1), 1.25),
        (REF2, mq.State(0.5, 2.0), 4.0 / 3.0),
    ]
    bad = []
    details = []
    for p, s0, target in cases:
        orb = mq.iterate_orbit(p, s0)
        checks = (
            orb.verdict is mq.Verdict.SURVIVAL
            and abs(orb.y_limit_estimate - target) < 1e-6
            and orb.monitors.y_bound_violations == 0
            and orb.monitors.pattern_violations == 0
            and check_y_bound(orb) == 0
            and count_forbidden_patterns(orb) == 0
        )
        details.append(f"beta={p.beta} limit_err={abs(orb.y_limit_estimate - target):.2e}")
        if not checks:
            bad.append((p.beta, p.mu, orb.verdict.value))
    cls = mq.classify_origin(mq.Parameters(0.9, 0.9, 0.9)).classification
    nonhyp = cls is mq.Classification.NONHYPERBOLIC
    ok = not bad and nonhyp
    _emit("C2 reference configurations", ok,
          "; ".join(details) + f"; equal-rates classification={cls.value}")
    assert not bad, f"configuration failures: {bad}"
    assert nonhyp, f"equal rates must be nonhyperbolic, got {cls.value}"


def test_c3_spectral_agreement():
    """10^4 random draws: closed-form eigenvalues match numpy's solver to
    1e-12, and the classification is attracting exactly for beta < mu and
    saddle exactly for beta > mu."""
    rng = np.random.default_rng(ACCEPT_SEED)
    n = 10_000
    a = 1.0 - rng.random(n)
    b = 1.0 - rng.random(n)
    m = 1.0 - rng.random(n)
    keep = np.abs(b - m) > 0.01
    a, b, m = a[keep], b[keep], m[keep]
    excluded = n - int(keep.sum())

    disc = np.sqrt((a - m) ** 2 + 4.0 * a * b)
    l1 = (2.0 - a - m + disc) / 2.0
    l2 = (2.0 - a - m - disc) / 2.0
    jac = np.zeros((len(a), 2, 2))
    jac[:, 0, 0] = 1.0 - a
    jac[:, 0, 1] = b
    jac[:, 1, 0] = a
    jac[:, 1, 1] = 1.0 - m
    numeric = np.sort(np.linalg.eigvals(jac).real, axis=1)[:, ::-1]
    eig_err = float(np.max(np.abs(np.stack([l1, l2], axis=1) - numeric)))

    mismatches = 0
    for ai, bi, mi in zip(a, b, m):
        rep = mq.classify_origin(mq.Parameters(float(ai), float(bi), float(mi)))
        want = (mq.Classification.ATTRACTING if bi < mi else mq.Classification.SADDLE)
        if rep.classification is not want:
            mismatches += 1

    ok = eig_err <= 1e-12 and mismatches == 0
    _emit("C3 spectral agreement", ok,
          f"{len(a)} draws ({excluded} near-equal-rate excluded), "
          f"eig_err={eig_err:.3e}, {mismatches} classification mismatches")
    assert eig_err <= 1e-12
    assert mismatches == 0


def test_c4_periodicity_exclusion():
    """Certificate signs on 10^4 draws; period 2..8 interval scans with
    zero spurious roots on the reference configurations and 100 draws;
    500x500 planar grid over [0,5]^2 with zero non-origin two-cycles."""
    rng = np.random.default_rng(ACCEPT_SEED)
    n = 10_000
    sign_failures = 0
    for _ in range(n):
        a, b, m = _draw_rates(rng)
        qa = (1.0 - b) * (b - 2.0) + (b - m + 1.0) * (b - m)
        qb = (b - 2.0) * (b - m - a + 2.0) - b * (b - m)
        qc = (b - m + 1.0) * (a + m - b - 2.0) + b * (b - 1.0)
        if not (qa + qb + qc < 0.0 and qb < 0.0 and qc < 0.0):
            sign_failures += 1

    ref3 = mq.Parameters(0.9, 0.9, 0.88)
    scan_configs = [REF1, REF2, ref3]
    scan_configs += [mq.Parameters(*_draw_rates(rng)) for _ in range(100)]
    scan_errors = []
    for p in scan_configs:
        try:
            mq.scan_periodic_points(p)
            if not mq.two_cycle_certificate(p).signs_ok:
                scan_errors.append((p.alpha, p.beta, p.mu, "signs"))
        except mq.VerificationError as exc:
            scan_errors.append((p.alpha, p.beta, p.mu, str(exc)))

    grid_counts = []
    for p in (REF1, REF2, ref3):
        grid_counts.append(mq.count_two_cycles_on_grid(p))
    for _ in range(10):
        p = mq.Parameters(*_draw_rates(rng))
        grid_counts.append(mq.count_two_cycles_on_grid(p))

    ok = sign_failures == 0 and not scan_errors and sum(grid_counts) == 0
    _emit("C4 periodicity exclusion", ok,
          f"signs {n - sign_failures}/{n}, {len(scan_configs)} scans "
          f"({len(scan_errors)} errors), "
          f"grid cells with cycles: {sum(grid_counts)}")
    assert sign_failures == 0
    assert not scan_errors, scan_errors
    assert sum(grid_counts) == 0


def test_c5_algebraic_identities():
    """Total-increment identity residual <= 1e-9 along 1000-step orbits;
    the one-generation step is the map kernel and the first step of the
    full-map iteration bit for bit; interval-map endpoint identities to
    1e-14."""
    rng = np.random.default_rng(ACCEPT_SEED)

    cfg = mq.OrbitConfig(max_iters=1000, record_every=1)
    orbit_params = [REF1, REF2, mq.Parameters(0.9, 0.9, 0.88)]
    orbit_params += [mq.Parameters(*_draw_rates(rng)) for _ in range(20)]
    worst_sum = 0.0
    for p in orbit_params:
        s0 = mq.State(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0)))
        orb = mq.iterate_orbit(p, s0, cfg)
        worst_sum = max(worst_sum, check_sum_identity(orb))
        worst_sum = max(worst_sum, orb.monitors.sum_identity_max_err)

    # the Euler link, map = identity + field, is proved in
    # tests/test_proofs.py; here the step must be the kernel orbits run
    step_failures = 0
    for _ in range(10_000):
        a, b, m = _draw_rates(rng)
        p = mq.Parameters(a, b, m,
                          float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.1)))
        s = mq.State(float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.0, 100.0)))
        image = _map(p, s.x, s.y)
        if min(image) < 0.0:
            # heavy-mortality draws exit the quadrant; the step must say so
            try:
                mq.step(p, s)
                step_failures += 1
            except ValueError:
                pass
            continue
        t = mq.step(p, s)
        _, xs, ys = mq.iterate_general(p, s, 1)
        if (t.x, t.y) != image or (xs[1], ys[1]) != image:
            step_failures += 1

    worst_t0 = 0.0
    worst_t1 = 0.0
    for _ in range(10_000):
        a, b, m = _draw_rates(rng)
        p = mq.Parameters(a, b, m)
        worst_t0 = max(worst_t0, abs(mq.interval_map(p, 0.0) - b / (b - m + 1.0)))
        worst_t1 = max(worst_t1, abs(mq.interval_map(p, 1.0) - (2.0 - a) / 2.0))

    ok = worst_sum <= 1e-9 and step_failures == 0 and worst_t0 <= 1e-14 and worst_t1 <= 1e-14
    _emit("C5 algebraic identities", ok,
          f"sum_err={worst_sum:.3e}, step mismatches={step_failures}, "
          f"endpoint errs=({worst_t0:.1e}, {worst_t1:.1e})")
    assert worst_sum <= 1e-9
    assert step_failures == 0
    assert worst_t0 <= 1e-14 and worst_t1 <= 1e-14


def test_c6_continuous_crosscheck():
    """The reference integrator shows 4th-order step convergence; below
    threshold the flow reaches the origin within 1e-6 by t=500; above
    threshold with density dependence it reaches the closed-form
    equilibrium within 1e-5, whose residual is below 1e-9."""
    p_order = mq.Parameters(0.5, 0.3, 0.6)
    s0 = mq.State(1.0, 1.0)
    ref = mq.integrate_flow(p_order, s0, mq.OdeConfig(step=0.025, t_end=5.0)).final
    c1 = mq.integrate_flow(p_order, s0, mq.OdeConfig(step=0.1, t_end=5.0)).final
    c2 = mq.integrate_flow(p_order, s0, mq.OdeConfig(step=0.05, t_end=5.0)).final
    e1 = math.hypot(c1[0] - ref[0], c1[1] - ref[1])
    e2 = math.hypot(c2[0] - ref[0], c2[1] - ref[1])
    ratio = e1 / e2
    order_ok = 12.0 < ratio < 22.0

    p_die = mq.Parameters(0.5, 0.3, 0.6, 0.05, 0.05)
    assert mq.offspring_number(p_die) <= 1.0
    fx, fy = mq.integrate_flow(p_die, mq.State(2.0, 1.0)).final
    die_err = max(abs(fx), abs(fy))
    die_ok = die_err < 1e-6

    p_grow = mq.Parameters(0.6, 0.8, 0.5, 0.1, 0.05)
    eq = mq.positive_equilibrium(p_grow)
    gx, gy = mq.integrate_flow(p_grow, mq.State(1.0, 1.0)).final
    grow_err = max(abs(gx - eq.x), abs(gy - eq.y))
    res = max(abs(v) for v in _field(p_grow, eq.x, eq.y))
    grow_ok = grow_err < 1e-5 and res < 1e-9

    ok = order_ok and die_ok and grow_ok
    _emit("C6 continuous cross-check", ok,
          f"order ratio={ratio:.2f}, extinction err={die_err:.2e}, "
          f"equilibrium err={grow_err:.2e}, residual={res:.2e}")
    assert order_ok, f"step-halving error ratio {ratio:.2f} outside (12, 22)"
    assert die_ok
    assert grow_ok
