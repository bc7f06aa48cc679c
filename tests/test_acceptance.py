"""End-to-end acceptance gate: one test per criterion, each prints PASS/FAIL.

Every criterion runs through the public surfaces (CLI or experiment API)
at its stated tolerance.
"""

import random
import time

from hexsync.clock import TICK_US
from hexsync.cli import dispatch
from hexsync.experiment import run_scheme, sweep_resync_period, time_to_opposition
from hexsync.gait import build_schedule
from hexsync.gait import Controller, events_for_controller
from hexsync.simnet import LinkModel, SchemeId, SchemeParams
from paper_gait import JOINT_AT_PHASE, TRIPODS, servo_of, tripod_angle
from trace_csv import read_trace_csv

TWO_TICKS_US = 2 * TICK_US  # ~61.04 us


def report(criterion, ok, detail=""):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_s1_linear_drift(tmp_path):
    out = tmp_path / "s1.csv"
    t0 = time.perf_counter()
    code = dispatch(["run", "--scheme", "open-loop", "--duration-s", "400",
                     "--ppm-m1", "-5", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    rows = read_trace_csv(str(out))
    final = abs(rows[-1][2])
    result = run_scheme(SchemeId.S1_OPEN_LOOP, SchemeParams(ppm_m1=-5.0))
    slope = result.fitted_slope_us_per_s
    ok = (code == 0 and abs(final - 2000) <= 62
          and abs(slope - (-5.0)) <= 0.1 and elapsed < 1.0)
    report(1, ok, f"final={final:.1f}us slope={slope:.3f}us/s runtime={elapsed:.2f}s")


def test_criterion_2_s2_bounded_error(tmp_path):
    out = tmp_path / "s2.csv"
    t0 = time.perf_counter()
    code = dispatch(["run", "--scheme", "synchronized", "--ppm-m1", "-3",
                     "--resync-period-s", "30", "--duration-s", "400",
                     "--out", str(out)])
    elapsed = time.perf_counter() - t0
    rows = read_trace_csv(str(out))
    max_abs = max(abs(r[2]) for r in rows)
    result = run_scheme(SchemeId.S2_SYNCHRONIZED, SchemeParams(ppm_m1=-3.0))
    slope = result.fitted_slope_us_per_s
    ok = (code == 0 and max_abs <= 122 and max_abs <= 1000
          and abs(slope - (-3.0)) <= 0.2 and elapsed < 1.0)
    report(2, ok, f"observed max={max_abs:.1f}us (paper: 112us, bound 120.5us) "
                  f"window slope={slope:.3f}us/s runtime={elapsed:.2f}s")


def test_criterion_3_resync_sweep():
    rows = sweep_resync_period([30, 10], SchemeParams(ppm_m1=-3.0))
    by_period = {r.resync_period_s: r.max_abs_error_us for r in rows}
    ok = by_period[10] <= by_period[30] and by_period[10] <= 61
    report(3, ok, f"max@30s={by_period[30]:.1f}us max@10s={by_period[10]:.1f}us "
                  f"(paper reports ~30us at 10s)")


def test_criterion_4_tick_floor():
    result = run_scheme(SchemeId.S2_SYNCHRONIZED,
                        SchemeParams(ppm_m1=0.0, ppm_m2=0.0))
    ok = result.max_abs_error_us <= 30.518 and len(result.trace.resync_marks) > 0
    report(4, ok, f"max={result.max_abs_error_us:.3f}us <= 30.518us")


def test_criterion_5_time_to_opposition():
    eta = time_to_opposition(5.0, 1.0)
    ok = abs(eta - 100_000) / 100_000 <= 0.01
    report(5, ok, f"eta={eta:.0f}s = {eta / 3600:.2f}h (paper: slightly under 28h)")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260824)
    worst = 0.0
    ok = True
    for _ in range(50):
        ppm_m1 = rng.uniform(-10, 10)
        ppm_m2 = rng.uniform(-10, 10)
        duration = rng.uniform(50, 1000)
        result = run_scheme(SchemeId.S1_OPEN_LOOP,
                            SchemeParams(ppm_m1=ppm_m1, ppm_m2=ppm_m2,
                                         duration_s=duration))
        rel = ppm_m1 - ppm_m2
        for t, _, err, _ in result.trace.samples:
            dev = abs(err - rel * t)
            worst = max(worst, dev)
            ok = ok and dev <= TWO_TICKS_US
    report(6, ok, f"50 runs, worst |sim - rel_ppm*t| = {worst:.2f}us "
                  f"(allowed {TWO_TICKS_US:.2f}us)")


def test_criterion_7_gait_structure():
    sched = build_schedule()
    # each tripod's commanded angle per phase, read from the rows: T2 runs
    # T1's cycle half a period later
    angles = {}
    for e in sched:
        by_servo = {servo: angle for _, servo, angle in e.rows}
        for tripod, legs in enumerate(TRIPODS):
            angles[tripod, e.phase_index] = {
                by_servo.get(servo_of(JOINT_AT_PHASE[e.phase_index], leg)) for leg in legs}
    ok = all(angles[1, (phase + 2) % 4] == angles[0, phase] == {tripod_angle(0, phase)}
             for phase in range(4))
    m1 = set(events_for_controller(sched, Controller.M1))
    m2 = set(events_for_controller(sched, Controller.M2))
    ok = ok and (m1 | m2 == set(sched)) and not (m1 & m2)
    report(7, ok, "half-period mirror, controller partition")


def test_criterion_8_determinism(tmp_path):
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code = dispatch(["run", "--scheme", "synchronized", "--duration-s", "400",
                         "--seed", "42", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    report(8, ok, f"{len(blobs[0])} bytes, identical across reruns")


def test_criterion_9_s0_sanity():
    no_jitter = run_scheme(
        SchemeId.S0_CENTRALIZED,
        SchemeParams(ppm_m1=-3.0, duration_s=200,
                     link=LinkModel(jitter_bound_s=0.0)))
    jitter = 0.015
    with_jitter = run_scheme(
        SchemeId.S0_CENTRALIZED,
        SchemeParams(ppm_m1=-3.0, duration_s=200,
                     link=LinkModel(jitter_bound_s=jitter)))
    slot_us = 15_000
    ok = (no_jitter.max_abs_error_us <= slot_us
          and with_jitter.max_abs_error_us <= slot_us + jitter * 1e6)
    report(9, ok, f"no-jitter max={no_jitter.max_abs_error_us:.1f}us <= 15000; "
                  f"jitter max={with_jitter.max_abs_error_us:.1f}us <= 30000")


def test_criterion_10_phase_opposition_at_paper_horizon():
    # the paper's open-loop horizon: at 5 us/s the error leaves 0.05 of a
    # 1 s period (degraded), and later comes within 0.1 of a period of half
    # a period (opposed)
    result = run_scheme(SchemeId.S1_OPEN_LOOP,
                        SchemeParams(ppm_m1=-5.0, duration_s=100_000))
    period_us = 1e6
    samples = result.trace.samples
    degraded = next(((k, t) for t, k, err, _ in samples if abs(err) >= 0.05 * period_us), None)
    opposed = next(((k, t) for t, k, err, _ in samples
                    if abs(abs(err) - period_us / 2) < 0.10 * period_us), None)
    ok = degraded == (9_999, 10_000.5) and opposed == (79_999, 80_000.5)
    report(10, ok, f"first degraded (k, t) = {degraded}, first opposed = {opposed}")
