"""Scheme runs, slope fitting, bounds, and the resync-period sweep."""

import pytest

from hexsync.clock import TICK_US
from hexsync.experiment import (
    ErrorTrace,
    analytic_bound_us,
    build_sim,
    fit_drift_slope,
    run_scheme,
    run_sim,
    sweep_resync_period,
    time_to_opposition,
)
from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, SchemeId, SchemeParams, Verb


def test_s1_linear_drift_matches_paper_run():
    result = run_scheme(SchemeId.S1_OPEN_LOOP, SchemeParams(ppm_m1=-5.0))
    final = result.trace.samples[-1][2]
    assert abs(abs(final) - 2000) < 62
    assert abs(result.fitted_slope_us_per_s - (-5.0)) < 0.1
    assert result.trace.resync_marks == []
    assert result.analytic_bound_us is None


def test_s1_zero_relative_drift_stays_flat():
    result = run_scheme(SchemeId.S1_OPEN_LOOP,
                        SchemeParams(ppm_m1=4.0, ppm_m2=4.0, duration_s=200))
    assert result.max_abs_error_us < 2 * TICK_US


def test_s2_bounded_sawtooth():
    result = run_scheme(SchemeId.S2_SYNCHRONIZED, SchemeParams(ppm_m1=-3.0))
    assert result.max_abs_error_us <= 122
    assert abs(result.fitted_slope_us_per_s - (-3.0)) < 0.2
    assert result.analytic_bound_us == pytest.approx(120.5, abs=0.1)
    assert len(result.trace.resync_marks) > 20


def test_s2_worst_case_meets_openwsn_millisecond_budget():
    result = run_scheme(SchemeId.S2_SYNCHRONIZED,
                        SchemeParams(ppm_m1=-10.0, ppm_m2=10.0, duration_s=200))
    assert result.max_abs_error_us < 1000


def test_samples_strictly_increasing_and_per_period():
    result = run_scheme(SchemeId.S2_SYNCHRONIZED, SchemeParams(ppm_m1=-3.0))
    times = [s[0] for s in result.trace.samples]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert 380 <= len(times) <= 400  # ~once per 1.02 s period over 400 s


def test_duration_shorter_than_period_rejected():
    with pytest.raises(ValueError):
        run_scheme(SchemeId.S1_OPEN_LOOP, SchemeParams(duration_s=0.5))


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_run_sim_queues_the_stop_at_stop_s(scheme):
    params = SchemeParams(duration_s=20)
    stopped = run_sim(scheme, params, True, 12.3)
    by_hand = build_sim(scheme, params, True)
    by_hand.inject_command(Verb.STOP, 12.3)
    by_hand.run_until(20)
    assert stopped.servo_setpoints.groups == by_hand.servo_setpoints.groups
    # the Stop quiesces the gait, which steps on to the end without it
    assert stopped.servo_setpoints.groups[-1][0] < 12.3 + 1
    assert run_sim(scheme, params, True).servo_setpoints.groups[-1][0] > 19


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_a_setpoint_run_without_samples_returns(scheme):
    # a setpoint run records no error samples, however long it runs; a
    # sample run as short as the first raises
    for duration_s in (1.0, 5.0):
        sim = run_sim(scheme, SchemeParams(duration_s=duration_s), True)
        assert sim.samples == [] and sim.now == duration_s
    assert sim.servo_setpoints.groups
    with pytest.raises(ValueError, match="before its first sample"):
        run_sim(scheme, SchemeParams(duration_s=1.0))


def test_fit_slope_exact_synthetic_line():
    trace = ErrorTrace(samples=[(float(t), t, 5.0 * t, 0) for t in range(100)], resync_marks=[])
    assert fit_drift_slope(trace) == pytest.approx(5.0, abs=1e-6)


def test_fit_slope_needs_two_samples():
    trace = ErrorTrace(samples=[(0.0, 0, 0.0, 0)], resync_marks=[])
    with pytest.raises(ValueError):
        fit_drift_slope(trace)


def test_fit_slope_windows_ignore_sawtooth_resets():
    # sawtooth: slope -3 within 30 s windows, reset at each mark; the
    # first sample after a mark carries the resync flag
    samples = []
    marks = []
    for w in range(5):
        base = w * 30.0
        marks.append(base)
        for i in range(29):
            t = base + 1.0 + i
            samples.append((t, len(samples), -3.0 * (t - base), 1 if i == 0 else 0))
    trace = ErrorTrace(samples=samples, resync_marks=marks)
    assert fit_drift_slope(trace) == pytest.approx(-3.0, abs=1e-9)


def test_centralized_run_reports_no_slope():
    # every sample is taken at the delivery that resyncs its child, so each
    # window holds one sample: link jitter alone must not pass for a drift
    # slope or an opposition time. At a sub-slot gait period the servo
    # commands of several periods land on one slot boundary, 28 us or a
    # slot apart.
    for params in (SchemeParams(ppm_m1=-3.0),
                   SchemeParams(duration_s=5, gait=GaitConfig(period_s=0.01))):
        result = run_scheme(SchemeId.S0_CENTRALIZED, params)
        assert len(result.trace.resync_marks) > len(result.trace.samples) > 1
        assert all(s[3] == 1 for s in result.trace.samples)
        assert result.fitted_slope_us_per_s is None
        assert result.opposition_eta_s is None


def test_resyncs_denser_than_samples_report_no_slope():
    result = run_scheme(SchemeId.S2_SYNCHRONIZED,
                        SchemeParams(ppm_m1=-3.0, resync_period_s=1.0, duration_s=60))
    assert result.trace.resync_marks
    assert result.fitted_slope_us_per_s is None
    assert result.opposition_eta_s is None


def test_time_to_opposition_matches_28_hours():
    eta = time_to_opposition(5.0, 1.0)
    assert eta == pytest.approx(100_000, rel=1e-9)
    assert eta / 3600 == pytest.approx(27.78, abs=0.01)


@pytest.mark.parametrize("scheme", [SchemeId.S1_OPEN_LOOP, SchemeId.S2_SYNCHRONIZED],
                         ids=lambda s: s.value)
def test_opposition_eta_uses_the_schemes_own_gait_period(scheme):
    # open-loop controllers time period_s on their local clocks; the
    # synchronized scheme's error is bounded, so it never reaches opposition
    # although the drift between its resyncs fits a slope
    runs = [run_scheme(scheme, SchemeParams(duration_s=120, gait=GaitConfig(period_s=p)))
            for p in (1.0, 1.5)]
    for result, period_s in zip(runs, (1.0, 1.5)):
        slope = abs(result.fitted_slope_us_per_s)
        if scheme is SchemeId.S2_SYNCHRONIZED:
            assert slope > 0
            assert result.analytic_bound_us is not None
            assert result.opposition_eta_s is None
        else:
            assert result.opposition_eta_s == pytest.approx(period_s / 2 * 1e6 / slope,
                                                            rel=1e-12)


def test_time_to_opposition_zero_slope_never():
    assert time_to_opposition(0.0, 1.0) is None


def test_time_to_opposition_three_ppm():
    assert time_to_opposition(3.0, 1.0) == pytest.approx(500_000 / 3, rel=1e-9)


def test_analytic_bound_values():
    assert analytic_bound_us(3, 30) == pytest.approx(120.518, abs=1e-3)
    assert analytic_bound_us(0, 1234) == pytest.approx(TICK_US, abs=1e-9)
    assert analytic_bound_us(3, 10) == pytest.approx(60.518, abs=1e-3)


def test_analytic_bound_rejects_negatives():
    with pytest.raises(ValueError):
        analytic_bound_us(-1, 30)


def test_sweep_monotone_and_bounded():
    rows = sweep_resync_period([30, 10], SchemeParams(ppm_m1=-3.0))
    assert [r.resync_period_s for r in rows] == [10, 30]
    assert rows[0].max_abs_error_us <= rows[1].max_abs_error_us
    assert rows[0].max_abs_error_us <= 61
    assert rows[1].max_abs_error_us <= 122
    assert all(r.max_abs_error_us <= r.analytic_bound_us + TICK_US for r in rows)


@pytest.mark.parametrize("ppm_m1,ppm_m2", [(-3.7, 1.1), (4.0, 4.0)])
@pytest.mark.parametrize("link", [LinkModel(jitter_bound_s=0.0),
                                  LinkModel(jitter_bound_s=0.03, drop_probability=0.3)])
def test_sweep_rows_are_run_schemes_figures(ppm_m1, ppm_m2, link):
    # the sweep fits no slope, but each row must hold what run_scheme reports
    params = SchemeParams(ppm_m1=ppm_m1, ppm_m2=ppm_m2, duration_s=60, link=link)
    periods = [10, 0.5, 3]
    rows = sweep_resync_period(periods, params)
    assert [r.resync_period_s for r in rows] == sorted(periods)
    for row in rows:
        p = row.resync_period_s
        run = params.replace(resync_period_s=p)
        r = run_scheme(SchemeId.S2_SYNCHRONIZED, run)
        assert row == (p, r.max_abs_error_us, r.analytic_bound_us)
        sim = run_sim(SchemeId.S2_SYNCHRONIZED, run)
        assert r.trace == ErrorTrace(sim.samples, sim.resync_marks)


def test_sweep_rejects_empty():
    with pytest.raises(ValueError):
        sweep_resync_period([], SchemeParams())


def test_s0_application_gap_within_one_slot_without_jitter():
    result = run_scheme(SchemeId.S0_CENTRALIZED,
                        SchemeParams(ppm_m1=-3.0, duration_s=120,
                                     link=LinkModel(jitter_bound_s=0.0)))
    assert result.trace.samples
    assert result.max_abs_error_us <= 15_000


def test_s0_application_gap_within_slot_plus_jitter():
    jitter = 0.015
    result = run_scheme(SchemeId.S0_CENTRALIZED,
                        SchemeParams(ppm_m1=-3.0, duration_s=120,
                                     link=LinkModel(jitter_bound_s=jitter)))
    assert result.max_abs_error_us <= (0.015 + jitter) * 1e6


def test_s1_oracle_equivalence_spot_check():
    # closed-form drift oracle, independent of the event queue
    params = SchemeParams(ppm_m1=2.5, ppm_m2=-1.5, duration_s=300)
    result = run_scheme(SchemeId.S1_OPEN_LOOP, params)
    rel = params.ppm_m1 - params.ppm_m2
    for t, _, err, _ in result.trace.samples:
        assert abs(err - rel * t) <= 2 * TICK_US


@pytest.mark.parametrize("ppm_m1,ppm_m2", [(-3.7, 1.1), (-10.0, 10.0), (5.0, -0.3)])
@pytest.mark.parametrize("resync_period_s", [1.0, 3.0, 10.0, 30.0])
@pytest.mark.parametrize("link", [LinkModel(jitter_bound_s=0.0),
                                  LinkModel(jitter_bound_s=0.015, drop_probability=0.2)])
def test_s2_oracle_drift_within_two_tick_band_per_window(ppm_m1, ppm_m2,
                                                         resync_period_s, link):
    # between resyncs both slot grids stay put, so the error is rel_ppm*t plus
    # a constant, give or take each controller rounding its period start up
    # to its own next tick: a band two ticks wide
    params = SchemeParams(ppm_m1=ppm_m1, ppm_m2=ppm_m2, duration_s=200,
                          resync_period_s=resync_period_s, link=link)
    result = run_scheme(SchemeId.S2_SYNCHRONIZED, params)
    rel = ppm_m1 - ppm_m2
    # a sample flagged as resynced opens the next inter-resync window
    windows = {}
    window = 0
    for t, _, err, resync in result.trace.samples:
        window += resync
        windows.setdefault(window, []).append(err - rel * t)
    assert len(windows) > 1
    for residuals in windows.values():
        assert max(residuals) - min(residuals) <= 2 * TICK_US
