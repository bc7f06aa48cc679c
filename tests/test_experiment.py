"""Scheme runs, slope fitting, bounds, and the resync-period sweep."""

import math

import pytest

from hexsync.clock import TICK_US
from hexsync.experiment import (
    ErrorTrace,
    SchemeId,
    SchemeParams,
    analytic_bound_us,
    fit_drift_slope,
    run_scheme,
    sweep_resync_period,
    time_to_opposition,
)
from hexsync.simnet import LinkModel


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


def test_fit_slope_exact_synthetic_line():
    trace = ErrorTrace(samples=[(float(t), t, 5.0 * t) for t in range(100)],
                       resync_marks=[], scheme=SchemeId.S1_OPEN_LOOP, config={})
    assert fit_drift_slope(trace) == pytest.approx(5.0, abs=1e-6)


def test_fit_slope_needs_two_samples():
    trace = ErrorTrace(samples=[(0.0, 0, 0.0)], resync_marks=[],
                       scheme=SchemeId.S1_OPEN_LOOP, config={})
    with pytest.raises(ValueError):
        fit_drift_slope(trace)


def test_fit_slope_windows_ignore_sawtooth_resets():
    # sawtooth: slope -3 within 30 s windows, reset at each mark
    samples = []
    marks = []
    for w in range(5):
        base = w * 30.0
        marks.append(base)
        for i in range(29):
            t = base + 1.0 + i
            samples.append((t, len(samples), -3.0 * (t - base)))
    trace = ErrorTrace(samples=samples, resync_marks=marks,
                       scheme=SchemeId.S2_SYNCHRONIZED, config={})
    assert fit_drift_slope(trace) == pytest.approx(-3.0, abs=1e-9)


def test_centralized_run_reports_no_slope():
    # a resync mark on every delivery leaves no window to fit: link jitter
    # alone must not pass for a drift slope or an opposition time
    result = run_scheme(SchemeId.S0_CENTRALIZED, SchemeParams(ppm_m1=-3.0))
    assert len(result.trace.resync_marks) > len(result.trace.samples)
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
    for t, _, err in result.trace.samples:
        assert abs(err - rel * t) <= 2 * TICK_US
