"""End-to-end runs of the three control schemes and their derived metrics.

run_sim is the one place a scheme's simulation is started, stopped and
run; each CLI subcommand reads what it records. run_scheme derives a
run's summary metrics from its samples: the largest |error|, the drift
slope fitted between resyncs, the analytic error bound and the time to
phase opposition. The resync-period sweep derives only the two figures
its rows hold.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .clock import TICK_US
from .simnet import SchemeId, SchemeParams, Sim, Verb, make_sim

MIN_WINDOW_SAMPLES = 3  # samples an inter-resync window needs to enter the slope fit


class ErrorTrace(NamedTuple):
    """A run's samples and resync marks.

    Each sample is (true_time_s, period_index, error_us, resync); its time
    and error are the run's exact values as the nearest floats, unrounded,
    and resync is 1 when the run resynced a child after the previous sample
    (see hexsync.simnet). The marks are the resync times in seconds, kept as
    the run appended them.
    """
    samples: List[Tuple[float, int, float, int]]
    resync_marks: List[float]


class ExperimentResult(NamedTuple):
    trace: ErrorTrace
    max_abs_error_us: float
    fitted_slope_us_per_s: Optional[float]
    analytic_bound_us: Optional[float]
    opposition_eta_s: Optional[float]


def build_sim(scheme: SchemeId, params: SchemeParams,
              emit_setpoints: bool = False) -> Sim:
    """Build the scheme's simulation with its Start command queued at t = 0."""
    sim = make_sim(scheme, params, emit_setpoints)
    sim.inject_command(Verb.START, 0)
    return sim


def run_sim(scheme: SchemeId, params: SchemeParams, emit_setpoints: bool = False,
            stop_s: Optional[float] = None) -> Sim:
    """Run one scheme start-to-finish, with a Stop at stop_s if one is
    given, and return its simulation; the one place a scheme is started
    and run. A run that records error samples and ends before its first
    sample is an error; a setpoint run records none."""
    sim = build_sim(scheme, params, emit_setpoints)
    if stop_s is not None:
        sim.inject_command(Verb.STOP, stop_s)
    sim.run_until(params.duration_s)
    if not (emit_setpoints or sim.samples):
        raise ValueError(f"the run ended at {params.duration_s} s, "
                         "before its first sample")
    return sim


def _sync_bound_us(params: SchemeParams) -> float:
    """The synchronized scheme's analytic bound for these params."""
    return analytic_bound_us(abs(params.ppm_m1 - params.ppm_m2),
                             params.resync_period_s)


def run_scheme(scheme: SchemeId, params: SchemeParams) -> ExperimentResult:
    """Run one scheme with run_sim and derive its summary metrics.

    A run too short for two samples has no slope to fit: its slope and
    opposition time are None. The synchronized scheme reports an analytic
    bound and no opposition time: resyncs keep its error within the bound,
    so its controllers never drift half a period apart, whatever slope
    the drift between resyncs fits. Only open-loop runs report one (a
    centralized run fits no slope).
    """
    sim = run_sim(scheme, params)
    trace = ErrorTrace(sim.samples, sim.resync_marks)
    max_abs = max(abs(s[2]) for s in trace.samples)
    slope = fit_drift_slope(trace) if len(trace.samples) >= 2 else None
    bound = None
    if scheme is SchemeId.S2_SYNCHRONIZED:
        bound = _sync_bound_us(params)
    eta = None
    if slope is not None and bound is None:
        # a bounded error never reaches opposition; the unbounded schemes
        # time their gait in periods of local time
        eta = time_to_opposition(slope, params.gait.period_s)
    return ExperimentResult(trace, max_abs, slope, bound, eta)


def fit_drift_slope(trace: ErrorTrace) -> Optional[float]:
    """Least-squares slope of error vs time, in us/s.

    Each sample flagged as resynced opens a new inter-resync window; the
    fit runs within each window and the per-window slopes are averaged, so
    the sawtooth resets do not bias the estimate. A window is skipped when
    it holds fewer than MIN_WINDOW_SAMPLES samples, or when its samples all
    share one time and so have no least-squares slope. If every window is
    skipped, the resyncs are as dense as the sampling or denser (every
    centralized sample follows the delivery that resynced its child) and
    there is no drift to fit: the result is None. A trace with no flagged
    sample is one window of any size, skipped by the same one-time rule.
    """
    samples = trace.samples
    if len(samples) < 2:
        raise ValueError("need at least two samples to fit a slope")
    if not any(s[3] for s in samples):
        return _slope([s[0] for s in samples], [s[2] for s in samples])

    windows: List[Tuple[List[float], List[float]]] = []
    for t, _, e, resync in samples:
        if resync or not windows:
            windows.append(([], []))
        ts, es = windows[-1]
        ts.append(t)
        es.append(e)
    slopes = []
    for ts, es in windows:
        if len(ts) < MIN_WINDOW_SAMPLES:
            continue
        slope = _slope(ts, es)
        if slope is not None:
            slopes.append(slope)
    if not slopes:
        return None
    # imported here, as statistics (and the random it loads) would add to
    # every CLI cold start, and only a run's summary fits a slope
    from statistics import fmean
    return fmean(slopes)


def _slope(ts: List[float], es: List[float]) -> Optional[float]:
    """Least-squares slope of es against ts; None when every t is equal."""
    if min(ts) == max(ts):
        return None
    from statistics import linear_regression  # off the import path, as in fit_drift_slope
    return linear_regression(ts, es).slope


def time_to_opposition(slope_us_per_s: float, period_s: float) -> Optional[float]:
    """Seconds until the controllers drift half a period apart; None if never."""
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    if slope_us_per_s == 0:
        return None
    return (period_s / 2 * 1e6) / abs(slope_us_per_s)


def analytic_bound_us(relative_ppm: float, resync_period_s: float) -> float:
    """Worst-case error: drift accumulated over one resync period plus the
    one-tick resynchronization residual."""
    if relative_ppm < 0 or resync_period_s < 0:
        raise ValueError("inputs must be non-negative")
    return relative_ppm * resync_period_s + TICK_US


class SweepRow(NamedTuple):
    resync_period_s: float
    max_abs_error_us: float
    analytic_bound_us: float


def sweep_resync_period(periods: Sequence[float],
                        params: SchemeParams) -> List[SweepRow]:
    """One synchronized-scheme run per resync period, sorted by period;
    each row holds the figures run_scheme reports, with no slope fitted."""
    if not periods:
        raise ValueError("periods must be non-empty")
    rows = []
    for p in map(float, sorted(periods)):
        run = params.replace(resync_period_s=p)
        samples = run_sim(SchemeId.S2_SYNCHRONIZED, run).samples
        rows.append(SweepRow(p, max(abs(s[2]) for s in samples),
                             _sync_bound_us(run)))
    return rows
