"""End-to-end runs of the three control schemes and their derived metrics.

Runs a scheme, samples the gait synchronization error once per gait
period, fits drift slopes, evaluates the analytic error bound, converts a
slope into a time-to-phase-opposition figure, and sweeps the worst-case
resync period.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clock import TICK_US
from .gait import GaitConfig
from .simnet import (
    LinkModel,
    NodeSpec,
    SchemeId,
    Sim,
    SimConfig,
    Verb,
    make_sim,
)

MIN_WINDOW_SAMPLES = 3  # samples an inter-resync window needs to enter the slope fit


@dataclass
class ErrorTrace:
    samples: List[Tuple[float, int, float]]  # (true_time_s, period_index, error_us)
    resync_marks: List[float]
    scheme: SchemeId
    config: Dict[str, object]


@dataclass
class ExperimentResult:
    trace: ErrorTrace
    max_abs_error_us: float
    fitted_slope_us_per_s: Optional[float]
    analytic_bound_us: Optional[float]
    opposition_eta_s: Optional[float]


@dataclass(frozen=True)
class SchemeParams:
    ppm_m1: float = -3.0
    ppm_m2: float = 0.0
    ppm_root: float = 0.0
    duration_s: float = 400.0
    resync_period_s: float = 30.0
    seed: int = 1
    gait: GaitConfig = field(default_factory=GaitConfig)
    link: LinkModel = field(default_factory=LinkModel)
    sample_every: int = 1


def build_sim(scheme: SchemeId, params: SchemeParams,
              emit_setpoints: bool = False) -> Sim:
    """Build the scheme's simulation with its Start command queued at t = 0."""
    config = SimConfig(
        root=NodeSpec("root", params.ppm_root),
        children=(NodeSpec("m1", params.ppm_m1), NodeSpec("m2", params.ppm_m2)),
        mode=scheme,
        gait=params.gait,
        link=params.link,
        keepalive_period_s=params.resync_period_s,
        sample_every=params.sample_every,
        emit_setpoints=emit_setpoints,
    )
    sim = make_sim(config, params.seed)
    sim.inject_command(Verb.START, 0)
    return sim


def run_scheme(scheme: SchemeId, params: SchemeParams) -> ExperimentResult:
    """Run one scheme start-to-finish and derive its summary metrics."""
    if params.duration_s < params.gait.period_s:
        raise ValueError("duration must cover at least one gait period")
    sim = build_sim(scheme, params)
    sim.run_until(params.duration_s)

    trace = ErrorTrace(
        samples=list(sim.samples),
        resync_marks=list(sim.resync_marks),
        scheme=scheme,
        config={
            "scheme": scheme.value,
            "ppm_m1": params.ppm_m1,
            "ppm_m2": params.ppm_m2,
            "ppm_root": params.ppm_root,
            "duration_s": params.duration_s,
            "resync_period_s": params.resync_period_s,
            "seed": params.seed,
            "gait_period_s": params.gait.period_s,
            "gait_period_slots": params.gait.period_slots,
        },
    )
    max_abs = max((abs(s[2]) for s in trace.samples), default=0.0)
    slope = fit_drift_slope(trace)
    bound = None
    if scheme is SchemeId.S2_SYNCHRONIZED:
        bound = analytic_bound_us(abs(params.ppm_m1 - params.ppm_m2),
                                  params.resync_period_s)
    eta = None if slope is None else time_to_opposition(slope, params.gait.period_s)
    return ExperimentResult(trace, max_abs, slope, bound, eta)


def fit_drift_slope(trace: ErrorTrace) -> Optional[float]:
    """Least-squares slope of error vs time, in us/s.

    With resync marks present the fit runs within each inter-resync window
    and the per-window slopes are averaged, so the sawtooth resets do not
    bias the estimate. If no window holds MIN_WINDOW_SAMPLES samples, the
    resyncs are denser than the sampling and there is no drift to fit:
    the result is None.
    """
    samples = trace.samples
    if len(samples) < 2:
        raise ValueError("need at least two samples to fit a slope")
    if not trace.resync_marks:
        ts = np.array([s[0] for s in samples])
        es = np.array([s[2] for s in samples])
        return float(np.polyfit(ts, es, 1)[0])

    # window i holds the samples with marks[i-1] < t <= marks[i], in sample
    # order; the first and last windows are open-ended
    marks = sorted(set(trace.resync_marks))
    windows: List[List[Tuple[float, float]]] = [[] for _ in range(len(marks) + 1)]
    for t, _, e in samples:
        windows[bisect_left(marks, t)].append((t, e))
    slopes = []
    for window in windows:
        if len(window) < MIN_WINDOW_SAMPLES:
            continue
        wts = np.array([w[0] for w in window])
        wes = np.array([w[1] for w in window])
        slopes.append(float(np.polyfit(wts, wes, 1)[0]))
    if not slopes:
        return None
    return float(np.mean(slopes))


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


@dataclass(frozen=True)
class SweepRow:
    resync_period_s: float
    max_abs_error_us: float
    analytic_bound_us: float


def sweep_resync_period(periods: Sequence[float],
                        params: SchemeParams) -> List[SweepRow]:
    """One synchronized-scheme run per resync period, sorted by period."""
    if not periods:
        raise ValueError("periods must be non-empty")
    rows = []
    for p in sorted(periods):
        result = run_scheme(SchemeId.S2_SYNCHRONIZED,
                            replace(params, resync_period_s=float(p)))
        rows.append(SweepRow(float(p), result.max_abs_error_us,
                             result.analytic_bound_us))
    return rows
