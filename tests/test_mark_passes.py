"""The slope fit's windows and the trace CSV, against their naive forms.

`fit_drift_slope` opens an inter-resync window at each sample flagged as
resynced; the naive grouping kept here cuts the sample list at those rows
and must give exactly the same slope. The trace CSV carries each sample's
own flag, so writing a run's trace and reading it back gives its samples
at the CSV's precision, flags unchanged.
"""

from statistics import fmean, linear_regression
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsync.cli import _write_lines, trace_csv_lines
from hexsync.experiment import MIN_WINDOW_SAMPLES, ErrorTrace, fit_drift_slope, run_scheme
from hexsync.simnet import LinkModel, SchemeId, SchemeParams
from trace_csv import read_trace_csv


def naive_fit_drift_slope(trace: ErrorTrace) -> Optional[float]:
    samples = trace.samples
    cuts = [i for i, s in enumerate(samples) if s[3]]
    if not cuts:
        if len({s[0] for s in samples}) == 1:
            return None  # one time: no least-squares slope
        return linear_regression([s[0] for s in samples], [s[2] for s in samples]).slope
    edges = sorted({0, *cuts, len(samples)})
    slopes = []
    for lo, hi in zip(edges, edges[1:]):
        window = [(t, e) for t, _, e, _ in samples[lo:hi]]
        if len(window) < MIN_WINDOW_SAMPLES or len({t for t, _ in window}) == 1:
            continue
        slopes.append(linear_regression([w[0] for w in window], [w[1] for w in window]).slope)
    if not slopes:
        return None
    return fmean(slopes)


# a coarse grid of instants makes equal sample times common; flags are
# drawn freely, including on the first row and on adjacent rows
instants = st.integers(0, 60).map(lambda i: i * 0.25)
samples = st.lists(
    st.tuples(instants, st.integers(0, 100),
              st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
              st.sampled_from([0, 0, 0, 1])),
    min_size=2, max_size=40)


@given(sample_list=samples, time_ordered=st.booleans())
@settings(max_examples=200, deadline=None)
def test_fit_drift_slope_matches_naive_windows(sample_list, time_ordered):
    # neither fit raises: a window whose samples share one time is skipped
    ordered = sorted(sample_list) if time_ordered else sample_list
    trace = ErrorTrace(samples=list(ordered), resync_marks=[])
    assert fit_drift_slope(trace) == naive_fit_drift_slope(trace)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_trace_csv_round_trips_samples(tmp_path, scheme):
    params = SchemeParams(ppm_m1=-3.7, ppm_m2=1.1, resync_period_s=3.0, duration_s=120,
                          link=LinkModel(jitter_bound_s=0.011, drop_probability=0.2))
    trace = run_scheme(scheme, params).trace
    path = tmp_path / "trace.csv"
    _write_lines(trace_csv_lines(trace.samples), str(path))
    rows = read_trace_csv(str(path))
    assert rows == [(round(t, 6), k, round(e, 3), r) for t, k, e, r in trace.samples]
    again = tmp_path / "again.csv"
    _write_lines(trace_csv_lines(rows), str(again))
    assert again.read_bytes() == path.read_bytes()
