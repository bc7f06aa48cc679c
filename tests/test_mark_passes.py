"""The two passes over resync marks equal their naive O(samples x marks) forms.

`fit_drift_slope` bins samples into inter-resync windows and
`trace_csv_lines` flags rows preceded by a mark. Both use sorted-mark
bisection; the naive formulas kept here are the oracles, and results must
match exactly.
"""

import math
from statistics import fmean, linear_regression
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from hexsync.cli import trace_csv_lines
from hexsync.experiment import MIN_WINDOW_SAMPLES, ErrorTrace, fit_drift_slope


def naive_fit_drift_slope(trace: ErrorTrace) -> Optional[float]:
    samples = trace.samples
    if not trace.resync_marks:
        if len({s[0] for s in samples}) == 1:
            return None  # one time: no least-squares slope
        return linear_regression([s[0] for s in samples], [s[2] for s in samples]).slope
    marks = sorted(set(trace.resync_marks))
    edges = [-math.inf] + marks + [math.inf]
    slopes = []
    for lo, hi in zip(edges, edges[1:]):
        window = [(t, e) for t, _, e in samples if lo < t <= hi]
        if len(window) < MIN_WINDOW_SAMPLES or len({t for t, _ in window}) == 1:
            continue
        slopes.append(linear_regression([w[0] for w in window], [w[1] for w in window]).slope)
    if not slopes:
        return None
    return fmean(slopes)


def naive_resync_flags(trace: ErrorTrace):
    marks = sorted(trace.resync_marks)
    prev = float("-inf")
    flags = []
    for t, _, _ in trace.samples:
        flags.append("1" if any(prev < m <= t for m in marks) else "0")
        prev = t
    return flags


# a coarse grid of instants makes equal sample times, duplicate marks and
# marks equal to a sample time common
instants = st.integers(0, 60).map(lambda i: i * 0.25)
samples = st.lists(
    st.tuples(instants, st.integers(0, 100),
              st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)),
    min_size=2, max_size=40)
marks = st.lists(instants, max_size=15)


def make_trace(sample_list, mark_list, time_ordered):
    """Samples in time order, as a run writes them, or unsorted as drawn."""
    ordered = sorted(sample_list) if time_ordered else sample_list
    return ErrorTrace(samples=list(ordered), resync_marks=list(mark_list))


@given(sample_list=samples, mark_list=marks, time_ordered=st.booleans())
@settings(max_examples=200, deadline=None)
def test_fit_drift_slope_matches_naive_windows(sample_list, mark_list, time_ordered):
    # neither fit raises: a window whose samples share one time is skipped
    trace = make_trace(sample_list, mark_list, time_ordered)
    assert fit_drift_slope(trace) == naive_fit_drift_slope(trace)


@given(sample_list=samples, mark_list=marks, time_ordered=st.booleans())
@settings(max_examples=200, deadline=None)
def test_trace_csv_resync_flags_match_naive_scan(sample_list, mark_list, time_ordered):
    trace = make_trace(sample_list, mark_list, time_ordered)
    rows = trace_csv_lines(trace)[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == naive_resync_flags(trace)
