"""The two passes over resync marks equal their naive O(samples x marks) forms.

`fit_drift_slope` bins samples into inter-resync windows and
`trace_csv_lines` flags rows preceded by a mark. Both use sorted-mark
bisection; the naive formulas kept here are the oracles, and results must
match exactly.
"""

import warnings
from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsync.cli import trace_csv_lines
from hexsync.experiment import MIN_WINDOW_SAMPLES, ErrorTrace, SchemeId, fit_drift_slope


def naive_fit_drift_slope(trace: ErrorTrace) -> Optional[float]:
    samples = trace.samples
    if not trace.resync_marks:
        ts = np.array([s[0] for s in samples])
        es = np.array([s[2] for s in samples])
        return float(np.polyfit(ts, es, 1)[0])
    marks = sorted(set(trace.resync_marks))
    edges = [-np.inf] + marks + [np.inf]
    slopes = []
    for lo, hi in zip(edges, edges[1:]):
        window = [(t, e) for t, _, e in samples if lo < t <= hi]
        if len(window) < MIN_WINDOW_SAMPLES:
            continue
        wts = np.array([w[0] for w in window])
        wes = np.array([w[1] for w in window])
        slopes.append(float(np.polyfit(wts, wes, 1)[0]))
    if not slopes:
        return None
    return float(np.mean(slopes))


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
    return ErrorTrace(samples=list(ordered), resync_marks=list(mark_list),
                      scheme=SchemeId.S2_SYNCHRONIZED, config={})


def outcome(fit, trace):
    """The fit's slope, None, or the type of error it raised (a window whose
    samples share one time can make the least-squares solve fail)."""
    try:
        return fit(trace)
    except np.linalg.LinAlgError as exc:
        return type(exc)


@given(sample_list=samples, mark_list=marks, time_ordered=st.booleans())
@settings(max_examples=200, deadline=None)
def test_fit_drift_slope_matches_naive_windows(sample_list, mark_list, time_ordered):
    trace = make_trace(sample_list, mark_list, time_ordered)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate windows warn in both forms
        fast = outcome(fit_drift_slope, trace)
        naive = outcome(naive_fit_drift_slope, trace)
    if isinstance(naive, float):
        assert isinstance(fast, float) and np.array_equal(fast, naive, equal_nan=True)
    else:
        assert fast is naive


@given(sample_list=samples, mark_list=marks, time_ordered=st.booleans())
@settings(max_examples=200, deadline=None)
def test_trace_csv_resync_flags_match_naive_scan(sample_list, mark_list, time_ordered):
    trace = make_trace(sample_list, mark_list, time_ordered)
    rows = trace_csv_lines(trace)[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == naive_resync_flags(trace)
