"""The CSV writers' blocks against a reference copy of their per-row form.

The references are the trace and sweep formatters as they were before the
CSVs became blocks: one f-string per row, the rows joined with newlines.
A writer yields the header, then blocks of at most WRITE_CHUNK_LINES rows,
and joining its blocks with newlines must give the reference's text for
every row count around the block size, including signed zeros, nan, inf,
huge and negative values, and values halfway between two outputs at 3 or 6
decimals. `_write_lines` writes each block as it arrives, one write each.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsync.cli import (
    SERVO_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    WRITE_CHUNK_LINES as N,
    _write_lines,
    servo_csv_lines,
    sweep_csv_lines,
    trace_csv_lines,
)
from hexsync.experiment import SweepRow
from hexsync.gait import Controller

ROW_COUNTS = (0, 1, N - 1, N, N + 1, 2 * N + 1)


def reference_trace_csv_lines(samples):
    lines = [TRACE_HEADER]
    for t, k, err, resync in samples:
        lines.append(f"{t:.6f},{k},{err:.3f},{resync}")
    return lines


def reference_sweep_csv_lines(rows):
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(f"{row.resync_period_s:.6f},{row.max_abs_error_us:.3f},"
                     f"{row.analytic_bound_us:.3f}")
    return lines


# halfway between two outputs: near-halves as the nearest float, and exact
# binary halves (i/16 has 4 decimals, i/128 has 7), which round half-even
HALVES = (st.integers(-10**7, 10**7).map(lambda i: (i + 0.5) / 10**3)
          | st.integers(-10**7, 10**7).map(lambda i: (i + 0.5) / 10**6)
          | st.integers(-10**6, 10**6).map(lambda i: i / 16)
          | st.integers(-10**6, 10**6).map(lambda i: i / 128))
FLOATS = (st.sampled_from([0.0, -0.0, 1e300, -1e300, 2.0**70, -123456789.0005,
                           5e-7, -5e-7, 0.0005, -0.0005, math.nan, math.inf, -math.inf])
          | HALVES | st.floats())
INTS = st.integers(-1, 1) | st.integers(-2**70, 2**70)
SAMPLES = st.lists(st.tuples(FLOATS, INTS, FLOATS, INTS), min_size=1, max_size=12)
SWEEP_ROWS = st.lists(st.builds(SweepRow, FLOATS, FLOATS, FLOATS), min_size=1, max_size=12)


def cycled(pool, n):
    """n rows drawn in turn from pool, so a few drawn rows fill any count."""
    return [pool[i % len(pool)] for i in range(n)]


def assert_blocks(blocks, header, want):
    """blocks are the header, then blocks of at most N rows that join into want."""
    assert blocks[0] == header
    assert all(block.count("\n") < N for block in blocks)
    assert "\n".join(blocks) == "\n".join(want)


@pytest.mark.parametrize("n", ROW_COUNTS)
@given(pool=SAMPLES)
@example(pool=[(0.0005, 0, -0.0005, 1), (-0.0, -1, 0.0625, 0), (1 / 128, 2**70, 0.1875, 1),
               (3 / 128, 7, -0.0, 0), (math.nan, 3, math.inf, 1), (1e300, 4, -1e300, 0)])
@settings(max_examples=10, deadline=None)
def test_trace_blocks_match_reference(n, pool):
    samples = cycled(pool, n)
    blocks = list(trace_csv_lines(samples))
    assert_blocks(blocks, TRACE_HEADER, reference_trace_csv_lines(samples))
    # the header, then the fewest blocks that hold every row
    assert len(blocks) == 1 + -(-n // N)


@pytest.mark.parametrize("n", ROW_COUNTS)
@given(pool=SWEEP_ROWS)
@example(pool=[SweepRow(0.0000005, -0.0005, 0.0625), SweepRow(-0.0, 1e300, math.nan)])
@settings(max_examples=10, deadline=None)
def test_sweep_blocks_match_reference(n, pool):
    rows = cycled(pool, n)
    blocks = list(sweep_csv_lines(rows))
    assert_blocks(blocks, SWEEP_HEADER, reference_sweep_csv_lines(rows))
    assert len(blocks) == 1 + -(-n // N)


@pytest.mark.parametrize("total", [N - 1, N, N + 1, 2 * N + 1])
def test_servo_blocks_end_on_an_instant(total):
    # instants of 1 to 7 rows at increasing times: a block holds whole
    # instants, at most N rows, and is cut only when the next instant would
    # not fit
    rows = ((Controller.M1, 0, 30.0), (Controller.M1, 2, -0.0), (Controller.M2, 6, 25.0),
            (Controller.M2, 7, -25.0), (Controller.M1, 4, 1e-4), (Controller.M2, 9, 0.0005),
            (Controller.M2, 11, -30.0))
    trace, count, i = [], 0, 0
    while count < total:
        size = min(1 + i % 7, total - count)
        trace.append((i * 0.0075, rows[:size]))
        count += size
        i += 1
    blocks = list(servo_csv_lines(trace))
    want = [SERVO_HEADER] + [f"{t:.6f},{c.value},{s},{a:.3f}"
                             for t, group in trace for c, s, a in group]
    assert_blocks(blocks, SERVO_HEADER, want)
    # whole instants, packed greedily
    sizes, filled = [], 0
    for _, group in trace:
        if filled + len(group) > N:
            sizes.append(filled)
            filled = 0
        filled += len(group)
    sizes.append(filled)
    assert [block.count("\n") + 1 for block in blocks[1:]] == sizes


class FakeFile:
    """A text file that records each write, as stdout."""

    def __init__(self, log):
        self.log = log

    def write(self, text):
        self.log.append(("write", text))


def test_write_lines_writes_each_block_as_it_arrives(monkeypatch):
    samples = cycled([(0.5, 0, -0.0005, 1), (1.5, 1, 2.0625, 0)], 2 * N + 1)
    log = []

    def logged(blocks):
        for block in blocks:
            log.append(("made", block))
            yield block

    monkeypatch.setattr(sys, "stdout", FakeFile(log))
    _write_lines(logged(trace_csv_lines(samples)), None)
    made = [text for what, text in log if what == "made"]
    # each block is written, with its newline, before the next is made
    assert log == [entry for block in made for entry in (("made", block),
                                                         ("write", block + "\n"))]
    assert len(made) == 4
    written = "".join(text for what, text in log if what == "write")
    assert written == "\n".join(reference_trace_csv_lines(samples)) + "\n"

