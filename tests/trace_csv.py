"""Read a trace CSV back, for the tests that check what a run wrote."""

from hexsync.cli import TRACE_HEADER


def read_trace_csv(path):
    """The trace CSV at path as rows of ErrorTrace.samples' type:
    (true_time_s, period_index, error_us, resync), at the CSV's precision
    (times to the microsecond, errors to the nanosecond), so a run's
    samples read back rounded to those decimals."""
    with open(path) as fh:
        assert fh.readline() == TRACE_HEADER + "\n"
        return [(float(t), int(k), float(err), int(resync))
                for t, k, err, resync in (line.split(",") for line in fh)]
