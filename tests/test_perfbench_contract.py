"""What the benchmark harness reads from a run exists and means what it did.

test_perfbench_names checks that the names perfbench hooks exist. Its
tracer (`perfbench/layers.py`) also reads a run's objects while it runs:
`len(sim.samples)`, `len(sim.resync_marks)` and `len(sim.servo_setpoints)`
after each `Sim.run_until`, and `msg.body.value` and `msg.delivered_true_s`
after each `Sim.send`. A renamed attribute would fail only inside a
benchmark run. So each workload's command runs here at a short horizon,
once under the simnet-only probe and once under the full tracer, as
`perfbench/run.py` runs them, and both must hook every name and count the
same run.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

# every layer is imported before any Tracer is installed: a module first
# imported under a Tracer keeps its wrappers after the Tracer exits
import hexsync.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from layers import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# each workload's horizon and Stop time, shortened; the Stop still comes
# before the end of the run
SHORT = {"--duration-s": "40", "--stop-s": "30"}


def short_argv(workload):
    """The workload's argv with each SHORT flag's value replaced."""
    argv = workload.argv(seed=1)
    return [SHORT.get(prev, arg) for prev, arg in zip([None, *argv], argv)]


def traced(argv, **tracer_args):
    """(exit code, CSV text, tracer) of one in-process command under a Tracer."""
    out = io.StringIO()
    with Tracer(**tracer_args) as tracer, contextlib.redirect_stdout(out):
        rc = hexsync.cli.dispatch(argv)
    return rc, out.getvalue(), tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_probed_runs_count_the_same_run(name):
    argv = short_argv(WORKLOADS[name])
    rc, probe_csv, probe = traced(argv, layers=("simnet",))
    assert (rc, probe.missing) == (0, [])
    rc, csv, tracer = traced(argv)
    assert (rc, tracer.missing) == (0, [])
    assert csv == probe_csv
    layer = tracer.layer_metrics()
    counts = dict(tracer.exact_counts(),
                  **{k: layer[k] for k in ("tsch.resyncs", "gait.setpoints")})
    assert counts == probe.exact_counts()
    assert counts["simnet.events"] > 0
    assert counts["simnet.samples" if argv[0] != "trace" else "gait.setpoints"] > 0
    if "--stop-s" in argv:
        stop_s = float(SHORT["--stop-s"])
        for run in (probe, tracer):
            assert run.stop_deliveries and min(run.stop_deliveries) >= stop_s
