"""The servo setpoint path against a reference copy of its earlier form.

The reference setpoint expansion is the paper's gait as tests/paper_gait.py
spells it. The references for the
chronological sort and the CSV row formatter are those two as they were
before setpoints became named tuples: a frozen dataclass per setpoint, a
(time, controller name, servo id) sort key and one f-string per row. A run
records its setpoints as (time, rows) groups, which the references read
expanded into one dataclass per row. The simulation must emit, order and
format exactly what they do, for every scheme, with Start and Stop
sequences, drops, jitter and gait periods down to one slot per phase.
"""

import math
from dataclasses import dataclass
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsync import gait
from hexsync.cli import SERVO_HEADER, dispatch, servo_csv_lines
from hexsync.gait import Controller, GaitConfig, build_schedule, servo_trace
from hexsync.simnet import LinkModel, SchemeId, SchemeParams, Verb, make_sim
from paper_gait import paper_rows


@dataclass(frozen=True)
class ReferenceSetpoint:
    true_time_s: float
    controller: Controller
    servo_id: int
    angle_deg: float


def reference_setpoints(groups):
    """(true_time_s, rows) groups expanded into one ReferenceSetpoint per row."""
    return [ReferenceSetpoint(true_time_s=t, controller=controller, servo_id=servo_id,
                              angle_deg=angle)
            for t, rows in groups for controller, servo_id, angle in rows]


def reference_sort(setpoints):
    return sorted(setpoints, key=lambda s: (s.true_time_s, s.controller.value, s.servo_id))


def reference_csv_lines(setpoints):
    lines = [SERVO_HEADER]
    for sp in setpoints:
        lines.append(f"{sp.true_time_s:.6f},{sp.controller.value},"
                     f"{sp.servo_id},{sp.angle_deg:.3f}")
    return lines


def as_row(sp):
    return (sp.true_time_s, sp.controller, sp.servo_id, sp.angle_deg)


def test_expansion_matches_reference_for_every_event():
    for event in build_schedule():
        got = gait.setpoints_for_event(event)
        want = paper_rows(event.phase_index)
        assert list(got) == want
        assert [str(angle) for _, _, angle in got] == [str(angle) for _, _, angle in want]


def reference_expander(event):
    """The paper's rows at the event's phase (tests/paper_gait.py)."""
    return paper_rows(event.phase_index)


@st.composite
def runs(draw):
    duration = draw(st.integers(3000, 12000)) / 1000
    at = st.integers(0, int(duration * 1000)).map(lambda ms: ms / 1000)
    extra = draw(st.lists(st.tuples(st.sampled_from([Verb.START, Verb.STOP]), at), max_size=4))
    stop = draw(st.none() | at)
    ppms = st.sampled_from([-3.7, 0.0, 1.1, 5.0])
    params = SchemeParams(
        ppm_m1=draw(ppms), ppm_m2=draw(ppms), ppm_root=draw(ppms),
        duration_s=duration,
        resync_period_s=draw(st.sampled_from([2.5, 30.0])),
        seed=draw(st.integers(1, 50)),
        gait=GaitConfig(period_s=draw(st.sampled_from([0.5, 0.7, 1.0])),
                        period_slots=draw(st.sampled_from([4, 8, 12, 68]))),
        link=LinkModel(base_latency_s=draw(st.sampled_from([0.0, 0.0031])),
                       jitter_bound_s=draw(st.sampled_from([0.0, 0.011, 0.015])),
                       drop_probability=draw(st.sampled_from([0.0, 0.1, 0.3]))))
    commands = [(Verb.START, 0)] + extra + ([] if stop is None else [(Verb.STOP, stop)])
    return params, commands


# a Start, a Start while armed (a no-op), a Stop and a re-Start, over a
# lossy link with 30 ms of jitter
LOSSY_COMMANDS = (SchemeParams(duration_s=10, resync_period_s=2.5,
                               link=LinkModel(jitter_bound_s=0.03, drop_probability=0.3)),
                  [(Verb.START, 0), (Verb.START, 2.3), (Verb.STOP, 4.1), (Verb.START, 7.7)])


def primed(scheme, params, commands):
    sim = make_sim(scheme, params, emit_setpoints=True)
    for verb, t in sorted(commands, key=lambda c: c[1]):
        sim.inject_command(verb, t)
    return sim


def run_trace(sim, t_end):
    """servo_trace of the sim's record once it has run to t_end."""
    sim.run_until(t_end)
    return servo_trace(sim.servo_setpoints.groups)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
@given(run=runs())
@example(run=LOSSY_COMMANDS)
@settings(max_examples=40, deadline=None)
def test_trace_and_csv_match_reference(scheme, run):
    params, commands = run
    got = run_trace(primed(scheme, params, commands), params.duration_s)

    ref = primed(scheme, params, commands)
    with mock.patch.object(gait, "setpoints_for_event", reference_expander):
        ref.run_until(params.duration_s)
    want = reference_sort(reference_setpoints(ref.servo_setpoints.groups))

    assert [as_row(s) for s in reference_setpoints(got)] == [as_row(s) for s in want]
    # one entry per instant, in increasing time
    times = [t for t, _ in got]
    assert times == sorted(set(times)) == sorted({s.true_time_s for s in want})
    assert "\n".join(servo_csv_lines(got)) == "\n".join(reference_csv_lines(want))


# small pools, so that drawn rows repeat times and (controller, servo,
# angle) triples; signed zeros, nan and inf among them
CSV_TIMES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1234.5678915, math.nan, math.inf]) | st.floats()
CSV_ANGLES = (st.sampled_from([0.0, -0.0])
              | st.sampled_from([1e-4, -1e-4, 25.0, -30.0, math.nan, -math.inf]) | st.floats())
CSV_ROWS = st.lists(st.tuples(CSV_TIMES, st.sampled_from(list(Controller)),
                              st.sampled_from([0, 6]), CSV_ANGLES), max_size=40)


@given(rows=CSV_ROWS)
# equal times in a run, a time repeated after a different one, -0.0
@example(rows=[(0.5, Controller.M1, 0, 30.0), (0.5, Controller.M2, 6, -0.0),
               (0.25, Controller.M2, 7, 25.0), (0.5, Controller.M1, 1, 1e-4),
               (1234.5678915, Controller.M1, 5, -30.0)])
# 0.0 then -0.0 on one servo in one time run, and the reverse: equal as keys
@example(rows=[(0.5, Controller.M2, 6, 0.0), (0.5, Controller.M2, 6, -0.0),
               (0.5, Controller.M2, 6, 0.0)])
# one servo id under both controllers, with the same angle
@example(rows=[(0.5, Controller.M1, 6, 25.0), (0.5, Controller.M2, 6, 25.0),
               (0.75, Controller.M1, 6, 25.0)])
# a zero time followed by a negative zero time, unsorted times, nan and inf
@example(rows=[(0.0, Controller.M1, 0, 30.0), (-0.0, Controller.M1, 0, 30.0),
               (2.0, Controller.M1, 0, math.nan), (1.0, Controller.M2, 7, math.inf),
               (math.nan, Controller.M2, 7, math.inf), (math.nan, Controller.M2, 7, -0.0)])
def test_csv_formats_each_row_as_reference(rows):
    want = "\n".join(reference_csv_lines([ReferenceSetpoint(*r) for r in rows]))
    # groups built from fresh tuples as they are read, so that a rows tuple
    # the formatter let go of would free its identity for the next one:
    # first each row its own group, then each run of rows whose times have
    # one repr (0.0 and -0.0 format apart) one group
    one_each = ((t, ((controller, servo_id, angle),)) for t, controller, servo_id, angle in rows)
    assert "\n".join(servo_csv_lines(one_each)) == want
    runs = (list(run) for _, run in groupby(rows, key=lambda r: repr(r[0])))
    by_time = ((run[0][0], tuple(row[1:] for row in run)) for run in runs)
    assert "\n".join(servo_csv_lines(by_time)) == want


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
@given(run=runs())
@example(run=LOSSY_COMMANDS)
@settings(max_examples=40, deadline=None)
def test_setpoints_are_emitted_in_nondecreasing_time(scheme, run):
    # servo_trace's sort then only orders each instant's setpoints by servo
    # id, and a consumer could take them as the run emits them
    params, commands = run
    sim = primed(scheme, params, commands)
    sim.run_until(params.duration_s)
    times = [t for t, _ in sim.servo_setpoints.groups]
    assert times == sorted(times)


def counting_expander(returned):
    """gait.setpoints_for_event, appending each return value to returned."""
    expand = gait.setpoints_for_event

    def counted(*args):
        rows = expand(*args)
        returned.append(rows)
        return rows
    return counted


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_expanded_rows_add_up_to_the_record_and_the_csv(scheme, tmp_path):
    # the rows gait.setpoints_for_event returns, as a tracer counts them,
    # number the record's len() and the CSV's rows
    params, commands = LOSSY_COMMANDS
    sim = primed(scheme, params, commands)
    returned = []
    with mock.patch.object(gait, "setpoints_for_event", counting_expander(returned)):
        text = "\n".join(servo_csv_lines(run_trace(sim, params.duration_s))) + "\n"
    counted = sum(map(len, returned))
    assert len(returned) == len(sim.servo_setpoints.groups)
    assert counted > 24 and counted == len(sim.servo_setpoints) == text.count("\n") - 1
    # the same through the command line
    out = tmp_path / "trace.csv"
    returned.clear()
    with mock.patch.object(gait, "setpoints_for_event", counting_expander(returned)):
        assert dispatch(["trace", "--scheme", scheme.value, "--duration-s", "10",
                         "--stop-s", "7.7", "--drop-prob", "0.3", "--out", str(out)]) == 0
    assert sum(map(len, returned)) == out.read_text().count("\n") - 1 > 24


def test_servo_trace_rejects_a_record_that_goes_back_in_time():
    params, commands = LOSSY_COMMANDS
    sim = primed(SchemeId.S2_SYNCHRONIZED, params, commands)
    sim.run_until(5)
    t, rows = sim.servo_setpoints.groups[-1]
    sim.servo_setpoints.groups.append((t - 0.001, rows))
    with pytest.raises(ValueError, match="back in time"):
        servo_trace(sim.servo_setpoints.groups)
