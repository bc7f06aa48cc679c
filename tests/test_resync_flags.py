"""A sample's resync flag says what the event loop did, not what times suggest.

A sample's flag must be 1 exactly when a resync mark was appended after
the previous sample (for the first sample: since the run began). With
ppm-0 clocks, deliveries and samples often share an instant, which is
where rules based on comparing times go wrong. The exact twin
(tests/reference_sim.py) sets each flag in the order its one-entry-per-
event queue appends samples and marks, and every flag of a sample run, in
all three schemes, must equal the twin's; the twin also keeps one log of
its samples and marks in that order, which
test_resync_at_a_sample_instant_is_credited_to_the_next_sample reads.
"""

from fractions import Fraction

from differential import CENTRALIZED, EXACT, SYNCHRONIZED, check, example_of, scenarios
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_sim import RefSim
from trace_csv import read_trace_csv

from hexsync.cli import dispatch
from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, SchemeId, SchemeParams, Verb


def run_rows(tmp_path, *argv):
    out = tmp_path / "run.csv"
    assert dispatch(["run", *argv, "--out", str(out)]) == 0
    return read_trace_csv(str(out))


def test_every_centralized_row_follows_its_resync(tmp_path):
    # the centralized-relay workload: each sample is taken at the delivery
    # that resyncs its child, including k = 477, 701 and 711, whose sample
    # times, rounded down to the microsecond, fall before their own marks
    rows = run_rows(tmp_path, "--scheme", "centralized", "--duration-s", "1000",
                    "--jitter-s", "0.015", "--seed", "1")
    assert len(rows) == 999
    assert all(r[3] == 1 for r in rows)


def test_resync_at_a_sample_instant_is_credited_to_the_next_sample(tmp_path):
    argv = ("--scheme", "synchronized", "--ppm-m1", "0", "--ppm-m2", "0",
            "--duration-s", "2000", "--resync-period-s", "1.5", "--drop-prob", "0.3")
    flags = {r[1]: r[3] for r in run_rows(tmp_path, *argv)}
    assert flags[1436] == flags[1437] == 1
    # sample 1436 pops before the delivery at its own instant, 1466.25 s,
    # so the mark falls between samples 1436 and 1437
    sim = RefSim(SchemeId.S2_SYNCHRONIZED,
                 SchemeParams(ppm_m1=0.0, ppm_m2=0.0, duration_s=2000,
                              resync_period_s=1.5, link=LinkModel(drop_probability=0.3)))
    sim.inject_command(Verb.START, 0)
    sim.run_until(1470)  # past sample 1437's instant, 1438.5 gait periods of 1.02 s
    pos = {item[1]: i for i, (tag, item) in enumerate(sim.log) if tag == "sample"}
    at = [i for i, (tag, t) in enumerate(sim.log) if tag == "mark" and t == 1466.25]
    assert at and all(pos[1436] < i < pos[1437] for i in at)


# ppm 0 at 100 slots: sample k sits on slot boundary 100k + 50, and a
# 2.25 s keep-alive lands on one every 9 samples.
@example_of(SYNCHRONIZED, pauses=[(Fraction(45, 4), None)], t_end=40, **EXACT,
            resync_period_s=2.25, gait=GaitConfig(period_slots=100))
@example_of(CENTRALIZED, commands=[(Fraction(7), Verb.STOP), (Fraction(9), Verb.START)],
            t_end=40, ppm_m1=0.0, ppm_m2=0.0, gait=GaitConfig(period_s=0.06),
            link=LinkModel(jitter_bound_s=0.03, drop_probability=0.3))
@given(scenario=scenarios(emit_setpoints=st.just(False)))
@settings(max_examples=50, deadline=None)
def test_resync_flags_follow_the_event_order(scenario):
    check(*scenario)
