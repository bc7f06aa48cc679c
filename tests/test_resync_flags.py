"""A sample's resync flag says what the event loop did, not what times suggest.

LoggingSim logs every append to its samples and to its resync marks into
one shared sequence, in the order the loop makes them. The oracle reads
that sequence: a sample's flag must be 1 exactly when a mark was appended
after the previous sample (for the first sample: since the run began).
With ppm-0 clocks, deliveries and samples often share an instant, which is
where rules based on comparing times go wrong.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsync.cli import dispatch, read_trace_csv
from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, SchemeId, SchemeParams, Sim, Verb

HORIZON_S = 40


class _LoggedList(list):
    """A list whose appends are also logged, with a tag, into a shared log."""

    def __init__(self, tag, log):
        super().__init__()
        self.tag, self.log = tag, log

    def append(self, item):
        self.log.append((self.tag, item))
        super().append(item)


class LoggingSim(Sim):
    def __init__(self, scheme, params, emit_setpoints=False):
        super().__init__(scheme, params, emit_setpoints)
        self.log = []
        self.samples = _LoggedList("sample", self.log)
        self.resync_marks = _LoggedList("mark", self.log)


def oracle_flags(log):
    """Each sample's flag: was a mark appended since the previous sample?"""
    flags, marked = [], False
    for tag, _ in log:
        if tag == "mark":
            marked = True
        else:
            flags.append(1 if marked else 0)
            marked = False
    return flags


@st.composite
def scenarios(draw):
    scheme = draw(st.sampled_from(list(SchemeId)))
    # 100 slots and 0.75 s put every sample on a slot boundary at ppm 0
    gait = GaitConfig(period_slots=draw(st.sampled_from([68, 100, 8])),
                      period_s=draw(st.sampled_from([0.75, 1.0, 0.06])))
    params = SchemeParams(
        ppm_m1=draw(st.sampled_from([0.0, 0.0, -5.0])),
        ppm_m2=draw(st.sampled_from([0.0, 0.0, 3.7])),
        ppm_root=draw(st.sampled_from([0.0, 0.0, 1.1])),
        resync_period_s=draw(st.sampled_from([30.0, 2.25, 1.5, 0.51])),
        seed=draw(st.integers(0, 2**16)),
        gait=gait,
        link=LinkModel(base_latency_s=draw(st.sampled_from([0.0, 0.125])),
                       jitter_bound_s=draw(st.sampled_from([0.0, 0.0, 0.011, 0.03])),
                       drop_probability=draw(st.sampled_from([0.0, 0.0, 0.3]))),
        sample_every=draw(st.sampled_from([1, 1, 3])))
    times = st.integers(1, 4 * HORIZON_S).map(lambda i: Fraction(i, 4))
    commands = draw(st.lists(st.tuples(times, st.sampled_from(list(Verb))), max_size=3))
    pauses = sorted(draw(st.lists(times, max_size=3)))
    return scheme, params, commands, pauses


# ppm 0 at 100 slots: sample k sits on slot boundary 100k + 50, and a
# 2.25 s keep-alive lands on one every 9 samples
@example((SchemeId.S2_SYNCHRONIZED,
          SchemeParams(ppm_m1=0.0, ppm_m2=0.0, resync_period_s=2.25,
                       gait=GaitConfig(period_slots=100), link=LinkModel(jitter_bound_s=0.0)),
          [], [Fraction(45, 4)]))
@example((SchemeId.S0_CENTRALIZED,
          SchemeParams(ppm_m1=0.0, ppm_m2=0.0, gait=GaitConfig(period_s=0.06),
                       link=LinkModel(jitter_bound_s=0.03, drop_probability=0.3)),
          [(Fraction(7), Verb.STOP), (Fraction(9), Verb.START)], []))
@given(scenario=scenarios())
@settings(max_examples=100, deadline=None)
def test_resync_flags_follow_the_event_order(scenario):
    scheme, params, commands, pauses = scenario
    sim = LoggingSim(scheme, params)
    sim.inject_command(Verb.START, 0)
    for t, verb in commands:
        sim.inject_command(verb, t)
    for t in pauses:
        sim.run_until(t)
    sim.run_until(HORIZON_S)
    assert [s[3] for s in sim.samples] == oracle_flags(sim.log)


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
    sim = LoggingSim(SchemeId.S2_SYNCHRONIZED,
                     SchemeParams(ppm_m1=0.0, ppm_m2=0.0, duration_s=2000,
                                  resync_period_s=1.5, link=LinkModel(drop_probability=0.3)))
    sim.inject_command(Verb.START, 0)
    sim.run_until(2000)
    pos = {item[1]: i for i, (tag, item) in enumerate(sim.log) if tag == "sample"}
    at = [i for i, (tag, t) in enumerate(sim.log) if tag == "mark" and t == 1466.25]
    assert at and all(pos[1436] < i < pos[1437] for i in at)
