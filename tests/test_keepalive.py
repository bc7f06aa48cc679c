"""The keep-alive window makes exactly what one heap entry per frame would.

PerFrameSim keeps the per-frame keep-alive exchange as the reference: a
child's due entry sends its keep-alive and queues the delivery, and the
delivery's action queues the next due. The window must give the same
samples, flags included, the same resync marks, every frame's sent and
delivered pair and action, the same setpoint groups and each child's slot
grid after every run_until, under both schemes that resync, with a Stop
and a re-Start off every grid and pauses off every grid. Jitter, base
latency and drops push some deliveries past the heap's next event, so both
the inline path and the queued fallback run.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsync.gait import GaitConfig
from hexsync.simnet import GAIT_TIME_REF, LinkModel, Message, SchemeId, SchemeParams, Sim, Verb

RESYNCING = (SchemeId.S2_SYNCHRONIZED, SchemeId.S0_CENTRALIZED)
HORIZON_S = 8


class PerFrameSim(Sim):
    """The keep-alive exchange as one heap entry per frame."""

    def _push(self, t, handler, args):
        # __init__ and _requeue_keepalive queue each due as Sim._handle_keepalive_due
        if handler is Sim._handle_keepalive_due:
            handler = PerFrameSim._handle_one_keepalive
        super()._push(t, handler, args)

    def _handle_one_keepalive(self, child) -> None:
        due = self._last_resync[child.node_id] + self._keepalive
        if due > self._t:
            self._push(due, Sim._handle_keepalive_due, (child,))
            return
        msg = Message(child, (self._t, self._D), None, Sim._requeue_keepalive)
        self.send(msg)
        self._push(msg.delivered[0], Sim._handle_delivery, (msg,))


def gait_period(scheme):
    """The default gait period on the scheme's time reference, exactly."""
    return GaitConfig().period_on(GAIT_TIME_REF[scheme])


@st.composite
def scenarios(draw):
    scheme = draw(st.sampled_from(RESYNCING))
    # 0 three times in four, so equal ppm values are common
    ppm = st.sampled_from([0.0, 0.0, 0.0, -3.7, 1.1, 2.3])
    params = SchemeParams(
        ppm_m1=draw(ppm), ppm_m2=draw(ppm), ppm_root=draw(ppm),
        resync_period_s=draw(st.sampled_from([0.01, 0.05, 1.0, 3.0, gait_period(scheme)])),
        seed=draw(st.integers(0, 2**16)),
        link=LinkModel(base_latency_s=draw(st.sampled_from([0.0, 0.0, 0.0031, 0.125])),
                       jitter_bound_s=draw(st.sampled_from([0.0, 0.0, 0.011, 0.03])),
                       drop_probability=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]))),
        sample_every=draw(st.sampled_from([1, 1, 2])))
    off_grid = st.floats(0.001, HORIZON_S, allow_nan=False).map(Fraction)
    commands = []
    if draw(st.booleans()):
        stop = draw(off_grid)
        commands = [(stop, Verb.STOP), (stop + draw(off_grid) / 4, Verb.START)]
    pauses = sorted(draw(st.lists(off_grid, max_size=4)))
    return scheme, params, draw(st.booleans()), commands, pauses


def replay(cls, scheme, params, emit_setpoints, commands, pauses):
    """Run the scenario; after each pause and at the end, what the run has
    recorded: samples, resync marks, each frame's sent and delivered pair
    and action, the setpoint groups and the children's slot grids."""
    sim = cls(scheme, params, emit_setpoints)
    sent = []
    send = sim.send

    def record(msg):
        send(msg)
        sent.append(msg)

    sim.send = record
    sim.inject_command(Verb.START, 0)
    for t, verb in commands:
        sim.inject_command(verb, t)
    seen = []
    for t in [*pauses, HORIZON_S]:
        sim.run_until(t)
        frames = [(m.dst.node_id, Fraction(*m.sent), Fraction(*m.delivered), m.action)
                  for m in sent]
        seen.append((list(sim.samples), list(sim.resync_marks), frames,
                     list(sim.servo_setpoints.groups),
                     [(c.asn_origin, c.origin_local_ticks) for c in sim.children]))
    return seen


# A 10 ms resync period under 30 ms jitter and 30% drops on a drifting root
# (the run_synchronized_keepalive golden's link): most deliveries land at
# or past the heap's next event and are queued, the rest are made inline,
# and jitter puts each delivery after its send, so a window that counted
# the next due from the send would send it early.
@example((SchemeId.S2_SYNCHRONIZED,
          SchemeParams(ppm_m1=-3.7, ppm_m2=1.1, ppm_root=2.3, resync_period_s=0.01, seed=5,
                       link=LinkModel(jitter_bound_s=0.03, drop_probability=0.3)),
          False, [], [Fraction(31, 10)]))
# ppm-0 clocks on an exact link: every delivery lands on the root's slot
# boundary tick, and keep-alives fall due every gait period, so some
# deliveries land exactly at the heap head's time; they must be queued
# behind it, not made inline.
@example((SchemeId.S2_SYNCHRONIZED,
          SchemeParams(ppm_m1=0.0, ppm_m2=0.0, resync_period_s=gait_period(
              SchemeId.S2_SYNCHRONIZED), link=LinkModel(jitter_bound_s=0.0)),
          False, [], []))
# A Stop and a re-Start off the grid in a setpoint run, with a pause
# between them.
@example((SchemeId.S2_SYNCHRONIZED,
          SchemeParams(resync_period_s=0.05, link=LinkModel(base_latency_s=0.0031)),
          True, [(Fraction(2.3), Verb.STOP), (Fraction(4.71), Verb.START)], [Fraction(3.3)]))
# Centralized: the servo frames resync both children every period, so a
# keep-alive is sent only when a resync period is shorter than the gait's.
@example((SchemeId.S0_CENTRALIZED,
          SchemeParams(resync_period_s=0.05, link=LinkModel(jitter_bound_s=0.011,
                                                           drop_probability=0.1)),
          False, [], [Fraction(1.7)]))
@given(scenario=scenarios())
@settings(max_examples=100, deadline=None)
def test_keepalive_window_matches_per_frame_heap(scenario):
    assert replay(Sim, *scenario) == replay(PerFrameSim, *scenario)


def test_keepalive_window_is_taken():
    # at a 1 s resync period most exchanges take one heap entry, not two
    params = SchemeParams(ppm_m1=-3.7, ppm_m2=1.1, resync_period_s=1.0, duration_s=400,
                          link=LinkModel(drop_probability=0.1))
    counts, marks = [], []
    for cls in (Sim, PerFrameSim):
        sim = cls(SchemeId.S2_SYNCHRONIZED, params)
        sim.inject_command(Verb.START, 0)
        counts.append(sim.run_until(400))
        marks.append(sim.resync_marks)
    assert marks[0] == marks[1] and len(marks[0]) > 750
    assert counts[0] < counts[1] - 700
