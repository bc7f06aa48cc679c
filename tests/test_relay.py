"""The windowed centralized relay makes exactly what one heap entry per root
period would.

PerPeriodSim keeps the per-period relay as the reference: each root period
is its own heap entry, which sends the period's two servo frames, queues
both deliveries and then the next root period; the later delivery records
the sample. The window must give the same samples, flags included, the same
resync marks, every frame's sent and delivered pair, and each child's slot
grid after every run_until, including when a delivery lands exactly on the
next root period, on a keep-alive due time or past a pause. Gait periods
below one 15 ms slot keep frames in flight across root periods, so the
window's fallback to the heap runs too. Setpoint runs, drawn half the
time, take the same window: each delivery applies its child's plan at its
own instant, so the setpoint groups must match too.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, Message, SchemeId, SchemeParams, Sim, Verb

CENTRALIZED = SchemeId.S0_CENTRALIZED
HORIZON_S = 12


class PerPeriodSim(Sim):
    """The centralized relay as one heap entry per root period."""

    def _push(self, t, handler, args):
        # the root's Start queues period 0 as Sim._handle_root_period
        if handler is Sim._handle_root_period:
            handler = PerPeriodSim._handle_one_period
        super()._push(t, handler, args)

    def _handle_one_period(self, gen: int, k: int) -> None:
        if gen != self._gen:
            return
        now = (self._t, self._D)
        action = Sim._apply_plan if self.emit_setpoints else None
        m1, m2 = msgs = [Message(child, now, None, action) for child in self.children]
        for msg in msgs:
            self.send(msg)
            self._push(msg.delivered[0], Sim._handle_delivery, (msg,))
        if not self.emit_setpoints and k % self.params.sample_every == 0:
            d1, d2, D = m1.delivered[0], m2.delivered[0], self._D
            later = m1 if d1 > d2 else m2
            later.body = (max(d1, d2) / D, k, (d2 - d1) * 10**6 / D)
            later.action = Sim._record_sample
        self._push(self._period_start(self.root, k + 1), Sim._handle_root_period, (gen, k + 1))


@st.composite
def scenarios(draw):
    ppm = st.sampled_from([0.0, 0.0, -3.7, 2.3])
    period_s = draw(st.sampled_from([0.75, 0.7, 0.06, 0.01]))
    params = SchemeParams(
        ppm_m1=draw(ppm), ppm_m2=draw(ppm), ppm_root=draw(ppm),
        resync_period_s=draw(st.sampled_from([30.0, 2.25, 0.51])),
        seed=draw(st.integers(0, 2**16)),
        gait=GaitConfig(period_s=period_s),
        link=LinkModel(base_latency_s=draw(st.sampled_from([0.0, 0.0, 0.125])),
                       jitter_bound_s=draw(st.sampled_from([0.0, 0.011, 0.015, 0.03])),
                       drop_probability=draw(st.sampled_from([0.0, 0.1, 0.3]))),
        sample_every=draw(st.integers(1, 3)))
    # a period start, or a time off every grid, which rescales D
    on_period = st.integers(1, int(HORIZON_S / period_s) - 1).map(lambda j: Fraction(period_s) * j)
    off_grid = st.floats(0.001, HORIZON_S, allow_nan=False).map(Fraction)
    at = st.one_of(on_period, off_grid)
    commands = draw(st.lists(st.tuples(at, st.sampled_from(list(Verb))), max_size=4))
    pauses = sorted(draw(st.lists(at, max_size=4)))
    return params, draw(st.booleans()), commands, pauses


def replay(cls, params, emit_setpoints, commands, pauses):
    """Run the scenario; after each pause and at the end, what the run has
    recorded: samples, resync marks, each frame's (sent, delivered) pair,
    the children's slot grids and the setpoint groups."""
    sim = cls(CENTRALIZED, params, emit_setpoints)
    frames = []
    send = sim.send

    def record(msg):
        send(msg)
        frames.append((Fraction(*msg.sent), Fraction(*msg.delivered)))

    sim.send = record
    sim.inject_command(Verb.START, 0)
    for t, verb in commands:
        sim.inject_command(verb, t)
    seen = []
    for t in [*pauses, HORIZON_S]:
        sim.run_until(t)
        seen.append((list(sim.samples), list(sim.resync_marks), list(frames),
                     [(c.asn_origin, c.origin_local_ticks) for c in sim.children],
                     list(sim.servo_setpoints.groups)))
    return seen


EXACT = dict(ppm_m1=0.0, ppm_m2=0.0, link=LinkModel(jitter_bound_s=0.0))


# A one-slot gait period on ppm-0 clocks: some frames land exactly on the
# next root period's start (the first at 0.375 s), which they still precede.
@example((SchemeParams(**EXACT, gait=GaitConfig(period_s=0.015)), False, [], [Fraction(3, 8)]))
# Keep-alives fall due 0.75 s after the last resync, the instant of the next
# period's deliveries: each keep-alive outranks them and is sent.
@example((SchemeParams(ppm_m1=0.0, ppm_m2=0.0, resync_period_s=0.75,
                       gait=GaitConfig(period_s=0.75),
                       link=LinkModel(base_latency_s=0.125, jitter_bound_s=0.0)),
          False, [], []))
# A setpoint run on ppm-0 clocks over an exact link: both servo frames of
# every period land on the same boundary, and m1's plan is applied first.
@example((SchemeParams(**EXACT, gait=GaitConfig(period_s=0.75)), True, [], []))
# A pause between a period's two deliveries: period 0's frame to m1 is
# dropped, so it lands at 26,541 ticks, after m2's at 25,067; the pause is
# at 26,112.
@example((SchemeParams(ppm_m1=0.0, ppm_m2=0.0, seed=5, gait=GaitConfig(period_s=0.75),
                       link=LinkModel(jitter_bound_s=0.0, drop_probability=0.3)),
          False, [], [Fraction(51, 64)]))
# A 10 ms gait period, under one slot: frames land after the next period's
# start, whose frames leave on grids those deliveries have not resynced yet.
@example((SchemeParams(gait=GaitConfig(period_s=0.01), link=LinkModel(jitter_bound_s=0.0)),
          False, [], []))
@given(scenario=scenarios())
@settings(max_examples=150, deadline=None)
def test_window_relay_matches_per_period_heap(scenario):
    assert replay(Sim, *scenario) == replay(PerPeriodSim, *scenario)


def test_relay_window_is_taken():
    # 1,000 root periods: the per-period relay runs a root period and two
    # deliveries each; the window, one entry per cut (keep-alive dues), in a
    # sample run and in a setpoint run alike
    params = SchemeParams(duration_s=1000, link=LinkModel(jitter_bound_s=0.015))
    for emit_setpoints, n_samples, n_groups in ((False, 999, 0), (True, 0, 3996)):
        counts, records = [], []
        for cls in (Sim, PerPeriodSim):
            sim = cls(CENTRALIZED, params, emit_setpoints)
            sim.inject_command(Verb.START, 0)
            counts.append(sim.run_until(1000))
            assert len(sim.samples) == n_samples
            assert len(sim.servo_setpoints.groups) == n_groups
            records.append((sim.samples, sim.resync_marks, sim.servo_setpoints.groups))
        assert records[0] == records[1]
        assert counts[0] <= 400 < 3000 < counts[1]
