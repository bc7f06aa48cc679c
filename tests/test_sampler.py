"""The window sampler emits exactly the samples one heap entry per sample would.

PerSampleSim keeps the per-sample heap sampler as the reference: sample k
is its own heap entry, queued when sample k - sample_every runs, and it
flags a sample as resynced when a resync mark was appended since the
previous sample. The window sampler must give the same samples, flags
included, in the same order, after every run_until, including when a
delivery, a command or a pause lands exactly on a sample's time. Every
scenario is a sample run: a setpoint run records no samples and never
starts the sampler, so it would compare two empty lists. Deliveries,
keep-alive dues and commands cut the windows, and keep-alives every
0.51 s cut every window of a 68-slot synchronized gait to one sample (an
explicit example below).
With ppm-0 clocks ties are common: at 0.75 s (free-running) or 100 slots
(ASN) every sample sits on a slot boundary, and at 68 slots every 25th
does (12.75 s is slot 850, tick 417,792).
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsync.clock import tick_gap_us
from hexsync.gait import GaitConfig, event_tick
from hexsync.simnet import (
    GAIT_TIME_REF,
    LinkModel,
    SchemeId,
    SchemeParams,
    Sim,
    Verb,
)

DECENTRALIZED = (SchemeId.S1_OPEN_LOOP, SchemeId.S2_SYNCHRONIZED)
HORIZON_S = 40


class PerSampleSim(Sim):
    """The decentralized sampler as one heap entry per sample."""

    _marks_sampled = 0  # len(resync_marks) when the last sample was recorded

    def _start_sampler(self) -> None:
        self._sample_origin = self.children[0].gait.arm_period_index
        self._push(self._sample_time(0), PerSampleSim._handle_sample, (self._gen, 0))

    def _sample_time(self, k: int) -> int:
        p_num, p_den = self._period_ratio
        return (2 * (self._sample_origin + k) + 1) * p_num * (self._D // (2 * p_den))

    def _handle_sample(self, gen: int, k: int) -> None:
        if gen != self._gen:
            return
        m1, m2 = self.children
        err = tick_gap_us(m1.clock, event_tick(m1, k, 0), m2.clock, event_tick(m2, k, 0))
        marks = len(self.resync_marks)
        resync = 1 if marks > self._marks_sampled else 0
        self._marks_sampled = marks
        self.samples.append((self._t / self._D, k, err, resync))
        k_next = k + self.params.sample_every
        self._push(self._sample_time(k_next), PerSampleSim._handle_sample, (gen, k_next))


def mid_period(scheme, gait, j):
    """The true time of a sample instant: (j + 1/2) gait periods."""
    return gait.period_on(GAIT_TIME_REF[scheme]) * (2 * j + 1) / 2


@st.composite
def scenarios(draw):
    scheme = draw(st.sampled_from(DECENTRALIZED))
    gait = GaitConfig(period_slots=draw(st.sampled_from([68, 100, 8])),
                      period_s=draw(st.sampled_from([0.75, 1.0, 0.06])))
    # binary-exact latencies, so a command sent a latency before a sample
    # instant arrives on it; the longer ones keep frames in flight across
    # several samples
    latency = draw(st.sampled_from([0.0, 0.125, 1.625, 3.0]))
    # weighted towards ppm 0 and an exact link, which make the ties
    params = SchemeParams(
        ppm_m1=draw(st.sampled_from([0.0, 0.0, 0.0, -5.0])),
        ppm_m2=draw(st.sampled_from([0.0, 0.0, 0.0, 3.7])),
        ppm_root=draw(st.sampled_from([0.0, 0.0, 0.0, 1.1])),
        resync_period_s=draw(st.sampled_from([30.0, 2.25, 1.5, 0.51])),
        seed=draw(st.integers(0, 2**16)),
        gait=gait,
        link=LinkModel(base_latency_s=latency,
                       jitter_bound_s=draw(st.sampled_from([0.0, 0.0, 0.0, 0.011])),
                       drop_probability=draw(st.sampled_from([0.0, 0.0, 0.25]))),
        sample_every=draw(st.sampled_from([1, 3])))
    n_samples = int(HORIZON_S / gait.period_on(GAIT_TIME_REF[scheme]))
    on_sample = st.builds(lambda j: mid_period(scheme, gait, j), st.integers(0, n_samples - 1))
    off_grid = st.floats(0.001, HORIZON_S, allow_nan=False).map(Fraction)
    # a command that arrives on a sample instant, or up to 10 ms before it
    landing = st.builds(lambda t, early: max(Fraction(0), t - Fraction(latency) - early),
                        on_sample, st.sampled_from([Fraction(0), Fraction(1, 100)]))
    verbs = st.sampled_from(list(Verb))
    commands = draw(st.lists(st.tuples(st.one_of(off_grid, landing, landing), verbs),
                             max_size=4))
    pauses = draw(st.lists(
        st.tuples(st.one_of(off_grid, on_sample),
                  st.none() | st.tuples(st.sampled_from([Fraction(0), Fraction(1, 3)]), verbs)),
        max_size=4))
    return scheme, params, commands, sorted(pauses, key=lambda p: p[0])


def replay(cls, scheme, params, commands, pauses):
    """Run the scenario as a sample run; the samples and resync marks
    after each pause."""
    sim = cls(scheme, params)
    sim.inject_command(Verb.START, 0)
    for t, verb in commands:
        sim.inject_command(verb, t)
    seen = []
    for t, during in pauses:
        sim.run_until(t)
        seen.append((list(sim.samples), list(sim.resync_marks)))
        if during is not None:
            delay, verb = during
            sim.inject_command(verb, t + delay)
    sim.run_until(HORIZON_S)
    seen.append((sim.samples, sim.resync_marks))
    return seen


# A Stop in flight lands on the sample instant 10.875 s, which a window
# starting earlier reaches.
@example((SchemeId.S1_OPEN_LOOP,
          SchemeParams(ppm_m1=0.0, ppm_m2=0.0, gait=GaitConfig(period_s=0.75),
                       link=LinkModel(base_latency_s=1.625, jitter_bound_s=0.0)),
          [(Fraction(10875, 1000) - Fraction(1625, 1000), Verb.STOP)],
          [(Fraction(5), None), (Fraction(10875, 1000), (Fraction(0), Verb.START))]))
# Pauses on and between sample instants with keep-alives queued beyond them.
@example((SchemeId.S2_SYNCHRONIZED,
          SchemeParams(ppm_m1=0.0, ppm_m2=0.0, resync_period_s=2.25,
                       gait=GaitConfig(period_slots=100),
                       link=LinkModel(jitter_bound_s=0.0)),
          [(Fraction(173, 10), Verb.START)],
          [(Fraction(9, 4), None), (Fraction(123, 10), (Fraction(1, 3), Verb.STOP))]))
# A Stop and a Start re-arm mid-run (a Start while armed is a no-op); the
# next Stop and Start, in flight, land on the sample instant 6.75 s.
@example((SchemeId.S2_SYNCHRONIZED,
          SchemeParams(ppm_m1=0.0, ppm_m2=0.0, gait=GaitConfig(period_slots=100),
                       link=LinkModel(base_latency_s=1.625, jitter_bound_s=0.0)),
          [(t, verb) for t in (Fraction(423, 200), Fraction(27, 4) - Fraction(13, 8))
           for verb in (Verb.STOP, Verb.START)],
          []))
# Keep-alives every 0.51 s cut every window of the 68-slot gait to one sample.
@example((SchemeId.S2_SYNCHRONIZED,
          SchemeParams(ppm_m1=-5.0, ppm_m2=3.7, resync_period_s=0.51,
                       gait=GaitConfig(period_slots=68)),
          [], []))
@given(scenario=scenarios())
@settings(max_examples=150, deadline=None)
def test_window_sampler_matches_per_sample_heap(scenario):
    assert replay(Sim, *scenario) == replay(PerSampleSim, *scenario)


def test_pause_holds_exactly_the_samples_up_to_its_bound():
    for scheme in DECENTRALIZED:
        params = SchemeParams(ppm_m1=-5.0, ppm_m2=3.7, resync_period_s=7.3)
        full = Sim(scheme, params)
        paused = Sim(scheme, params)
        for sim in (full, paused):
            sim.inject_command(Verb.START, 0)
            # keeps a later event queued in the open-loop heap as well
            sim.inject_command(Verb.START, 95.3)
        full.run_until(100)
        assert len(full.samples) > 90
        for t in (0.9, 2.0, 17.3, 17.3, 41.77, 63.001, 99.99):
            paused.run_until(t)
            assert paused.samples == [s for s in full.samples if s[0] <= t]
