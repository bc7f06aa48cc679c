"""Run hexsync's Sim and the exact twin (tests/reference_sim.py) side by side.

check replays one scenario on both and compares, after every run_until,
the samples with their flags, the resync marks, every frame's (node,
sent, delivered), the setpoint groups and each child's slot grid.
scenarios draws such scenarios, over the schemes and run kinds a test
names; example_of writes one by hand for an @example.

With ppm-0 clocks and an exact link, ties are common: deliveries, samples,
keep-alive dues and root periods share instants, where equal-time order
decides. Gait periods below one 15 ms slot keep frames in flight across
root periods.
"""

from fractions import Fraction

from frames import record_frames
from hypothesis import example
from hypothesis import strategies as st
from reference_sim import TIME_REF, RefSim

from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, SchemeId, SchemeParams, Sim, Verb

HORIZON_S = 12
EXACT = dict(ppm_m1=0.0, ppm_m2=0.0, link=LinkModel(jitter_bound_s=0.0))
OPEN_LOOP, SYNCHRONIZED, CENTRALIZED = (SchemeId.S1_OPEN_LOOP, SchemeId.S2_SYNCHRONIZED,
                                        SchemeId.S0_CENTRALIZED)


def recorded(sim, frames):
    """What a run has recorded: samples, resync marks, frames, setpoint
    groups and the children's slot grids."""
    return (list(sim.samples), list(sim.resync_marks), list(frames),
            list(sim.servo_setpoints.groups),
            [(c.asn_origin, c.origin_local_ticks) for c in sim.children])


def check(scheme, params, emit_setpoints, commands, pauses, t_end):
    """Replay the scenario on Sim and on the twin, comparing what each has
    recorded after every pause and at t_end; a pause (t, (delay, verb))
    then injects verb at t + delay."""
    sim, twin = Sim(scheme, params, emit_setpoints), RefSim(scheme, params, emit_setpoints)
    sent = record_frames(sim)
    for s in (sim, twin):
        s.inject_command(Verb.START, 0)
        for t, verb in commands:
            s.inject_command(verb, t)
    for t, during in [*pauses, (t_end, None)]:
        sim.run_until(t)
        twin.run_until(t)
        frames = [(f.dst.node_id, f.sent_true_s, f.delivered_true_s) for f in sent]
        assert recorded(sim, frames) == recorded(twin, twin.frames)
        if during is not None:
            delay, verb = during
            sim.inject_command(verb, t + delay)
            twin.inject_command(verb, t + delay)


@st.composite
def scenarios(draw, schemes=tuple(SchemeId), emit_setpoints=st.booleans()):
    scheme = draw(st.sampled_from(schemes))
    # 0 most of the time, so equal ppm values are common
    ppm = st.sampled_from([0.0, 0.0, 0.0, -3.7, 1.1, 2.3])
    # 0.75 s and 100 slots put every sample on a slot boundary at ppm 0;
    # 8 slots is the shortest ASN period, 1/3 s has no binary expansion,
    # and 0.01 s is under a slot: the costliest period for the twin, so it
    # is drawn least often
    gait = GaitConfig(period_slots=draw(st.sampled_from([68, 68, 100, 12, 8])),
                      period_s=draw(st.sampled_from([0.75, 0.75, 0.75, 1.0, 1.0, 0.7, 0.7,
                                                     Fraction(1, 3), 0.06, 0.06, 0.01])))
    # binary-exact base latencies, so a command sent one latency before an
    # instant arrives on it; the longest keeps frames in flight for seconds
    latency = draw(st.sampled_from([0.0, 0.0, 0.0031, 0.125, 1.625]))
    params = SchemeParams(
        ppm_m1=draw(ppm), ppm_m2=draw(ppm), ppm_root=draw(ppm),
        resync_period_s=draw(st.sampled_from([30.0, 2.25, 1.5, 1.0, 0.51, 0.05])),
        seed=draw(st.integers(0, 2**16)), gait=gait,
        link=LinkModel(base_latency_s=latency,
                       jitter_bound_s=draw(st.sampled_from([0.0, 0.0, 0.011, 0.03])),
                       drop_probability=draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))))
    period = gait.period_on(TIME_REF[scheme])
    # at most 300 gait periods, which cuts only the 0.01 s period short
    horizon = min(HORIZON_S, 300 * period)
    # a period start, a sample instant (mid-period), or a time off every grid
    on_grid = st.builds(lambda j, half: (j + half) * period,
                        st.integers(1, int(horizon / period) - 1),
                        st.sampled_from([0, Fraction(1, 2)]))
    off_grid = st.floats(0.001, float(horizon), allow_nan=False).map(Fraction)
    # a command that lands on such an instant, or up to 10 ms before it
    landing = st.builds(lambda t, early: max(Fraction(0), t - Fraction(latency) - early),
                        on_grid, st.sampled_from([Fraction(0), Fraction(1, 100)]))
    at = st.one_of(off_grid, on_grid, landing)
    verbs = st.sampled_from(list(Verb))
    commands = draw(st.lists(st.tuples(at, verbs), max_size=4))
    pauses = draw(st.lists(
        st.tuples(at, st.none() | st.tuples(st.sampled_from([Fraction(0), Fraction(1, 3)]),
                                            verbs)),
        max_size=3))
    return (scheme, params, draw(emit_setpoints), commands,
            sorted(pauses, key=lambda p: p[0]), horizon)


def example_of(scheme, emit_setpoints=False, commands=(), pauses=(), t_end=HORIZON_S, **params):
    return example(scenario=(scheme, SchemeParams(**params), emit_setpoints, list(commands),
                             list(pauses), t_end))
