"""The phase window fires exactly the phases one queue entry per phase would,
in one entry per window.

The exact twin (tests/reference_sim.py) queues each gait phase of a
decentralized setpoint run as its own entry, and a child's last phase of
a period queues the child's next period. The window must record exactly
what the twin does after every run_until, in both decentralized schemes:
the children's phases merged in (time, seq) order, including when both
children fire at one instant, each period's phase times fixed when it is
queued even if a resync lands before they fire, and the window cut by
deliveries, commands and pauses. The last test checks that the window is
taken.
"""

from fractions import Fraction

from differential import EXACT, OPEN_LOOP, SYNCHRONIZED, check, example_of, scenarios
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_sim import RefSim

from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, SchemeParams, Sim, Verb

FOUR_TICKS = GaitConfig(period_s=Fraction(4, 32768))


# A 4-tick gait on clocks 50,000 : 50,001 apart: m1 fires the even ticks
# and m2 the odd ones, so m1's tick 50,000 and m2's tick 50,001 fire at one
# instant (1.5259 s), where m1's phase, queued first, fires first.
@example_of(OPEN_LOOP, True, t_end=Fraction(153, 100), ppm_m1=-10.0,
            ppm_m2=Fraction(49999, 5000), gait=FOUR_TICKS)
# Keep-alives every 50 ms on drifting clocks: resyncs land between the
# instant a period's phases are fixed and the instants they fire at.
@example_of(SYNCHRONIZED, True, t_end=8, ppm_m1=-3.7, ppm_m2=1.1, ppm_root=2.3,
            resync_period_s=0.05, link=LinkModel(drop_probability=0.2))
# A pause off every grid rescales D while phases are pending, and so does
# the (no-op) Start it injects at another denominator.
@example_of(SYNCHRONIZED, True, pauses=[(Fraction(2345, 1001), (Fraction(1, 17), Verb.START))],
            t_end=8, ppm_m1=-3.7, ppm_m2=1.1, resync_period_s=1.0,
            gait=GaitConfig(period_slots=12))
# Pauses exactly on phase instants (period 0 starts at 0.75 s, a phase
# every 0.1875 s on ppm-0 clocks), the second injecting a Stop there.
@example_of(OPEN_LOOP, True, pauses=[(Fraction(3, 2), None),
                                     (Fraction(51, 16), (Fraction(0), Verb.STOP))],
            t_end=6, **EXACT, gait=GaitConfig(period_s=0.75))
# A Stop and a re-Start off the grid in the one window of an open-loop run.
@example_of(OPEN_LOOP, True, [(Fraction(2.3), Verb.STOP), (Fraction(4.71), Verb.START)],
            t_end=8, ppm_m1=-3.7, ppm_m2=1.1, gait=GaitConfig(period_s=0.7),
            link=LinkModel(base_latency_s=0.0031))
@given(scenario=scenarios((OPEN_LOOP, SYNCHRONIZED), st.just(True)))
@settings(max_examples=50, deadline=None)
def test_phase_window_matches_per_phase_heap(scenario):
    check(*scenario)


def test_phase_window_is_taken():
    # the servo-trace workload's command: 1,000 s with a Stop at 900 s; the
    # twin takes an entry per phase, the window one per cut (keep-alive
    # deliveries and the Stop)
    params = SchemeParams(duration_s=1000, link=LinkModel(drop_probability=0.1))
    counts, groups = [], []
    for cls in (Sim, RefSim):
        sim = cls(SYNCHRONIZED, params, True)
        sim.inject_command(Verb.START, 0)
        sim.inject_command(Verb.STOP, 900)
        counts.append(sim.run_until(1000))
        groups.append(sim.servo_setpoints.groups)
    assert groups[0] == groups[1] and len(groups[0]) > 3500
    assert counts[0] <= 200 < 3500 < counts[1]
