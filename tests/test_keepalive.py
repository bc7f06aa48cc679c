"""The keep-alive window makes exactly what one queue entry per frame would,
in one entry per exchange, not two.

The exact twin (tests/reference_sim.py) runs a child's keep-alive exchange
as two entries: the due entry sends the keep-alive and queues the
delivery, and the delivery's action queues the next due. The window must
record exactly what the twin does after every run_until, under both
schemes that resync; jitter, base latency and drops push some deliveries
past the queue's next entry, so both the inline path and the queued
fallback run. The last test checks that the window is taken.
"""

from fractions import Fraction

from differential import CENTRALIZED, EXACT, SYNCHRONIZED, check, example_of, scenarios
from hypothesis import given, settings
from reference_sim import RefSim

from hexsync.simnet import LinkModel, SchemeId, SchemeParams, Sim, Verb


# A 10 ms resync period under 30 ms jitter and 30% drops on a drifting root
# (the run_synchronized_keepalive golden's link): most deliveries land at
# or past the queue's next entry, the rest are made inline, and jitter
# puts each delivery after its send, so a window that counted the next due
# from the send would send it early.
@example_of(SYNCHRONIZED, pauses=[(Fraction(31, 10), None)], t_end=8,
            ppm_m1=-3.7, ppm_m2=1.1, ppm_root=2.3, resync_period_s=0.01, seed=5,
            link=LinkModel(jitter_bound_s=0.03, drop_probability=0.3))
# ppm-0 clocks on an exact link: every delivery lands on the root's slot
# boundary tick, and keep-alives fall due every gait period, so some
# deliveries land exactly at the queue head's time; they must be queued
# behind it, not made inline.
@example_of(SYNCHRONIZED, t_end=8, **EXACT, resync_period_s=Fraction(51, 50))
# A Stop and a re-Start off the grid in a setpoint run, with a pause
# between them.
@example_of(SYNCHRONIZED, True, [(Fraction(2.3), Verb.STOP), (Fraction(4.71), Verb.START)],
            [(Fraction(3.3), None)], t_end=8, resync_period_s=0.05,
            link=LinkModel(base_latency_s=0.0031))
# Centralized: the servo frames resync both children every period, so a
# keep-alive is sent only when a resync period is shorter than the gait's.
@example_of(CENTRALIZED, pauses=[(Fraction(1.7), None)], t_end=8, resync_period_s=0.05,
            link=LinkModel(jitter_bound_s=0.011, drop_probability=0.1))
@given(scenario=scenarios((SYNCHRONIZED, CENTRALIZED)))
@settings(max_examples=50, deadline=None)
def test_keepalive_window_matches_per_frame_heap(scenario):
    check(*scenario)


def test_keepalive_window_is_taken():
    # at a 1 s resync period most exchanges take one queue entry, not two
    params = SchemeParams(ppm_m1=-3.7, ppm_m2=1.1, resync_period_s=1.0, duration_s=400,
                          link=LinkModel(drop_probability=0.1))
    counts, marks = [], []
    for cls in (Sim, RefSim):
        sim = cls(SchemeId.S2_SYNCHRONIZED, params)
        sim.inject_command(Verb.START, 0)
        counts.append(sim.run_until(400))
        marks.append(sim.resync_marks)
    assert marks[0] == marks[1] and len(marks[0]) > 750
    assert counts[0] < counts[1] - 700
