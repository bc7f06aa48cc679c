"""The windowed centralized relay makes exactly what one queue entry per
root period would, in far fewer entries.

The exact twin (tests/reference_sim.py) runs each root period as its own
entry, which sends the period's two servo frames and queues both
deliveries and then the next root period. The window must record exactly
what the twin does after every run_until, in sample and setpoint runs,
including when a delivery lands exactly on the next root period, on a
keep-alive due time or past a pause; gait periods below one 15 ms slot
keep frames in flight across root periods, so the window's fallback to
the heap runs too. The last test checks that the window is taken.
"""

from fractions import Fraction

from differential import CENTRALIZED, EXACT, check, example_of, scenarios
from hypothesis import given, settings
from reference_sim import RefSim

from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, SchemeParams, Sim, Verb


# A one-slot gait period on ppm-0 clocks: some frames land exactly on the
# next root period's start (the first at 0.375 s), which they still precede.
@example_of(CENTRALIZED, pauses=[(Fraction(3, 8), None)], **EXACT,
            gait=GaitConfig(period_s=0.015))
# Keep-alives fall due 0.75 s after the last resync, the instant of the next
# period's deliveries: each keep-alive outranks them and is sent.
@example_of(CENTRALIZED, ppm_m1=0.0, ppm_m2=0.0, resync_period_s=0.75,
            gait=GaitConfig(period_s=0.75),
            link=LinkModel(base_latency_s=0.125, jitter_bound_s=0.0))
# A setpoint run on ppm-0 clocks over an exact link: both servo frames of
# every period land on the same boundary, and m1's plan is applied first.
@example_of(CENTRALIZED, True, **EXACT, gait=GaitConfig(period_s=0.75))
# A pause between a period's two deliveries: period 0's frame to m1 is
# dropped, so it lands at 26,541 ticks, after m2's at 25,067; the pause is
# at 26,112.
@example_of(CENTRALIZED, pauses=[(Fraction(51, 64), None)], ppm_m1=0.0, ppm_m2=0.0, seed=5,
            gait=GaitConfig(period_s=0.75),
            link=LinkModel(jitter_bound_s=0.0, drop_probability=0.3))
# A 10 ms gait period, under one slot: frames land after the next period's
# start, whose frames leave on grids those deliveries have not resynced yet.
@example_of(CENTRALIZED, gait=GaitConfig(period_s=0.01), link=LinkModel(jitter_bound_s=0.0))
@given(scenario=scenarios((CENTRALIZED,)))
@settings(max_examples=50, deadline=None)
def test_window_relay_matches_per_period_heap(scenario):
    check(*scenario)


def test_relay_window_is_taken():
    # 1,000 root periods: the twin runs a root period and two deliveries
    # each; the window, one entry per cut (keep-alive dues), in a sample
    # run and in a setpoint run alike
    params = SchemeParams(duration_s=1000, link=LinkModel(jitter_bound_s=0.015))
    for emit_setpoints, n_samples, n_groups in ((False, 999, 0), (True, 0, 3996)):
        counts, records = [], []
        for cls in (Sim, RefSim):
            sim = cls(CENTRALIZED, params, emit_setpoints)
            sim.inject_command(Verb.START, 0)
            counts.append(sim.run_until(1000))
            assert len(sim.samples) == n_samples
            assert len(sim.servo_setpoints.groups) == n_groups
            records.append((sim.samples, sim.resync_marks, sim.servo_setpoints.groups))
        assert records[0] == records[1]
        assert counts[0] <= 400 < 3000 < counts[1]
