"""The window sampler emits exactly the samples one queue entry per sample would.

The exact twin (tests/reference_sim.py) queues each sample as its own
entry; the window sampler must record the same samples, flags included,
after every run_until of a decentralized sample run (a setpoint run
records no samples). It emits every sample within run_until's bound and
no more, so a run paused at any instant has recorded exactly the samples
an unpaused run records up to that instant. Deliveries, keep-alive dues
and commands cut the windows, including when one lands exactly on a
sample's instant. A window on a grid that steps whole ticks per sample is
built as an arithmetic progression; the last test pins which grids do.
"""

from fractions import Fraction

import pytest
from differential import EXACT, OPEN_LOOP, SYNCHRONIZED, check, example_of, scenarios
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, SchemeId, SchemeParams, Sim, Verb

DECENTRALIZED = (SchemeId.S1_OPEN_LOOP, SchemeId.S2_SYNCHRONIZED)


# A Stop in flight lands on the sample instant 10.875 s, which a window
# starting earlier reaches.
@example_of(OPEN_LOOP, commands=[(Fraction(10875, 1000) - Fraction(1625, 1000), Verb.STOP)],
            pauses=[(Fraction(5), None), (Fraction(10875, 1000), (Fraction(0), Verb.START))],
            t_end=40, ppm_m1=0.0, ppm_m2=0.0, gait=GaitConfig(period_s=0.75),
            link=LinkModel(base_latency_s=1.625, jitter_bound_s=0.0))
# Pauses on and between sample instants with keep-alives queued beyond them.
@example_of(SYNCHRONIZED, commands=[(Fraction(173, 10), Verb.START)],
            pauses=[(Fraction(9, 4), None), (Fraction(123, 10), (Fraction(1, 3), Verb.STOP))],
            t_end=40, **EXACT, resync_period_s=2.25, gait=GaitConfig(period_slots=100))
# A Stop and a Start re-arm mid-run (a Start while armed is a no-op); the
# next Stop and Start, in flight, land on the sample instant 6.75 s.
@example_of(SYNCHRONIZED, commands=[(t, verb) for t in (Fraction(423, 200),
                                                         Fraction(27, 4) - Fraction(13, 8))
                                    for verb in (Verb.STOP, Verb.START)],
            t_end=40, ppm_m1=0.0, ppm_m2=0.0, gait=GaitConfig(period_slots=100),
            link=LinkModel(base_latency_s=1.625, jitter_bound_s=0.0))
# Equal clocks on a 1.0 s grid: a progression whose error never moves.
@example_of(OPEN_LOOP, pauses=[(Fraction(7, 2), None)], t_end=40, ppm_m1=-3.7, ppm_m2=-3.7,
            gait=GaitConfig(period_s=1.0))
# The 100-slot grid steps whole ticks per sample; keep-alives every 2.25 s
# resync between samples 1.5 s apart, so each window opens on a flag.
@example_of(SYNCHRONIZED, t_end=120, ppm_m1=-3.7, ppm_m2=1.1, resync_period_s=2.25,
            gait=GaitConfig(period_slots=100))
# A Stop and a re-Start off the grid between two samples 0.75 s apart.
@example_of(OPEN_LOOP, commands=[(Fraction(8, 5), Verb.STOP), (Fraction(17, 10), Verb.START)],
            t_end=40, ppm_m1=-3.7, ppm_m2=1.1, gait=GaitConfig(period_s=0.75))
# Keep-alives every 0.51 s cut every window of the 68-slot gait to one sample.
@example_of(SYNCHRONIZED, t_end=40, ppm_m1=-5.0, ppm_m2=3.7, resync_period_s=0.51,
            gait=GaitConfig(period_slots=68))
@given(scenario=scenarios(DECENTRALIZED, st.just(False)))
@settings(max_examples=50, deadline=None)
def test_window_sampler_matches_per_sample_heap(scenario):
    check(*scenario)


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


class CountedRows(list):
    """A sample list that counts the sampler's per-sample appends and its
    batch extends."""

    def __init__(self):
        super().__init__()
        self.appends = self.extends = 0

    def append(self, row):
        self.appends += 1
        super().append(row)

    def extend(self, rows):
        self.extends += 1
        super().extend(rows)


# A grid takes the progression when a period's 4 quarters are whole
# ticks: 1.0 s is 32768 ticks and 0.75 s 24576; a slot is 12288/25 ticks,
# so 100 slots are whole ticks, and 68 slots are not.
@pytest.mark.parametrize("scheme, gait, progression", [
    (OPEN_LOOP, GaitConfig(period_s=1.0), True),
    (OPEN_LOOP, GaitConfig(period_s=0.75), True),
    (SYNCHRONIZED, GaitConfig(period_slots=100), True),
    (OPEN_LOOP, GaitConfig(period_s=0.7), False),
    (OPEN_LOOP, GaitConfig(period_s=Fraction(1, 3)), False),
    (SYNCHRONIZED, GaitConfig(period_slots=68), False),
], ids=["1.0s", "0.75s", "100slots", "0.7s", "1/3s", "68slots"])
def test_whole_tick_grids_take_the_progression(scheme, gait, progression):
    sim = Sim(scheme, SchemeParams(ppm_m1=-3.7, ppm_m2=1.1, gait=gait))
    sim.samples = rows = CountedRows()
    sim.inject_command(Verb.START, 0)
    sim.run_until(200)
    assert len(rows) > 5
    if progression:
        assert rows.appends == 0 and rows.extends > 0
    else:
        assert rows.appends == len(rows) and rows.extends == 0
