"""simnet's integer simulation time equals the Fraction formulas it replaced.

Inside a Sim, time is an int over a per-sim denominator D. These tests
check that a frame's delivery slot is the one the old Fraction formula
chose (ref_delivery, the exact twin's definition in tests/reference_sim.py),
that pausing a run at times off D's grid (which rescales D) changes
nothing, and that the event loop itself builds no Fraction and does no
Fraction arithmetic or comparison. Frames carry integer pairs; their
exact Fraction times are built only when read.
"""

import hashlib
from fractions import Fraction

import pytest
from frames import record_frames
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_sim import ref_attempts, ref_delivery

from hexsync.clock import as_ratio
from hexsync.gait import GaitConfig
from hexsync.simnet import (
    GAIT_TIME_REF,
    LinkModel,
    Message,
    SchemeId,
    SchemeParams,
    Sim,
    Verb,
    make_sim,
)
from hexsync.tsch import asn_at, resync_to_parent, slot_boundary_true_time

SLOT = Fraction(15, 1000)
ppms = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@given(ppm=ppms, root_ppm=ppms, seed=st.integers(0, 10**6),
       t_sync=st.one_of(st.none(), st.floats(min_value=1, max_value=1e4)),
       sent=st.floats(min_value=0, max_value=1e4),
       base=st.floats(min_value=0, max_value=0.05),
       jitter=st.floats(min_value=0, max_value=0.05),
       drop=st.sampled_from([0.0, 0.3, 0.9]),
       on_boundary=st.booleans(), slots_ahead=st.integers(0, 100))
@settings(max_examples=300, deadline=None)
def test_delivery_slot_matches_fraction_formula(ppm, root_ppm, seed, t_sync, sent, base,
                                                jitter, drop, on_boundary, slots_ahead):
    link = LinkModel(base_latency_s=base, jitter_bound_s=0.0 if on_boundary else jitter,
                     drop_probability=drop)
    sim = make_sim(SchemeId.S2_SYNCHRONIZED,
                   SchemeParams(ppm_m1=ppm, ppm_root=root_ppm, seed=seed, link=link))
    dst = sim.children[0]
    sent_true = Fraction(sent)
    if t_sync is not None:
        # as in a run, the frame leaves after the child's last resync
        resync_to_parent(dst, sim.root, t_sync)
        sent_true += Fraction(t_sync)
    target = None
    if on_boundary:
        # send so that the arrival falls exactly on one of dst's boundary ticks
        lead = ref_attempts(link, seed, 0) * SLOT + Fraction(base)
        target = slot_boundary_true_time(dst, asn_at(dst, sent_true + lead) + 1 + slots_ahead)
        sent_true = target - lead
    expected = ref_delivery(dst, sent_true, link, seed, 0)
    msg = Message(dst, sent_true)
    sim.send(msg)
    assert msg.delivered_true_s == expected
    if on_boundary:
        assert expected == target


# -- rescaling D ----------------------------------------------------------------

@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_pausing_off_the_grid_changes_nothing(scheme):
    # every pause has a new prime in its denominator, so each one grows D
    # and rescales whatever is queued or pending; the run must not notice
    # a sample run and a setpoint run, so each output is checked where it is recorded
    params = SchemeParams(ppm_m1=-3.7, ppm_m2=1.1, ppm_root=2.3, resync_period_s=2.5,
                          seed=3, link=LinkModel(jitter_bound_s=0.011, drop_probability=0.2))
    primes = [p for p in range(3, 5000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    for emit_setpoints in (False, True):
        straight = make_sim(scheme, params, emit_setpoints)
        straight.inject_command(Verb.START, 0)
        straight.run_until(30)
        paused = make_sim(scheme, params, emit_setpoints)
        paused.inject_command(Verb.START, 0)
        for i, p in enumerate(primes[:599], start=1):
            paused.run_until(Fraction(i, 20) + Fraction(1, 40 * p))
        paused.run_until(30)
        assert paused.now == straight.now == 30
        assert straight.servo_setpoints.groups if emit_setpoints else straight.samples
        assert straight.resync_marks or scheme is SchemeId.S1_OPEN_LOOP
        assert paused.samples == straight.samples
        assert paused.resync_marks == straight.resync_marks
        assert paused.servo_setpoints.groups == straight.servo_setpoints.groups


@pytest.mark.parametrize("emit_setpoints", [False, True], ids=["samples", "setpoints"])
@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_rescale_scales_every_stored_int(scheme, emit_setpoints):
    # a rescale recomputes nothing: each int it stores over D is multiplied
    # by D' / D, so each still equals its definition over the new D
    factors = []

    class CheckedSim(Sim):
        def _rescale(self, den):
            D, t, t_end = self._D, self._t, self._t_end
            heap = {seq: key for key, seq, *_ in self._heap}
            last = dict(self._last_resync)
            super()._rescale(den)
            f = self._D // D
            assert self._D == D * f and self._D % den == 0
            assert (self._t, self._t_end) == (t * f, t_end * f)
            assert {seq: key for key, seq, *_ in self._heap} == {
                seq: key * f for seq, key in heap.items()}
            assert self._last_resync == {node: t * f for node, t in last.items()}
            factors.append(f)

    params = SchemeParams(ppm_m1=-3.7, ppm_m2=1.1, ppm_root=2.3, resync_period_s=2.5,
                          seed=3, gait=GaitConfig(period_slots=12, period_s=0.75),
                          link=LinkModel(jitter_bound_s=0.011, drop_probability=0.2))
    sim = CheckedSim(scheme, params, emit_setpoints)
    period = as_ratio(params.gait.period_on(GAIT_TIME_REF[scheme]))
    keepalive = as_ratio(params.resync_period_s)
    # each off-grid time but the last brings D a new factor: a 7, the power
    # of 2 of the float 12.3, and the primes 10007 and 10009; the float 20.7
    # needs no more than 12.3's power of 2, so it rescales nothing
    steps = [(sim.inject_command, Verb.START, 0), (sim.run_until, Fraction(1, 7)),
             (sim.inject_command, Verb.STOP, 12.3), (sim.run_until, Fraction(10**5, 10007)),
             (sim.inject_command, Verb.START, Fraction(14 * 10**4, 10009)),
             (sim.run_until, 20.7)]

    def check_definitions():
        D = sim._D
        for node in (sim.root, *sim.children):
            assert sim._tick_unit[node] == node.clock.rate_den * (D // node.clock.rate_num)
        for value, (num, den) in ((sim._keepalive, keepalive), (sim._period, period)):
            assert value == num * (D // den)

    check_definitions()
    for step, *args in steps:
        step(*args)
        check_definitions()
    assert len(factors) == 4
    assert sim.resync_marks or scheme is SchemeId.S1_OPEN_LOOP
    assert any(sim._last_resync.values()) or scheme is SchemeId.S1_OPEN_LOOP


def test_off_grid_command_time_is_kept_exactly():
    sim = make_sim(SchemeId.S2_SYNCHRONIZED, SchemeParams())
    sent = record_frames(sim)
    t = Fraction(123, 10**7) + 2  # no clock rate or period has a 10**7 denominator
    sim.inject_command(Verb.START, t)
    sim.run_until(t)
    assert sim.now == t
    assert [m.sent_true_s for m in sent] == [t, t]
    with pytest.raises(ValueError):
        sim.inject_command(Verb.STOP, t - Fraction(1, 10**9))


# -- no Fraction arithmetic in the event loop -----------------------------------

_FORBIDDEN = ("_richcmp", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
              "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
              "__mod__", "__rmod__", "__neg__", "__abs__", "__pow__", "__float__")


_LOSSY = SchemeParams(ppm_m1=-3.7, ppm_m2=1.1, ppm_root=2.3, resync_period_s=2.5,
                      seed=3, link=LinkModel(base_latency_s=0.0031, jitter_bound_s=0.011,
                                             drop_probability=0.3))


def _lossy_sim_with_commands(scheme, emit_setpoints):
    """A lossy-link sim with a Start, a Start while armed and an off-grid
    Stop queued, and the list every frame it sends is appended to."""
    sim = make_sim(scheme, _LOSSY, emit_setpoints)
    sent = record_frames(sim)
    sim.inject_command(Verb.START, 0)
    sim.inject_command(Verb.START, 5.5)
    sim.inject_command(Verb.STOP, 12.3)  # a --stop-s value off every grid
    return sim, sent


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_event_loop_does_no_fraction_arithmetic(monkeypatch, scheme):
    # a setpoint run and a sample run, so both recording paths are covered
    runs = [_lossy_sim_with_commands(scheme, emit_setpoints) for emit_setpoints in (True, False)]

    def forbidden(*_):
        raise AssertionError("Fraction arithmetic or comparison in the event loop")

    for name in _FORBIDDEN:
        monkeypatch.setattr(Fraction, name, forbidden)
    built = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    processed = [sim.run_until(20.7) for sim, _ in runs]
    monkeypatch.undo()

    (setpoint_sim, sent), (sample_sim, sample_sent) = runs
    assert all(processed) and sent and sample_sent
    assert setpoint_sim.servo_setpoints.groups and sample_sim.samples
    # frames carry int pairs; no Fraction exists until a caller reads one
    assert built == []


# (message count, sha256 of their "sent delivered" Fraction lines), as the
# run produced them when each message still stored its times as Fractions
_MESSAGE_TIMES = {
    SchemeId.S0_CENTRALIZED:
        (36, "871e638192e0723d37150d261b71a8b2adabdee0d1cb13c14a51a0a8bbb2ec2e"),
    SchemeId.S1_OPEN_LOOP:
        (6, "4c5cbba3c8bd1e9aa49f2521ca077dedf5121c0b9de2c77eb4823a0c4f9344cd"),
    SchemeId.S2_SYNCHRONIZED:
        (20, "e5ba91172480b02804953aa23d6d5279fa641059000a16a1c737d630fbf924c0"),
}


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_message_times_read_back_as_the_same_exact_fractions(scheme):
    sim, sent = _lossy_sim_with_commands(scheme, emit_setpoints=True)
    sim.run_until(20.7)
    for m in sent:
        for pair, value in ((m.sent, m.sent_true_s), (m.delivered, m.delivered_true_s)):
            assert type(value) is Fraction and value == Fraction(*pair)
        assert m.sent_true_s <= m.delivered_true_s <= sim.now
    assert sent[0].sent_true_s == 0
    assert sent[0].delivered_true_s == Fraction(16870631538688000000, 1125895741012968682291)
    text = "\n".join(f"{m.sent_true_s} {m.delivered_true_s}" for m in sent)
    assert (len(sent), hashlib.sha256(text.encode()).hexdigest()) == _MESSAGE_TIMES[scheme]
