"""Event engine: determinism, delivery rules, resync coupling, commands."""

import math
from fractions import Fraction

import pytest

from hexsync.clock import TICK_US
from hexsync.gait import GaitConfig, servo_trace
from hexsync.simnet import (
    LinkModel,
    Message,
    MessageKind,
    SchemeId,
    SchemeParams,
    Verb,
    make_sim,
)
from hexsync.tsch import pairwise_sync_error, slot_boundary_true_time

SLOT = 0.015


def new_sim(mode=SchemeId.S2_SYNCHRONIZED, emit_setpoints=False, **params):
    return make_sim(mode, SchemeParams(**params), emit_setpoints)


def record_sends(sim):
    """Every message the sim sends from now on, in send order."""
    sent = []
    send = sim.send

    def record(msg):
        send(msg)
        sent.append(msg)

    sim.send = record
    return sent


def test_three_node_topology():
    sim = new_sim()
    assert sim.root.node_id == "root"
    assert [c.node_id for c in sim.children] == ["m1", "m2"]
    assert sim.root.is_root and all(not c.is_root for c in sim.children)


def test_identical_config_and_seed_replay_identically():
    runs = []
    for _ in range(2):
        sim = new_sim()
        sim.inject_command(Verb.START, 0)
        sim.run_until(120)
        runs.append((sim.samples, sim.resync_marks))
    assert runs[0] == runs[1]


def test_degenerate_link_delivers_on_next_slot_boundary():
    sim = new_sim(link=LinkModel(jitter_bound_s=0.0))
    msg = Message(MessageKind.KEEP_ALIVE, sim.children[1], Fraction(0.001))
    sim.send(msg)
    expected = slot_boundary_true_time(sim.children[1], 1)
    assert msg.delivered_true_s == expected


def test_messages_compare_and_print_by_value():
    sim = new_sim()
    child = sim.children[0]
    a = Message(MessageKind.COMMAND, child, Fraction(3, 2), body=Verb.LEFT)
    b = Message(MessageKind.COMMAND, child, 1.5, body=Verb.LEFT)
    assert a == b and a.sent == (3, 2)
    assert a != Message(MessageKind.COMMAND, child, Fraction(3, 2), body=Verb.RIGHT)
    assert "sent=(3, 2)" in repr(a) and "body=<Verb.LEFT" in repr(a)


def test_delivery_within_latency_window():
    sim = new_sim()
    msg = Message(MessageKind.KEEP_ALIVE, sim.children[0], Fraction(29.99))
    sim.send(msg)
    assert 29.99 <= msg.delivered_true_s <= 29.99 + SLOT + 0.015


def test_root_delivery_triggers_resync():
    sim = new_sim()
    sim.inject_command(Verb.START, 0)
    sim.run_until(1)
    assert len(sim.resync_marks) == 2  # one Start delivery per child
    m1 = sim.children[0]
    assert all(t > 0 for t in sim.resync_marks)
    err = pairwise_sync_error(m1, sim.root, m1.asn_origin)
    assert abs(err) < TICK_US


def test_resync_coupling_never_worsens_error_to_root():
    sim = new_sim(ppm_m1=-8.0)
    sim.inject_command(Verb.START, 0)
    m1 = sim.children[0]
    for horizon in (40, 70, 100, 130):
        sim.run_until(horizon)
        asn = m1.asn_origin + 10
        assert abs(pairwise_sync_error(m1, sim.root, asn)) < TICK_US + 8 * 31 / 1e6 * 1e6


def test_free_running_mode_never_resyncs():
    sim = new_sim(mode=SchemeId.S1_OPEN_LOOP)
    sim.inject_command(Verb.START, 0)
    sim.run_until(200)
    assert sim.resync_marks == []


def test_run_until_zero_is_empty():
    sim = new_sim()
    assert sim.run_until(0) == 0
    assert sim.samples == []


def test_run_until_idempotent():
    sim = new_sim()
    sim.inject_command(Verb.START, 0)
    sim.run_until(50)
    assert sim.run_until(50) == 0


def test_past_injection_rejected():
    sim = new_sim()
    sim.run_until(10)
    with pytest.raises(ValueError):
        sim.inject_command(Verb.START, 5)


def test_samples_arrive_once_per_gait_period():
    sim = new_sim()
    sim.inject_command(Verb.START, 0)
    sim.run_until(60)
    ks = [s[1] for s in sim.samples]
    assert ks == list(range(len(ks)))
    times = [s[0] for s in sim.samples]
    assert times == sorted(times)
    assert len(sim.samples) >= 55  # ~1 per 1.02 s period


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_stop_quiesces_gait(scheme):
    sim = new_sim(mode=scheme, emit_setpoints=True)
    sent = record_sends(sim)
    sim.inject_command(Verb.START, 0)
    sim.inject_command(Verb.STOP, 20)
    setpoints = servo_trace(sim, 60)
    first_stop = float(min(m.delivered_true_s for m in sent if m.body is Verb.STOP))
    assert first_stop <= 20 + SLOT + 0.015
    assert setpoints and sim.samples
    assert all(sp.true_time_s <= first_stop for sp in setpoints)
    assert all(s[0] <= first_stop for s in sim.samples)
    # the centralized root stops timing the gait at its own Stop
    assert all(m.sent_true_s < 20 for m in sent if m.kind is MessageKind.SERVO_COMMAND)


def test_one_period_emits_24_setpoints():
    sim = new_sim(emit_setpoints=True, link=LinkModel(jitter_bound_s=0.0))
    sim.inject_command(Verb.START, 0)
    arm_t = 68 * SLOT
    setpoints = servo_trace(sim, arm_t + 1.02)
    # keep clear of the next period start, which quantizes up to a tick early
    first_period = [s for s in setpoints if s.true_time_s < arm_t + 1.02 - 0.005]
    assert len(first_period) == 24
    per_controller = {c: [s for s in first_period if s.controller is c]
                      for c in {s.controller for s in first_period}}
    assert all(len(v) == 12 for v in per_controller.values())


def test_left_turn_flips_left_knee_sweep():
    sim = new_sim(emit_setpoints=True, link=LinkModel(jitter_bound_s=0.0))
    sim.inject_command(Verb.START, 0)
    sim.inject_command(Verb.LEFT, 3.0)
    setpoints = servo_trace(sim, 8)
    arm_t, period = 68 * SLOT, 68 * SLOT

    def phase_of(t):
        return round((t - arm_t) % period / period * 4) % 4

    # T1 leg 0: knee servo 6, nominally Back (+25) at quarter phase
    servo6 = [s for s in setpoints if s.servo_id == 6]
    before = [s for s in servo6 if s.true_time_s < 3.0 and phase_of(s.true_time_s) == 1]
    after = [s for s in servo6 if s.true_time_s > 4.5 and phase_of(s.true_time_s) == 1]
    assert before and after
    assert all(s.angle_deg == 25.0 for s in before)
    assert all(s.angle_deg == -25.0 for s in after)  # sweep reversed
    # right-side knees keep the symmetric sweep (T2 resets Forward at this phase)
    servo9 = [s for s in setpoints if s.servo_id == 9 and phase_of(s.true_time_s) == 1]
    assert servo9 and all(s.angle_deg == -25.0 for s in servo9)


@pytest.mark.parametrize("verb, left_swapped, right_swapped",
                         [(Verb.LEFT, True, False), (Verb.RIGHT, False, True)])
def test_centralized_turn_reverses_knee_sweep(verb, left_swapped, right_swapped):
    # the root holds the turn until its next period (t = 4 s here) and sends
    # the swap state with each period's servo command
    sim = new_sim(mode=SchemeId.S0_CENTRALIZED, emit_setpoints=True,
                  link=LinkModel(jitter_bound_s=0.0))
    sim.inject_command(Verb.START, 0)
    sim.inject_command(verb, 3.0)
    setpoints = servo_trace(sim, 10)

    def sweeps(servo_id, keep):
        """Each apply's angles for the servo, in order: T1/T2 Back and Forward."""
        by_time = {}
        for s in setpoints:
            if s.servo_id == servo_id and keep(s.true_time_s):
                by_time.setdefault(s.true_time_s, []).append(s.angle_deg)
        return set(map(tuple, by_time.values()))

    # knee servo 6 (leg 0, left) sweeps Back then Forward; servo 9 (leg 3,
    # right) Forward then Back
    assert sweeps(6, lambda t: t < 3.0) == {(25.0, -25.0)}
    assert sweeps(9, lambda t: t < 3.0) == {(-25.0, 25.0)}
    assert sweeps(6, lambda t: t > 4.5) == {(-25.0, 25.0) if left_swapped else (25.0, -25.0)}
    assert sweeps(9, lambda t: t > 4.5) == {(25.0, -25.0) if right_swapped else (-25.0, 25.0)}
    # hips never swap
    assert sweeps(0, lambda t: True) == {(30.0, -30.0)}


def test_centralized_forward_ends_a_turn():
    sim = new_sim(mode=SchemeId.S0_CENTRALIZED, emit_setpoints=True,
                  link=LinkModel(jitter_bound_s=0.0))
    sim.inject_command(Verb.START, 0)
    sim.inject_command(Verb.LEFT, 3.0)
    sim.inject_command(Verb.FORWARD, 6.0)
    setpoints = servo_trace(sim, 10)
    servo6 = [(s.true_time_s, s.angle_deg) for s in setpoints if s.servo_id == 6]
    assert [a for t, a in servo6 if 4.5 < t < 6.0] == [-25.0, 25.0]
    assert [a for t, a in servo6 if t > 7.5] == [25.0, -25.0] * 2


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
@pytest.mark.parametrize("first, second, back", [(Verb.LEFT, Verb.FORWARD, 25.0),
                                                 (Verb.FORWARD, Verb.LEFT, -25.0)],
                         ids=["left-then-forward", "forward-then-left"])
def test_same_instant_verbs_apply_in_injection_order(scheme, first, second, back):
    # both turns land in the same instant on every node; the one queued
    # second must win
    sim = new_sim(mode=scheme, emit_setpoints=True, link=LinkModel(jitter_bound_s=0.0))
    sim.inject_command(Verb.START, 0)
    sim.inject_command(first, 3.0)
    sim.inject_command(second, 3.0)
    setpoints = servo_trace(sim, 10)
    # knee servo 6 (leg 0, left) sweeps +25 then -25 each period unless swapped
    assert [s.angle_deg for s in setpoints
            if s.servo_id == 6 and s.true_time_s > 6.0] == [back, -back] * 4


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_turn_before_period_zero_takes_effect_from_period_zero(scheme):
    # Left lands after Start is applied but before period 0 begins (~1 s)
    def knee_angles(turn):
        sim = new_sim(mode=scheme, emit_setpoints=True)
        sim.inject_command(Verb.START, 0)
        if turn:
            sim.inject_command(Verb.LEFT, 0.2)
        sim.run_until(3.5)
        by_servo = {}
        for s in sim.servo_setpoints:
            if s.servo_id >= 6:
                by_servo.setdefault(s.servo_id, []).append(s.angle_deg)
        # each knee sweeps twice a period: periods 0 and 1. Angles, not
        # times: the turn's frames shift the later latency draws
        return {servo: angles[:4] for servo, angles in by_servo.items()}

    straight, turned = knee_angles(False), knee_angles(True)
    assert sorted(straight) == list(range(6, 12))
    for servo, angles in straight.items():
        assert len(angles) == 4
        # the left knees (legs 0-2) reverse from period 0 on; the right keep theirs
        assert turned[servo] == ([-a for a in angles] if servo < 9 else angles)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["base_latency_s", "jitter_bound_s",
                                  "resync_period_s", "duration_s"])
def test_non_finite_link_and_run_times_rejected_when_built(name, value):
    config = LinkModel if name in LinkModel.__dataclass_fields__ else SchemeParams
    with pytest.raises(ValueError, match="finite"):
        config(**{name: value})


def test_drops_defer_delivery_by_slots():
    sim = new_sim(link=LinkModel(jitter_bound_s=0.0, drop_probability=0.9), seed=7)
    msg = Message(MessageKind.KEEP_ALIVE, sim.children[1], Fraction(0.001))
    sim.send(msg)
    no_drop = new_sim(link=LinkModel(jitter_bound_s=0.0), seed=7)
    msg2 = Message(MessageKind.KEEP_ALIVE, no_drop.children[1], Fraction(0.001))
    no_drop.send(msg2)
    assert msg.delivered_true_s >= msg2.delivered_true_s
    lag_slots = float(msg.delivered_true_s - msg2.delivered_true_s) / SLOT
    assert abs(lag_slots - round(lag_slots)) < 0.01


def test_keepalive_sent_one_period_after_last_resync():
    # a keep-alive leaves exactly one resync period after the child last
    # heard from the root; the root itself is never a keep-alive target
    period = 2.7
    sim = new_sim(resync_period_s=period, seed=5,
                  link=LinkModel(jitter_bound_s=0.015, drop_probability=0.2))
    sent = record_sends(sim)
    sim.inject_command(Verb.START, 0)
    sim.run_until(60)
    assert all(m.dst in sim.children for m in sent)
    for child in sim.children:
        deliveries = [m.delivered_true_s for m in sent if m.dst is child]
        keepalives = [m for m in sent
                      if m.dst is child and m.kind is MessageKind.KEEP_ALIVE]
        assert len(keepalives) >= 60 / period / 2
        for m in keepalives:
            last = max(t for t in deliveries if t < m.sent_true_s)
            assert m.sent_true_s == last + Fraction(period)
