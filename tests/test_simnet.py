"""Event engine: determinism, delivery rules, resync coupling, commands."""

import math
from fractions import Fraction
from typing import NamedTuple

import pytest
from frames import record_frames
from reference_sim import ref_pairwise_sync_error, ref_uniform

from hexsync.clock import TICK_US, DriftingClock, ticks_at
from hexsync.gait import Controller, GaitConfig, event_tick, event_tick_form, servo_trace
from hexsync.simnet import (
    LinkModel,
    Message,
    SchemeId,
    SchemeParams,
    Sim,
    Verb,
    _draw,
    make_sim,
)
from hexsync.tsch import slot_boundary_true_time

SLOT = 0.015


def new_sim(mode=SchemeId.S2_SYNCHRONIZED, emit_setpoints=False, **params):
    return make_sim(mode, SchemeParams(**params), emit_setpoints)


class Setpoint(NamedTuple):
    true_time_s: float
    controller: Controller
    servo_id: int
    angle_deg: float


def expand(groups):
    """(true_time_s, rows) groups, as servo_trace returns them or a run
    records them, expanded into one Setpoint per row, in order."""
    return [Setpoint(t, *row) for t, rows in groups for row in rows]


def trace(sim, t_end):
    """The run's servo_trace up to t_end, one Setpoint per CSV row."""
    sim.run_until(t_end)
    return expand(servo_trace(sim.servo_setpoints.groups))


def test_three_node_topology():
    sim = new_sim()
    assert sim.root.node_id == "root"
    assert [c.node_id for c in sim.children] == ["m1", "m2"]
    assert sim.root.parent_id is None and all(c.parent_id == "root" for c in sim.children)


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
    msg = Message(sim.children[1], Fraction(0.001))
    sim.send(msg)
    expected = slot_boundary_true_time(sim.children[1], 1)
    assert msg.delivered_true_s == expected


def test_message_holds_an_exact_sent_pair_and_its_body():
    sim = new_sim()
    child = sim.children[0]
    a = Message(child, Fraction(3, 2), Verb.START)
    b = Message(child, 1.5, Verb.START)
    c = Message(child, Fraction(3, 2), Verb.STOP)
    assert (a.sent, a.body) == (b.sent, b.body) and a.sent == (3, 2)
    assert (a.sent, a.body) != (c.sent, c.body)


def test_delivery_within_latency_window():
    sim = new_sim()
    msg = Message(sim.children[0], Fraction(29.99))
    sim.send(msg)
    assert 29.99 <= msg.delivered_true_s <= 29.99 + SLOT + 0.015


def test_root_delivery_triggers_resync():
    sim = new_sim()
    sim.inject_command(Verb.START, 0)
    sim.run_until(1)
    assert len(sim.resync_marks) == 2  # one Start delivery per child
    m1 = sim.children[0]
    assert all(t > 0 for t in sim.resync_marks)
    err = ref_pairwise_sync_error(m1, sim.root, m1.asn_origin)
    assert abs(err) < TICK_US


def test_resync_coupling_never_worsens_error_to_root():
    sim = new_sim(ppm_m1=-8.0)
    sim.inject_command(Verb.START, 0)
    m1 = sim.children[0]
    for horizon in (40, 70, 100, 130):
        sim.run_until(horizon)
        asn = m1.asn_origin + 10
        assert abs(ref_pairwise_sync_error(m1, sim.root, asn)) < TICK_US + 8 * 31 / 1e6 * 1e6


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
    with pytest.raises(ValueError, match="precedes current simulation time"):
        sim.run_until(5)


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
    # a setpoint run records the setpoints, a sample run the samples; the
    # two runs send the same frames at the same times
    runs = []
    for emit_setpoints in (True, False):
        sim = new_sim(mode=scheme, emit_setpoints=emit_setpoints)
        sent = record_frames(sim)
        sim.inject_command(Verb.START, 0)
        sim.inject_command(Verb.STOP, 20)
        runs.append((sim, sent, trace(sim, 60)))
    (_, sent, setpoints), (sampled, sampled_sent, _) = runs
    assert [(m.sent, m.delivered) for m in sent] == [(m.sent, m.delivered) for m in sampled_sent]
    first_stop = float(min(m.delivered_true_s for m in sent if m.body is Verb.STOP))
    assert first_stop <= 20 + SLOT + 0.015
    assert setpoints and sampled.samples
    assert all(sp.true_time_s <= first_stop for sp in setpoints)
    assert all(s[0] <= first_stop for s in sampled.samples)
    # the centralized root stops timing the gait at its own Stop
    servo = [m for m in sent if m.kind == "servo"]
    assert bool(servo) == (scheme is SchemeId.S0_CENTRALIZED)
    assert all(m.sent_true_s < 20 for m in servo)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_a_start_while_armed_is_a_no_op(scheme):
    # the second Start reaches nodes that are armed, so the gait keeps the
    # first Start's period numbering: no index repeats or restarts at 0
    indices = []
    for starts in ((0,), (0, 10.3)):
        sim = new_sim(mode=scheme)
        for t in starts:
            sim.inject_command(Verb.START, t)
        sim.run_until(30)
        indices.append([s[1] for s in sim.samples])
    once, twice = indices
    assert len(once) >= 25
    assert twice == once == list(range(len(once)))


def test_centralized_sample_is_recorded_at_the_later_delivery():
    # a period's sample is the gap between its two servo deliveries, so it
    # is recorded by the later one: a pause just before that delivery holds
    # only the earlier periods' samples, though the earlier one is applied
    full = new_sim(mode=SchemeId.S0_CENTRALIZED)
    full.inject_command(Verb.START, 0)
    full.run_until(40)
    paused = new_sim(mode=SchemeId.S0_CENTRALIZED)
    paused.inject_command(Verb.START, 0)
    for i, sample in enumerate(full.samples):
        paused.run_until(sample[0] - 1e-6)
        assert paused.samples == full.samples[:i]
    paused.run_until(40)
    assert paused.samples == full.samples and len(full.samples) > 30


def test_centralized_samples_are_the_exact_delivery_gaps():
    # each sample is built from its period's two servo frames (those the
    # root period sends): the later delivery's time, and the gap from M1's
    # delivery to M2's in us, each the float nearest the exact value
    sim = new_sim(mode=SchemeId.S0_CENTRALIZED, ppm_m1=-3.7, ppm_m2=1.1,
                  link=LinkModel(jitter_bound_s=0.015, drop_probability=0.2))
    sent = record_frames(sim)
    sim.inject_command(Verb.START, 0)
    sim.run_until(60)
    servo = [m for m in sent if m.kind == "servo"]
    expected = []
    for k, (m1, m2) in enumerate(zip(servo[::2], servo[1::2])):
        assert [m1.dst, m2.dst] == sim.children
        d1, d2 = m1.delivered_true_s, m2.delivered_true_s
        if max(d1, d2) <= 60:
            expected.append((float(max(d1, d2)), k, float((d2 - d1) * 10**6), 1))
    assert sim.samples == expected and len(expected) > 50


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_a_run_records_setpoints_or_samples(scheme):
    for emit_setpoints in (True, False):
        sim = new_sim(mode=scheme, emit_setpoints=emit_setpoints)
        sim.inject_command(Verb.START, 0)
        sim.run_until(10)
        recorded, empty = ((sim.servo_setpoints.groups, sim.samples) if emit_setpoints
                           else (sim.samples, sim.servo_setpoints.groups))
        assert recorded and empty == []
        assert sim.resync_marks or scheme is SchemeId.S1_OPEN_LOOP


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_sim_stays_under_the_shared_key_limit(scheme):
    # CPython 3.11 shares a class's attribute key table among its instances
    # for at most 30 keys. CHANGES.md's FOUND note on Sim's attribute count
    # measured a 30th attribute (Sim then had 29) slowing sync-sweep by 3.9%
    # in a paired A/B, and three self.x loads in a loop by 8% in a scratch
    # class going from 29 to 30 attributes
    for emit_setpoints in (False, True):
        sim = new_sim(mode=scheme, emit_setpoints=emit_setpoints, ppm_m1=-3.7,
                      link=LinkModel(drop_probability=0.2))
        sim.inject_command(Verb.START, 0)
        sim.inject_command(Verb.STOP, 12.3)  # off every grid, so D is rescaled
        sim.run_until(20.7)
        assert sim.resync_marks or scheme is SchemeId.S1_OPEN_LOOP
        assert len(vars(sim)) < 30


@pytest.mark.parametrize("scheme", [SchemeId.S1_OPEN_LOOP, SchemeId.S2_SYNCHRONIZED],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("gait", [GaitConfig(), GaitConfig(period_slots=4, period_s=0.7),
                                  GaitConfig(period_slots=12, period_s=0.1234567)],
                         ids=["default", "4-slots-0.7s", "12-slots-non-round-s"])
def test_phase_events_are_queued_at_each_phases_event_tick(scheme, gait):
    # the phase window fixes a child's period from one event_tick_form: two
    # phases, each taking one seq and carried as the local tick
    # gait.event_tick gives that phase, late periods included
    sim = new_sim(mode=scheme, emit_setpoints=True, gait=gait, ppm_m1=-3.7, ppm_m2=1.1,
                  ppm_root=2.3, link=LinkModel(drop_probability=0.2))
    sim.inject_command(Verb.START, 0)
    sim.run_until(7.3)
    for child in sim.children:
        form = event_tick_form(child)
        unit = sim._tick_unit[child]
        for k in (0, 7, 10**9 + 3):
            seq = sim._seq
            phases = sim._period_phases(child, k, form)
            assert len(phases) == 2 and sim._seq == seq + 2
            for i, (tick, phase_seq, k_queued, event) in enumerate(phases, 1):
                assert (k_queued, phase_seq) == (k, seq + i)
                assert tick * unit == event_tick(child, k, event.phase_index) * unit


def test_one_period_emits_24_setpoints():
    sim = new_sim(emit_setpoints=True, link=LinkModel(jitter_bound_s=0.0))
    sim.inject_command(Verb.START, 0)
    arm_t = 68 * SLOT
    setpoints = trace(sim, arm_t + 1.02)
    # keep clear of the next period start, which quantizes up to a tick early
    first_period = [s for s in setpoints if s.true_time_s < arm_t + 1.02 - 0.005]
    assert len(first_period) == 24
    per_controller = {c: [s for s in first_period if s.controller is c]
                      for c in {s.controller for s in first_period}}
    assert all(len(v) == 12 for v in per_controller.values())


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
@pytest.mark.parametrize("first, second", [(Verb.STOP, Verb.START), (Verb.START, Verb.STOP)],
                         ids=["stop-then-start", "start-then-stop"])
def test_same_instant_verbs_apply_in_injection_order(scheme, first, second):
    # both commands land in the same instant on every node and apply in the
    # order queued: Stop then Start re-arms the gait, while Start then Stop
    # is a no-op followed by a Stop
    sim = new_sim(mode=scheme, emit_setpoints=True, link=LinkModel(jitter_bound_s=0.0))
    sent = record_frames(sim)
    sim.inject_command(Verb.START, 0)
    sim.inject_command(first, 3.0)
    sim.inject_command(second, 3.0)
    setpoints = trace(sim, 10)
    assert any(s.true_time_s < 3.0 for s in setpoints)
    if second is Verb.START:
        # knee servo 6 (leg 0) sweeps +25 then -25 each period once re-armed
        assert [s.angle_deg for s in setpoints
                if s.servo_id == 6 and s.true_time_s > 6.0] == [25.0, -25.0] * 4
    else:
        stopped = max(m.delivered_true_s for m in sent if m.body is Verb.STOP)
        assert all(s.true_time_s <= stopped for s in setpoints)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["base_latency_s", "jitter_bound_s",
                                  "resync_period_s", "duration_s",
                                  "ppm_m1", "ppm_m2", "ppm_root"])
def test_non_finite_link_and_run_times_rejected_when_built(name, value):
    config = LinkModel if name in LinkModel._fields else SchemeParams
    with pytest.raises(ValueError, match="finite"):
        config(**{name: value})


@pytest.mark.parametrize("value, name, new, bad", [
    (DriftingClock(Fraction(-37, 10)), "ppm_error", 1.1, "x"),
    (GaitConfig(period_s=0.7), "period_slots", 8, 6),
    (LinkModel(drop_probability=0.1), "jitter_bound_s", 0.03, -1.0),
    (SchemeParams(gait=GaitConfig(period_s=0.7)), "resync_period_s", 3.0, 0),
], ids=["DriftingClock", "GaitConfig", "LinkModel", "SchemeParams"])
def test_configs_are_immutable_values(value, name, new, bad):
    old = getattr(value, name)
    for change in (lambda: setattr(value, name, new), lambda: delattr(value, name)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(value, name) == old
    # built apart from the same fields: equal, with an equal hash
    fields = {f: getattr(value, f) for f in type(value)._fields}
    twin = type(value)(**fields)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    changed = value.replace(**{name: new})
    assert changed == type(value)(**{**fields, name: new}) and changed != value
    # another type never equals a value, even one holding the same fields
    assert value.__eq__(fields) is NotImplemented and value != fields
    assert getattr(value, name) == old
    # the copy is built through __init__, so its checks run again
    with pytest.raises(ValueError):
        value.replace(**{name: bad})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda sim, t: sim.inject_command(Verb.STOP, t),
    lambda sim, t: sim.run_until(t),
    lambda sim, t: ticks_at(sim.root.clock, t),
    lambda sim, t: Message(sim.children[0], t, Verb.STOP),
], ids=["inject_command", "run_until", "ticks_at", "Message"])
def test_non_finite_times_rejected(call, value):
    with pytest.raises(ValueError, match="finite"):
        call(new_sim(), value)


# the drop stream keys index * 97 + attempt, so 96 and 97 * k + 96 are a
# frame's 97th attempt, and 97 the next frame's first; 2**63 and 10**20
# outgrow a machine word
DRAW_INDICES = [0, 9, 10, 96, 97, *(97 * k + 96 for k in (1, 2, 10**6)), 2**63, 10**20]


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_draw_is_the_sha256_of_seed_stream_and_index(seed):
    # the twin's definition: the first 8 bytes of the SHA-256 of
    # f"{seed}:{stream}:{index}", big-endian, over 2**64
    sim = new_sim(seed=seed)
    for stream, prefix in (("drop", sim._drop_prefix), ("lat", sim._lat_prefix)):
        for index in DRAW_INDICES:
            assert _draw(prefix, index) == ref_uniform(seed, stream, index), (stream, index)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_every_command_frame_passes_send_and_lands_when_it_says(monkeypatch, scheme):
    # perfbench reads each Stop's delivery time where it wraps Sim.send: so
    # every Start and Stop frame passes Sim.send with its Verb body, and
    # _handle_delivery runs it at the msg.delivered that send fixed. The
    # windows' frames do not pass Sim.send.
    sent, delivered = [], []
    send, handle = Sim.send, Sim._handle_delivery

    def record_send(sim, msg):
        send(sim, msg)
        sent.append(msg)

    def record_delivery(sim, child, action, body):
        if isinstance(body, Verb):
            delivered.append((child.node_id, body.value, sim._t, sim._D))
        handle(sim, child, action, body)

    monkeypatch.setattr(Sim, "send", record_send)
    monkeypatch.setattr(Sim, "_handle_delivery", record_delivery)
    sim = new_sim(mode=scheme, emit_setpoints=True, ppm_m1=-3.7, ppm_root=2.3,
                  resync_period_s=0.5, gait=GaitConfig(period_s=0.05),
                  link=LinkModel(jitter_bound_s=0.03, drop_probability=0.3))
    commands = [(Verb.START, 0), (Verb.START, 5.5), (Verb.STOP, 12.3), (Verb.START, 14),
                (Verb.STOP, 17.9)]
    for verb, t in commands:
        sim.inject_command(verb, t)
    sim.run_until(30)
    assert [(m.dst, m.body) for m in sent] == [(c, verb) for verb, _ in commands
                                               for c in sim.children]
    assert (sorted((m.dst.node_id, m.body.value, m.delivered_true_s) for m in sent)
            == sorted((node_id, verb, Fraction(t, D)) for node_id, verb, t, D in delivered))


def test_drops_defer_delivery_by_slots():
    sim = new_sim(link=LinkModel(jitter_bound_s=0.0, drop_probability=0.9), seed=7)
    msg = Message(sim.children[1], Fraction(0.001))
    sim.send(msg)
    no_drop = new_sim(link=LinkModel(jitter_bound_s=0.0), seed=7)
    msg2 = Message(no_drop.children[1], Fraction(0.001))
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
    sent = record_frames(sim)
    sim.inject_command(Verb.START, 0)
    sim.run_until(60)
    assert all(m.dst in sim.children for m in sent)
    for child in sim.children:
        deliveries = [m.delivered_true_s for m in sent if m.dst is child]
        keepalives = [m for m in sent if m.dst is child and m.kind == "keepalive"]
        assert len(keepalives) >= 60 / period / 2
        for m in keepalives:
            last = max(t for t in deliveries if t < m.sent_true_s)
            assert m.sent_true_s == last + Fraction(period)
