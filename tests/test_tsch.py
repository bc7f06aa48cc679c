"""Slot timing, ASN bookkeeping, and parent resynchronization."""

from fractions import Fraction

import pytest
from frames import record_frames
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_sim import (
    ref_first_boundary_slot,
    ref_pairwise_sync_error,
    ref_resync,
    ref_slot_boundary_tick,
)

from hexsync.clock import TICK_S, TICK_US, as_ratio, make_clock
from hexsync.simnet import (
    LinkModel,
    Message,
    SchemeId,
    SchemeParams,
    Sim,
    Verb,
    make_sim,
)
from hexsync.tsch import (
    SLOT_LENGTH_S,
    asn_at,
    first_boundary_tick,
    make_mote,
    resync_to_parent,
    slot_boundary_true_time,
)


def mote(node_id="n", ppm=0, parent=None):
    return make_mote(node_id, make_clock(ppm), parent_id=parent)


# resync_to_parent and first_boundary_tick read the first slot boundary at
# or after a tick with one shared integer helper; the exact twin's Fraction
# definitions (tests/reference_sim.py) are their references.
ppms = st.one_of(st.integers(-10, 10), st.floats(-10, 10, allow_nan=False))


@st.composite
def resync_cases(draw):
    """A parent whose grid a resync pinned, or the root's, and instants
    around its origin: on a parent boundary tick, one tick before it, and
    off the tick grid."""
    root = mote("root", ppm=draw(ppms))
    if draw(st.booleans()):
        parent = root
    else:  # a parent re-pinned by its own resync at t0
        parent = mote("p", ppm=draw(ppms), parent="root")
        resync_to_parent(parent, root, draw(st.fractions(0, 500)))
    child = mote("c", ppm=draw(ppms), parent="p")
    clock = parent.clock
    tick = ref_slot_boundary_tick(parent, parent.asn_origin + draw(st.integers(-3, 3)))
    instants = [Fraction(k * clock.rate_den, clock.rate_num) for k in (tick, tick - 1)
                if k >= 0]
    instants.append(Fraction(max(tick, 0) * clock.rate_den, clock.rate_num)
                    + draw(st.fractions(-Fraction(1, 50), Fraction(1, 50))))
    return parent, child, [t for t in instants if t >= 0]


# ppm-0 clocks: slot 1's boundary is tick 491, so 491/32768 s is on it and
# 490/32768 s one tick before it
@example(case=(mote("root"), mote("c", parent="root"),
               [Fraction(491, 32768), Fraction(490, 32768)]))
@given(case=resync_cases())
@settings(max_examples=300, deadline=None)
def test_resync_matches_reference_chain(case):
    parent, child, instants = case
    for t in instants:
        for t_true in (t, as_ratio(t)):
            resync_to_parent(child, parent, t_true)
            assert (child.asn_origin, child.origin_local_ticks) == ref_resync(child, parent, t)


@given(case=resync_cases())
@settings(max_examples=300, deadline=None)
def test_first_boundary_tick_matches_reference_chain(case):
    parent, child, instants = case
    for t in instants:
        for node in (parent, child):
            assert first_boundary_tick(node, as_ratio(t)) == ref_slot_boundary_tick(
                node, ref_first_boundary_slot(node, t))


def test_resync_refuses_the_root_and_a_time_before_the_epoch():
    root, child = mote("root"), mote("c", parent="root")
    for t in (0, Fraction(3, 2), (3, 2)):
        with pytest.raises(ValueError):
            resync_to_parent(root, child, t)
    for t in (-1, Fraction(-1, 10**9), (-1, 3), -0.5):
        with pytest.raises(ValueError):
            resync_to_parent(child, root, t)
        with pytest.raises(ValueError):
            ref_resync(child, root, Fraction(*t) if type(t) is tuple else t)


def test_nominal_slot_length():
    root = mote(ppm=0)
    assert abs(slot_boundary_true_time(root, 1) - Fraction(15, 1000)) < TICK_S


def test_slow_child_boundary_is_late():
    child = mote(ppm=-5, parent="root")
    t = slot_boundary_true_time(child, 2000)  # 30 s of slots
    assert abs(t - Fraction("30.000150")) < TICK_S


def test_boundary_at_origin_is_origin_time():
    node = mote(ppm=3)
    assert slot_boundary_true_time(node, node.asn_origin) == 0


def test_asn_at_origin():
    node = mote(ppm=0)
    assert asn_at(node, 0) == node.asn_origin


def test_asn_at_arbitrary_offset():
    node = mote(ppm=0)
    assert asn_at(node, 0.0449) == 2  # floor(44.9 / 15)


def test_asn_increments_every_15ms():
    node = mote(ppm=0)
    assert asn_at(node, 0.015) == 1


@given(ppm=st.floats(-10, 10, allow_nan=False), t=st.floats(0, 1e5, allow_nan=False))
@settings(max_examples=150)
def test_asn_inverse_consistent_with_boundaries(ppm, t):
    node = mote(ppm=ppm)
    a = asn_at(node, t)
    assert slot_boundary_true_time(node, a) <= Fraction(t) < slot_boundary_true_time(node, a + 1)


@given(ppm=st.floats(-10, 10, allow_nan=False),
       t1=st.floats(0, 1e5, allow_nan=False), t2=st.floats(0, 1e5, allow_nan=False))
@settings(max_examples=100)
def test_asn_monotone(ppm, t1, t2):
    node = mote(ppm=ppm)
    lo, hi = sorted((t1, t2))
    assert asn_at(node, lo) <= asn_at(node, hi)


def test_resync_on_root_rejected():
    root = mote(ppm=0)
    with pytest.raises(ValueError):
        resync_to_parent(root, root, 1.0)


def test_resync_aligned_child_residual_zero():
    root = mote("root", ppm=0)
    child = mote("c", ppm=0, parent="root")
    resync_to_parent(child, root, 10.0)
    assert ref_pairwise_sync_error(child, root, child.asn_origin) == 0


def test_resync_pulls_drifted_child_under_one_tick():
    root = mote("root", ppm=0)
    child = mote("c", ppm=-5, parent="root")
    # 30 s of free drift: ~150 us late
    assert abs(ref_pairwise_sync_error(child, root, 2000)) > 100
    resync_to_parent(child, root, 30.0)
    err = ref_pairwise_sync_error(child, root, child.asn_origin)
    assert abs(err) < TICK_US


def test_resync_idempotent_at_same_instant():
    root = mote("root", ppm=0)
    child = mote("c", ppm=4, parent="root")
    resync_to_parent(child, root, 50.0)
    first = (child.asn_origin, child.origin_local_ticks)
    resync_to_parent(child, root, 50.0)
    assert (child.asn_origin, child.origin_local_ticks) == first
    assert 0 <= -ref_pairwise_sync_error(child, root, child.asn_origin) < TICK_US


def test_pairwise_error_identical_nodes():
    a = mote("a", ppm=2)
    b = mote("b", ppm=2)
    assert ref_pairwise_sync_error(a, b, 12345) == 0


def test_pairwise_error_grows_linearly_without_resync():
    a = mote("a", ppm=5)
    b = mote("b", ppm=0)
    asn_400s = int(400 / 0.015)
    err = ref_pairwise_sync_error(a, b, asn_400s)
    # the faster clock reaches the boundary earlier
    assert err < 0
    assert abs(abs(err) - 2000) < 2 * TICK_US + 2  # ~2000 us at 5 ppm over 400 s


def keepalive_sim(period):
    """A synchronized sim whose keep-alives are recorded as they are sent."""
    sim = make_sim(SchemeId.S2_SYNCHRONIZED,
                   SchemeParams(resync_period_s=period,
                                link=LinkModel(jitter_bound_s=0.0)), False)
    return sim, record_frames(sim)


def test_keepalive_due_from_last_resync():
    # keep-alive due times live in simnet: one period after the last resync
    sim, sent = keepalive_sim(30.0)
    sim.run_until(30)
    assert [(m.dst, m.sent_true_s) for m in sent] == [(c, 30) for c in sim.children]

    # a command exchange at 12.4 s resyncs the child and moves its next
    # keep-alive to one period after that delivery
    sim, sent = keepalive_sim(10.0)
    child = sim.children[0]
    sim.inject_command(Verb.START, Fraction(12.4))
    sim.run_until(25)
    to_child = [m for m in sent if m.dst is child]
    command = next(m for m in to_child if m.body is Verb.START)
    keepalives = [m.sent_true_s for m in to_child if m.kind == "keepalive"]
    assert 12.4 < command.delivered_true_s <= 12.4 + SLOT_LENGTH_S
    assert keepalives == [10, command.delivered_true_s + 10]


def test_root_has_no_keepalive():
    sim, sent = keepalive_sim(10.0)
    sim.run_until(60)
    assert len(sent) >= 2 * 5
    assert all(m.dst in sim.children for m in sent)
    # the root keeps the time; a keep-alive cannot resync it. send only
    # fixes the delivery, so the frame's delivery is queued as a sender does
    msg = Message(sim.root, sim.now)
    sim.send(msg)
    sim._push(msg.delivered[0], Sim._handle_delivery, (sim.root, Sim._requeue_keepalive, None))
    with pytest.raises(ValueError):
        sim.run_until(61)


def test_bounded_error_under_periodic_resync():
    # both children resync to the root every 30 s; drift to root <= 3 ppm
    root = mote("root", ppm=0)
    a = mote("a", ppm=-3, parent="root")
    b = mote("b", ppm=0, parent="root")
    bound = 2 * 3 * 30 + 2 * TICK_US
    for cycle in range(1, 10):
        t = 30 * cycle
        resync_to_parent(a, root, t)
        resync_to_parent(b, root, t)
        probe_asn = a.asn_origin + 1900  # just before the next resync
        assert abs(ref_pairwise_sync_error(a, b, probe_asn)) <= bound
