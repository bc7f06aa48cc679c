"""Dual tripod schedule structure, per-controller timing, health classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsync.clock import TICK_US, make_clock
from hexsync.gait import (
    Controller,
    GaitAction,
    GaitConfig,
    GaitHealth,
    JointGroup,
    TimeRef,
    Tripod,
    arm_asn_ref,
    arm_free_running,
    build_schedule,
    classify_gait,
    events_for_controller,
    gait_sync_error,
    period_index_at,
    period_start_true_time,
)
from hexsync.simnet import LinkModel, SchemeParams
from hexsync.tsch import make_mote, resync_to_parent


def armed_mote(ppm, ref, config=None, node_id="m", t=0.0):
    node = make_mote(node_id, make_clock(ppm), parent_id="root")
    cfg = config or GaitConfig()
    if ref is TimeRef.FREE_RUNNING:
        arm_free_running(node, cfg, t)
    else:
        arm_asn_ref(node, cfg, t)
    return node


def test_schedule_has_eight_events():
    sched = build_schedule(GaitConfig())
    assert len(sched) == 8
    assert {e.phase_index for e in sched} == {0, 1, 2, 3}


def test_hip_and_knee_phase_placement():
    sched = build_schedule(GaitConfig())
    hips = {e.phase_offset for e in sched if e.joint_group is JointGroup.HIP}
    knees = {e.phase_offset for e in sched if e.joint_group is JointGroup.KNEE}
    assert hips == {Fraction(0), Fraction(1, 2)}
    assert knees == {Fraction(1, 4), Fraction(3, 4)}


def test_tripods_offset_by_half_period():
    sched = build_schedule(GaitConfig())
    t1 = {e.phase_index: e.action for e in sched if e.tripod is Tripod.T1}
    t2 = {e.phase_index: e.action for e in sched if e.tripod is Tripod.T2}
    for phase in range(4):
        assert t2[phase] == t1[(phase + 2) % 4]


def test_four_step_cycle_order():
    sched = build_schedule(GaitConfig())
    t1 = [e.action for e in sorted(sched, key=lambda e: e.phase_index)
          if e.tripod is Tripod.T1]
    assert t1 == [GaitAction.DOWN, GaitAction.BACK, GaitAction.UP, GaitAction.FORWARD]


def test_controller_partition():
    sched = build_schedule(GaitConfig())
    m1 = events_for_controller(sched, Controller.M1)
    m2 = events_for_controller(sched, Controller.M2)
    assert len(m1) == 4 and len(m2) == 4
    assert all(e.joint_group is JointGroup.HIP for e in m1)
    assert all(e.joint_group is JointGroup.KNEE for e in m2)
    assert set(m1) | set(m2) == set(sched)
    assert set(m1) & set(m2) == set()


def test_empty_schedule_partitions_to_empty():
    assert events_for_controller([], Controller.M1) == []


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        GaitConfig(period_slots=66)  # not divisible by 4
    with pytest.raises(ValueError):
        GaitConfig(period_slots=2)  # fewer than 4 slots
    with pytest.raises(ValueError):
        GaitConfig(period_slots=2, event_offsets=(Fraction(0), Fraction(1, 8),
                                                  Fraction(1, 2), Fraction(5, 8)))
    with pytest.raises(ValueError):
        GaitConfig(event_offsets=(Fraction(0), Fraction(1, 2),
                                  Fraction(1, 4), Fraction(3, 4)))
    with pytest.raises(ValueError):
        GaitConfig(event_offsets=(Fraction(0), Fraction(1, 4),
                                  Fraction(1, 2), Fraction(1)))
    for period_s in (0.0, float("inf"), float("nan"), 1e-300, 3 / 32768):
        with pytest.raises(ValueError):
            GaitConfig(period_s=period_s)
    GaitConfig(period_s=4 / 32768)  # four ticks: the shortest period
    # every configuration type checks itself when built
    for build in (lambda: SchemeParams(sample_every=0),
                  lambda: SchemeParams(resync_period_s=0),
                  lambda: LinkModel(drop_probability=1.0)):
        with pytest.raises(ValueError):
            build()


def test_free_running_period_starts_nominal():
    node = armed_mote(0, TimeRef.FREE_RUNNING)
    base = node.gait.arm_period_index
    t10 = period_start_true_time(node, 10)
    assert abs(float(t10) - (base + 10) * 1.0) < TICK_US / 1e6


def test_unarmed_node_rejected():
    node = make_mote("m", make_clock(0))
    with pytest.raises(ValueError):
        period_start_true_time(node, 0)


def test_free_running_divergence_rate():
    m1 = armed_mote(5, TimeRef.FREE_RUNNING, node_id="m1")
    m2 = armed_mote(0, TimeRef.FREE_RUNNING, node_id="m2")
    common = max(m1.gait.arm_period_index, m2.gait.arm_period_index)
    m1.gait.arm_period_index = m2.gait.arm_period_index = common
    e100 = gait_sync_error(m1, m2, 100)
    e200 = gait_sync_error(m1, m2, 200)
    # M1 fast by 5 ppm: positive error growing ~5 us per period-second
    assert abs((e200 - e100) - 5 * 100) < 2 * TICK_US


def test_asn_ref_bounded_after_resync():
    root = make_mote("root", make_clock(0))
    m1 = armed_mote(-3, TimeRef.ASN, node_id="m1")
    m2 = armed_mote(0, TimeRef.ASN, node_id="m2")
    m1.gait.arm_period_index = m2.gait.arm_period_index = 1
    resync_to_parent(m1, root, 30.0)
    resync_to_parent(m2, root, 30.0)
    k = 30  # within the same resync window
    assert abs(gait_sync_error(m1, m2, k)) < 121


def test_identical_clocks_zero_error():
    m1 = armed_mote(0, TimeRef.ASN, node_id="m1")
    m2 = armed_mote(0, TimeRef.ASN, node_id="m2")
    m1.gait.arm_period_index = m2.gait.arm_period_index = 1
    for k in (0, 17, 350):
        assert abs(gait_sync_error(m1, m2, k)) < 2 * TICK_US


def test_scheme_equivalence_at_zero_drift():
    # with no drift both references put every period start within one tick
    # of its own nominal grid (1.0 s free-running, 1.02 s slot-based)
    free = armed_mote(0, TimeRef.FREE_RUNNING)
    slotted = armed_mote(0, TimeRef.ASN)
    for k in range(5):
        t_free = float(period_start_true_time(free, k))
        t_slot = float(period_start_true_time(slotted, k))
        assert abs(t_free - (free.gait.arm_period_index + k) * 1.0) < TICK_US / 1e6
        assert abs(t_slot - (slotted.gait.arm_period_index + k) * 68 * 0.015) < TICK_US / 1e6


@given(ref=st.sampled_from(list(TimeRef)),
       ppm=st.sampled_from([-10, -3.7, 0, 1.1, 10]),
       resync=st.booleans(),
       t_arm=st.floats(min_value=0, max_value=1e5, allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_period_index_inverts_period_start(ref, ppm, resync, t_arm):
    # both references count whole periods from one origin, so period k
    # begins exactly where period_index_at first reads k; before period 0
    # it reads -1
    node = make_mote("m", make_clock(ppm), parent_id="root")
    if resync:
        resync_to_parent(node, make_mote("root", make_clock(0)), t_arm)
    arm = arm_free_running if ref is TimeRef.FREE_RUNNING else arm_asn_ref
    arm(node, GaitConfig(), t_arm)
    one_ns = Fraction(1, 10**9)
    for k in range(0, 501):
        t = period_start_true_time(node, k)
        assert period_index_at(node, t) == k
        assert period_index_at(node, t - one_ns) == k - 1


@pytest.mark.parametrize("error_us,period_s,expected", [
    (0, 1.0, GaitHealth.IN_SYNC),
    (2000, 1.0, GaitHealth.IN_SYNC),
    (500_000, 1.0, GaitHealth.OPPOSED),
    (450_000, 1.0, GaitHealth.OPPOSED),
    (200_000, 1.0, GaitHealth.DEGRADED),
    (-500_000, 1.0, GaitHealth.OPPOSED),
])
def test_classify_gait(error_us, period_s, expected):
    assert classify_gait(error_us, period_s) is expected


def test_classify_rejects_bad_period():
    with pytest.raises(ValueError):
        classify_gait(0, 0)


valid_period_slots = st.integers(min_value=1, max_value=50).map(lambda n: 4 * n)


@given(period_slots=valid_period_slots,
       hip=st.floats(5, 60, allow_nan=False), knee=st.floats(5, 60, allow_nan=False))
@settings(max_examples=100)
def test_schedule_properties_hold_for_random_configs(period_slots, hip, knee):
    cfg = GaitConfig(period_slots=period_slots, hip_down_deg=hip,
                     hip_up_deg=-hip, knee_back_deg=knee, knee_forward_deg=-knee)
    sched = build_schedule(cfg)
    # half-period antisymmetry
    by_key = {(e.tripod, e.phase_index): e for e in sched}
    for phase in range(4):
        e1 = by_key[(Tripod.T1, phase)]
        e2 = by_key[(Tripod.T2, (phase + 2) % 4)]
        assert e1.action == e2.action and e1.joint_group == e2.joint_group
    # controller partition
    m1 = set(events_for_controller(sched, Controller.M1))
    m2 = set(events_for_controller(sched, Controller.M2))
    assert m1 | m2 == set(sched) and not (m1 & m2)
