"""Dual tripod schedule structure, per-controller timing, health classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsync.clock import TICK_US, make_clock
from hexsync.gait import (
    Controller,
    GaitConfig,
    TimeRef,
    arm_asn_ref,
    arm_free_running,
    build_schedule,
    events_for_controller,
    gait_event_true_time,
    gait_sync_error,
    period_index_at,
    period_start_true_time,
    servo_trace,
    setpoints_for_event,
)
from hexsync.simnet import LinkModel, SchemeParams
from hexsync.tsch import make_mote, resync_to_parent
from paper_gait import (
    CONTROLLER_OF,
    HIP,
    JOINT_AT_PHASE,
    KNEE,
    QUARTER_PHASES,
    TRIPODS,
    T1_CYCLE_DEG,
    paper_rows,
    servo_of,
)


def armed_mote(ppm, ref, config=None, node_id="m", t=0.0):
    node = make_mote(node_id, make_clock(ppm), parent_id="root")
    cfg = config or GaitConfig()
    if ref is TimeRef.FREE_RUNNING:
        arm_free_running(node, cfg, t)
    else:
        arm_asn_ref(node, cfg, t)
    return node


def joint_of(event):
    """The joint whose six servos the event's rows command, or None."""
    servos = {servo for _, servo, _ in event.rows}
    for joint in (HIP, KNEE):
        if servos == {servo_of(joint, leg) for leg in range(6)}:
            return joint
    return None


def commanded_angle(event, tripod):
    """The one angle the event's rows give the tripod's servos."""
    angle = {servo: a for _, servo, a in event.rows}
    (only,) = {angle[servo_of(joint_of(event), leg)] for leg in TRIPODS[tripod]}
    return only


def test_schedule_has_four_events():
    sched = build_schedule()
    assert len(sched) == 4
    assert [e.phase_index for e in sched] == [0, 1, 2, 3]


def test_schedule_matches_paper_gait():
    # every phase's rows are the paper's
    for event in build_schedule():
        want = paper_rows(event.phase_index)
        assert list(event.rows) == want
        # the compiled rows themselves: no time attached, no object built
        got = setpoints_for_event(event)
        assert got is event.rows
        assert list(got) == want
        assert [str(angle) for _, _, angle in got] == [str(angle) for _, _, angle in want]


def test_hip_and_knee_phase_placement():
    # a ppm-0 clock counts a 1 s period in whole ticks, so an event's time
    # past its period's start is its phase, in periods, exactly
    sched = build_schedule()
    node = armed_mote(0, TimeRef.FREE_RUNNING)
    start = period_start_true_time(node, 0)
    phase = [gait_event_true_time(node, 0, e.phase_index) - start for e in sched]
    assert phase == [QUARTER_PHASES[e.phase_index] for e in sched]
    hips = {p for p, e in zip(phase, sched) if joint_of(e) == HIP}
    knees = {p for p, e in zip(phase, sched) if joint_of(e) == KNEE}
    assert hips == {Fraction(0), Fraction(1, 2)}
    assert knees == {Fraction(1, 4), Fraction(3, 4)}


def test_tripods_offset_by_half_period():
    sched = build_schedule()
    t1 = {e.phase_index: commanded_angle(e, 0) for e in sched}
    t2 = {e.phase_index: commanded_angle(e, 1) for e in sched}
    for phase in range(4):
        assert t2[phase] == t1[(phase + 2) % 4]


def test_four_step_cycle_order():
    sched = build_schedule()
    t1 = sorted(sched, key=lambda e: e.phase_index)
    # down, back, up, forward
    assert [joint_of(e) for e in t1] == list(JOINT_AT_PHASE)
    assert [commanded_angle(e, 0) for e in t1] == list(T1_CYCLE_DEG)


def test_controller_partition():
    sched = build_schedule()
    m1 = events_for_controller(sched, Controller.M1)
    m2 = events_for_controller(sched, Controller.M2)
    assert len(m1) == 2 and len(m2) == 2
    assert all(CONTROLLER_OF[joint_of(e)] is Controller.M1 for e in m1)
    assert all(CONTROLLER_OF[joint_of(e)] is Controller.M2 for e in m2)
    assert set(m1) | set(m2) == set(sched)
    assert set(m1) & set(m2) == set()


def test_empty_schedule_partitions_to_empty():
    assert events_for_controller([], Controller.M1) == []


def test_invalid_configs_rejected():
    for period_slots in (66, 2, 0, -4, 68.0, True):  # not an int, a positive multiple of 4
        with pytest.raises(ValueError):
            GaitConfig(period_slots=period_slots)
    GaitConfig(period_slots=4)  # one slot per phase: the shortest period
    for period_s in (0.0, float("inf"), float("nan"), 1e-300, 3 / 32768, None, True):
        with pytest.raises(ValueError):
            GaitConfig(period_s=period_s)
    GaitConfig(period_s=4 / 32768)  # four ticks: the shortest period
    # every configuration type checks itself when built
    for build in (lambda: SchemeParams(seed=1.5),
                  lambda: SchemeParams(seed=1.0),
                  lambda: SchemeParams(resync_period_s=0),
                  lambda: LinkModel(drop_probability=1.0)):
        with pytest.raises(ValueError):
            build()
    # a sample run records every gait period: there is no stride to set
    with pytest.raises(TypeError):
        SchemeParams(sample_every=1)
    # a value of the wrong type, or a negative duration, is named in the message
    for name, build in (("duration_s", lambda: SchemeParams(duration_s=-5.0)),
                        ("duration_s", lambda: SchemeParams(duration_s=float("-inf"))),
                        ("duration_s", lambda: SchemeParams(duration_s="400")),
                        ("ppm_m1", lambda: SchemeParams(ppm_m1="x")),
                        ("ppm_root", lambda: SchemeParams(ppm_root=None)),
                        ("resync_period_s", lambda: SchemeParams(resync_period_s="30")),
                        ("period_s", lambda: GaitConfig(period_s="1.0")),
                        ("jitter_bound_s", lambda: LinkModel(jitter_bound_s="0.015")),
                        ("drop_probability", lambda: LinkModel(drop_probability=None)),
                        ("base_latency_s", lambda: LinkModel(base_latency_s=False))):
        with pytest.raises(ValueError, match=name):
            build()
    # each latency is a finite number, but Sim._delivery's float draw would overflow
    for base, jitter in ((1.7e308, 1.7e308), (10**400, 0.0)):
        with pytest.raises(ValueError, match=r"base_latency_s \+ jitter_bound_s"):
            LinkModel(base_latency_s=base, jitter_bound_s=jitter)
    SchemeParams(duration_s=0.0, ppm_m1=Fraction(-37, 10))  # a Fraction is a number


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



def test_servo_trace_merges_a_plain_record_into_instants():
    # a record as a run keeps it, (true_time_s, rows) groups, with no Sim
    hips = ((Controller.M1, 3, 30.0), (Controller.M1, 0, -30.0))
    knees = ((Controller.M2, 8, 25.0), (Controller.M2, 6, -25.0))
    trace = servo_trace([(0.25, hips), (0.5, knees), (0.5, hips), (0.75, knees)])
    assert trace == [
        (0.25, (hips[1], hips[0])),  # one group: its rows by servo id
        (0.5, (hips[1], hips[0], knees[1], knees[0])),  # both controllers at one time
        (0.75, (knees[1], knees[0])),
    ]
    with pytest.raises(ValueError, match="back in time"):
        servo_trace([(0.5, hips), (0.25, knees)])
