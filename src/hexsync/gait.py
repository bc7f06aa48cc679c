"""Dual tripod gait: schedule compilation, per-controller timing, sync error.

The gait is split across two controllers: M1 drives all six hip servos,
M2 all six knee servos. Each controller fires its events from its own time
reference: either its free-running local clock, or the network's absolute
slot number. On either reference the tick of a period-k event is one affine
floor in k (event_tick_form), which event_tick evaluates for one k and
sync_errors for a run of them. The central metric is the gait
synchronization error, the difference between the two controllers'
believed start of gait period k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .clock import (
    NOMINAL_FREQ_HZ,
    TICK_S,
    as_ratio,
    local_periods_at,
    tick_gap_factors,
    tick_gap_us,
    true_time_of_tick,
)
from .tsch import SLOT_LENGTH_S, SLOT_TICKS_DEN, SLOT_TICKS_NUM, MoteState, asn_at


class Tripod(Enum):
    T1 = "T1"
    T2 = "T2"


class JointGroup(Enum):
    HIP = "hip"
    KNEE = "knee"


class GaitAction(Enum):
    DOWN = "down"
    UP = "up"
    BACK = "back"
    FORWARD = "forward"


class Controller(Enum):
    M1 = "M1"  # hips
    M2 = "M2"  # knees


class TimeRef(Enum):
    """Which time reference a controller uses to fire its gait events."""
    FREE_RUNNING = "free-running"  # local clock, open loop
    ASN = "asn"                    # network absolute slot number


class GaitHealth(Enum):
    IN_SYNC = "in-sync"
    DEGRADED = "degraded"
    OPPOSED = "opposed"


# Leg layout: legs 0..5, left side 0-2, right side 3-5. A tripod is the
# front and back leg of one side plus the middle leg of the other.
T1_LEGS = (0, 2, 4)
T2_LEGS = (1, 3, 5)
LEFT_LEGS = (0, 1, 2)
HIP_SERVO_BASE = 0   # hip servo id = leg
KNEE_SERVO_BASE = 6  # knee servo id = leg + 6
PHASE_ZERO = (0, 1)  # the period start, as event_tick's (num, den) phase pair


@dataclass(frozen=True)
class GaitConfig:
    period_slots: int = 68          # 1.02 s at 15 ms/slot, used by the ASN reference
    period_s: float = 1.0           # used by the free-running reference
    event_offsets: Tuple[Fraction, ...] = (
        Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    hip_down_deg: float = 30.0
    hip_up_deg: float = -30.0
    knee_back_deg: float = 25.0
    knee_forward_deg: float = -25.0

    def __post_init__(self) -> None:
        # four ticks give each of the four phases its own tick, as
        # period_slots >= 4 gives each its own slot
        if not 4 * TICK_S <= self.period_s < math.inf:
            raise ValueError("period_s must be finite and at least 4 ticks (4/32768 s)")
        offs = [Fraction(o) for o in self.event_offsets]
        if len(offs) != 4:
            raise ValueError("exactly four phase offsets required")
        if any(not (0 <= o < 1) for o in offs):
            raise ValueError("phase offsets must lie in [0, 1)")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("phase offsets must be strictly increasing")
        if self.period_slots < 4:
            raise ValueError("period_slots must be >= 4")
        default = offs == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        if default and self.period_slots % 4:
            raise ValueError("period_slots must be divisible by 4 with the default offsets")

    def period_on(self, ref: TimeRef) -> Fraction:
        """The gait period in seconds as ref counts it: period_s of local
        time, or period_slots slots of the ASN."""
        if ref is TimeRef.FREE_RUNNING:
            return Fraction(self.period_s)
        return self.period_slots * SLOT_LENGTH_S


@dataclass(frozen=True)
class GaitEvent:
    phase_index: int
    phase_offset: Fraction
    tripod: Tripod
    joint_group: JointGroup
    action: GaitAction
    target_angle_deg: float


class ServoSetpoint(NamedTuple):
    """One servo angle command. The servo id fixes the controller: hips
    0-5 belong to M1, knees 6-11 to M2."""
    true_time_s: float
    controller: Controller
    servo_id: int
    angle_deg: float


_new_setpoint = tuple.__new__  # _new_setpoint(ServoSetpoint, fields), with no Python-level __new__


@dataclass
class GaitArmState:
    """Per-node arming record created when a Start command is applied."""
    config: GaitConfig
    ref: TimeRef
    # Period 0 is whole period arm_period_index counted on ref: it starts at
    # local time arm_period_index * period_s, or at slot
    # arm_period_index * period_slots.
    arm_period_index: int = 0
    # Turn state: whether knee sweep is reversed per body side, plus a
    # pending change that takes effect at a later period index.
    swap_left: bool = False
    swap_right: bool = False
    pending_turn: Optional[Tuple[bool, bool, int]] = None
    # config.period_s as an exact (num, den) pair, decomposed once here
    # rather than on every free-running event
    period: Tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.period = as_ratio(self.config.period_s)


def build_schedule(config: GaitConfig) -> List[GaitEvent]:
    """Compile the dual tripod cycle: 8 events per period, 4 phases x 2 tripods.

    T2 mirrors T1 half a period later: its action at phase k is T1's at
    phase (k+2) mod 4.
    """
    t1_actions = [GaitAction.DOWN, GaitAction.BACK, GaitAction.UP, GaitAction.FORWARD]
    angles = {
        GaitAction.DOWN: config.hip_down_deg,
        GaitAction.UP: config.hip_up_deg,
        GaitAction.BACK: config.knee_back_deg,
        GaitAction.FORWARD: config.knee_forward_deg,
    }
    events = []
    for phase, offset in enumerate(config.event_offsets):
        group = JointGroup.HIP if phase % 2 == 0 else JointGroup.KNEE
        for tripod in (Tripod.T1, Tripod.T2):
            shift = 0 if tripod is Tripod.T1 else 2
            action = t1_actions[(phase + shift) % 4]
            events.append(GaitEvent(
                phase_index=phase,
                phase_offset=Fraction(offset),
                tripod=tripod,
                joint_group=group,
                action=action,
                target_angle_deg=angles[action],
            ))
    return events


def events_for_controller(schedule: Sequence[GaitEvent],
                          controller: Controller) -> List[GaitEvent]:
    """M1 owns every hip event, M2 every knee event; together they partition."""
    group = JointGroup.HIP if controller is Controller.M1 else JointGroup.KNEE
    return [e for e in schedule if e.joint_group is group]


def whole_periods_at(node: MoteState, ref: TimeRef, config: GaitConfig, t_true) -> int:
    """Whole gait periods the node's time reference has counted at t_true.

    The two references differ only in what they count: periods of
    period_s on the free-running local clock, or periods of period_slots
    on the network's ASN.
    """
    if ref is TimeRef.FREE_RUNNING:
        return local_periods_at(node.clock, t_true, config.period_s)
    return asn_at(node, t_true) // config.period_slots


def _arm(node: MoteState, config: GaitConfig, ref: TimeRef, t_deliver) -> None:
    """Arm the gait so that period 0 is the next whole period counted on ref."""
    count = whole_periods_at(node, ref, config, t_deliver)
    node.gait = GaitArmState(config=config, ref=ref, arm_period_index=count + 1)


def arm_free_running(node: MoteState, config: GaitConfig, t_deliver) -> None:
    """Arm the gait against the node's local clock at the next whole period."""
    _arm(node, config, TimeRef.FREE_RUNNING, t_deliver)


def arm_asn_ref(node: MoteState, config: GaitConfig, t_deliver) -> None:
    """Arm the gait against the ASN at the next whole-period slot multiple."""
    _arm(node, config, TimeRef.ASN, t_deliver)


def period_start_true_time(node: MoteState, k: int) -> Fraction:
    """True time of the node's believed start of gait period k."""
    return gait_event_true_time(node, k, 0)


def period_index_at(node: MoteState, t_true) -> int:
    """Index of the gait period in progress at t_true; negative before period 0."""
    arm = node.gait
    if arm is None:
        raise ValueError(f"gait not armed on {node.node_id}")
    return whole_periods_at(node, arm.ref, arm.config, t_true) - arm.arm_period_index


def gait_sync_error(m1: MoteState, m2: MoteState, k: int) -> float:
    """Believed-time difference (us) between the controllers for period k.

    Positive when M1's clock runs fast (its believed period start arrives
    earlier in true time than M2's), so the error slope in us per true
    second equals ppm(M1) - ppm(M2).
    """
    return tick_gap_us(m1.clock, event_tick(m1, k, PHASE_ZERO),
                       m2.clock, event_tick(m2, k, PHASE_ZERO))


def sync_errors(m1: MoteState, m2: MoteState, ks: Iterable[int]) -> List[float]:
    """gait_sync_error(m1, m2, k) for each k in ks, in order.

    Each node's event_tick_form and the clock pair's tick_gap_factors are
    computed once for all of ks, so a run of periods costs one affine
    floor per node and one division per period.
    """
    c1, a1, b1, d1 = event_tick_form(m1, PHASE_ZERO)
    c2, a2, b2, d2 = event_tick_form(m2, PHASE_ZERO)
    f1, f2, den = tick_gap_factors(m1.clock, m2.clock)
    return [((c2 + (a2 + b2 * k) // d2) * f2 - (c1 + (a1 + b1 * k) // d1) * f1) / den
            for k in ks]


def event_tick(node: MoteState, k: int, phase_offset: Tuple[int, int]) -> int:
    """Local tick at which the node fires a period-k event at the given phase.

    phase_offset is an exact (num, den) pair. Free-running: the first tick
    at local time (arm_period_index + k + phase_offset) * period_s. ASN:
    the boundary tick of slot (arm_period_index + k) * period_slots
    + floor(phase_offset * period_slots). Either is event_tick_form's
    affine floor in k.
    """
    c, a, b, d = event_tick_form(node, phase_offset)
    return c + (a + b * k) // d


def event_tick_form(node: MoteState,
                    phase_offset: Tuple[int, int]) -> Tuple[int, int, int, int]:
    """(c, a, b, d) with event_tick(node, k, phase_offset) == c + (a + b * k) // d.

    The constants depend only on the node's arm state and slot grid, so a
    caller stepping k over one unchanged state computes them once.
    Free-running: the ceiling of the local target in ticks, written as a
    floor. ASN: tsch.slot_boundary_tick's floor, with the slot number
    written as an affine function of k.
    """
    arm = node.gait
    if arm is None:
        raise ValueError(f"gait not armed on {node.node_id}")
    o_num, o_den = phase_offset
    if arm.ref is TimeRef.FREE_RUNNING:
        p_num, p_den = arm.period
        d = o_den * p_den
        # the local target is x / d ticks, and ceil(x / d) == (x + d - 1) // d
        return (0, (arm.arm_period_index * o_den + o_num) * p_num * NOMINAL_FREQ_HZ + d - 1,
                o_den * p_num * NOMINAL_FREQ_HZ, d)
    slots = arm.config.period_slots
    first = arm.arm_period_index * slots + o_num * slots // o_den
    return (node.origin_local_ticks, (first - node.asn_origin) * SLOT_TICKS_NUM,
            slots * SLOT_TICKS_NUM, SLOT_TICKS_DEN)


def gait_event_true_time(node: MoteState, k: int, phase_offset) -> Fraction:
    """True time at which the node fires a period-k event at the given phase."""
    return true_time_of_tick(node.clock, event_tick(node, k, as_ratio(phase_offset)))


def setpoints_for_event(event: GaitEvent, controller: Controller, t_true,
                        swap_left: bool = False, swap_right: bool = False) -> List[ServoSetpoint]:
    """Expand one tripod-group event into its three per-servo setpoints.

    Turning reverses the knee sweep on one body side: Back and Forward
    angles are swapped for that side's knee servos.
    """
    t = float(t_true)
    left = right = event.target_angle_deg
    if event.joint_group is JointGroup.HIP:
        base = HIP_SERVO_BASE
    else:
        base = KNEE_SERVO_BASE
        if event.action is GaitAction.BACK or event.action is GaitAction.FORWARD:
            if swap_left:
                left = -left
            if swap_right:
                right = -right
    out = []
    for leg in T1_LEGS if event.tripod is Tripod.T1 else T2_LEGS:
        out.append(_new_setpoint(ServoSetpoint, (
            t, controller, base + leg, left if leg in LEFT_LEGS else right)))
    return out


def classify_gait(error_us: float, period_s: float) -> GaitHealth:
    """Health of the gait given the current synchronization error."""
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    period_us = period_s * 1e6
    e = abs(error_us)
    if e < 0.05 * period_us:
        return GaitHealth.IN_SYNC
    if abs(e % period_us - period_us / 2) < 0.10 * period_us:
        return GaitHealth.OPPOSED
    return GaitHealth.DEGRADED


def servo_trace(sim, t_end) -> List[ServoSetpoint]:
    """Run the simulation to t_end and return its chronological setpoint log."""
    sim.run_until(t_end)
    # (time, servo_id) orders as (time, controller, servo_id) would: the servo
    # id fixes the controller (hips 0-5 are M1, knees 6-11 are M2). Same-time
    # setpoints do occur (T1 and T2 share each phase, and offsets can put
    # several phases in one slot), and the stable sort keeps them in the
    # order they were emitted.
    return sorted(sim.servo_setpoints, key=itemgetter(0, 2))
