"""Dual tripod gait: schedule compilation, per-controller timing, sync error.

The gait is split across two controllers: M1 drives all six hip servos,
M2 all six knee servos. Each controller fires its events from its own time
reference: either its free-running local clock, or the network's absolute
slot number. The central metric is the gait synchronization error, the
difference between the two controllers' believed start of gait period k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .clock import DriftingClock, as_seconds, local_seconds_at, true_time_of_local
from .tsch import MoteState, asn_at, slot_boundary_true_time


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
RIGHT_LEGS = (3, 4, 5)
HIP_SERVO_BASE = 0   # hip servo id = leg
KNEE_SERVO_BASE = 6  # knee servo id = leg + 6


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

    def validate(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
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


@dataclass(frozen=True)
class GaitEvent:
    phase_index: int
    phase_offset: Fraction
    tripod: Tripod
    joint_group: JointGroup
    action: GaitAction
    target_angle_deg: float


@dataclass(frozen=True)
class ServoSetpoint:
    true_time_s: float
    controller: Controller
    servo_id: int
    angle_deg: float


@dataclass
class GaitArmState:
    """Per-node arming record created when a Start command is applied."""
    config: GaitConfig
    ref: TimeRef
    arm_asn: int = 0            # ASN reference: period 0 starts at this slot
    arm_period_index: int = 0   # free-running: period 0 starts at local arm_period_index * period_s
    # Turn state: whether knee sweep is reversed per body side, plus a
    # pending change that takes effect at a later period index.
    swap_left: bool = False
    swap_right: bool = False
    pending_turn: Optional[Tuple[bool, bool, int]] = None


def build_schedule(config: GaitConfig) -> List[GaitEvent]:
    """Compile the dual tripod cycle: 8 events per period, 4 phases x 2 tripods.

    T2 mirrors T1 half a period later: its action at phase k is T1's at
    phase (k+2) mod 4.
    """
    config.validate()
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


def next_period_index(clock: DriftingClock, t_true, period_s: float) -> int:
    """Index n of the first whole period, local time n * period_s, that
    begins strictly after the clock's reading at t_true."""
    local = local_seconds_at(clock, as_seconds(t_true))
    return math.floor(local / Fraction(period_s)) + 1


def arm_free_running(node: MoteState, config: GaitConfig, t_deliver) -> None:
    """Arm the gait against the node's local clock at the next whole period."""
    config.validate()
    node.gait = GaitArmState(config=config, ref=TimeRef.FREE_RUNNING,
                             arm_period_index=next_period_index(
                                 node.clock, t_deliver, config.period_s))


def arm_asn_ref(node: MoteState, config: GaitConfig, t_deliver) -> None:
    """Arm the gait against the ASN at the next whole-period slot multiple."""
    config.validate()
    asn = asn_at(node, as_seconds(t_deliver))
    arm_asn = (asn // config.period_slots + 1) * config.period_slots
    node.gait = GaitArmState(config=config, ref=TimeRef.ASN, arm_asn=arm_asn)


def period_start_true_time(node: MoteState, k: int) -> Fraction:
    """True time of the node's believed start of gait period k."""
    return gait_event_true_time(node, k, 0)


def period_index_at(node: MoteState, t_true) -> int:
    """Index of the gait period in progress at t_true (clamped at 0)."""
    arm = node.gait
    if arm is None:
        raise ValueError(f"gait not armed on {node.node_id}")
    if arm.ref is TimeRef.FREE_RUNNING:
        local = local_seconds_at(node.clock, as_seconds(t_true))
        k = math.floor(local / Fraction(arm.config.period_s)) - arm.arm_period_index
    else:
        k = (asn_at(node, t_true) - arm.arm_asn) // arm.config.period_slots
    return max(0, k)


def gait_sync_error(m1: MoteState, m2: MoteState, k: int) -> float:
    """Believed-time difference (us) between the controllers for period k.

    Positive when M1's clock runs fast (its believed period start arrives
    earlier in true time than M2's), so the error slope in us per true
    second equals ppm(M1) - ppm(M2).
    """
    return float((period_start_true_time(m2, k)
                  - period_start_true_time(m1, k)) * 10**6)


def gait_event_true_time(node: MoteState, k: int, phase_offset: Fraction) -> Fraction:
    """True time at which the node fires a period-k event at the given phase."""
    arm = node.gait
    if arm is None:
        raise ValueError(f"gait not armed on {node.node_id}")
    cfg = arm.config
    if arm.ref is TimeRef.FREE_RUNNING:
        return true_time_of_local(
            node.clock, (arm.arm_period_index + k + phase_offset) * Fraction(cfg.period_s))
    offset_slots = math.floor(phase_offset * cfg.period_slots)
    return slot_boundary_true_time(node, arm.arm_asn + k * cfg.period_slots + offset_slots)


def setpoints_for_event(event: GaitEvent, controller: Controller, t_true,
                        swap_left: bool = False, swap_right: bool = False) -> List[ServoSetpoint]:
    """Expand one tripod-group event into its three per-servo setpoints.

    Turning reverses the knee sweep on one body side: Back and Forward
    angles are swapped for that side's knee servos.
    """
    legs = T1_LEGS if event.tripod is Tripod.T1 else T2_LEGS
    base = HIP_SERVO_BASE if event.joint_group is JointGroup.HIP else KNEE_SERVO_BASE
    out = []
    for leg in legs:
        angle = event.target_angle_deg
        if event.joint_group is JointGroup.KNEE and event.action in (
                GaitAction.BACK, GaitAction.FORWARD):
            swapped = (swap_left and leg in LEFT_LEGS) or (swap_right and leg in RIGHT_LEGS)
            if swapped:
                angle = -angle
        out.append(ServoSetpoint(true_time_s=float(as_seconds(t_true)),
                                 controller=controller,
                                 servo_id=base + leg,
                                 angle_deg=angle))
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
    return sorted(sim.servo_setpoints,
                  key=lambda s: (s.true_time_s, s.controller.value, s.servo_id))
