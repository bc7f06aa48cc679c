"""Dual tripod gait: schedule compilation, per-controller timing, sync error.

The gait's shape is fixed: four phases a quarter period apart, each
firing six servos of one controller (GAIT_TABLE); a GaitConfig sets only
the period on each time reference.
M1 drives all six hip servos, at phases 0 and 2; M2 all six knee servos,
at phases 1 and 3. Each controller fires its events from its own time
reference: either its free-running local clock, or the network's absolute
slot number. On either reference a node's gait runs on one quarter grid:
quarter j, phase j % 4 of period j // 4, fires at local tick
c + (a + b * j) // d (_quarter_grid; event_tick_form gives the armed
grid, which event_tick evaluates for one period and phase, and a caller
stepping periods over one unchanged arm state takes it once). Every count
of periods is that grid's exact inverse (_last_point_at), so arming,
period_index_at and the event ticks cannot disagree. The central metric
is the gait synchronization error (gait_sync_error), the difference
between the two controllers' believed start of gait period k.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .clock import (
    NOMINAL_FREQ_HZ,
    TICK_S,
    Value,
    as_ratio,
    check_finite,
    tick_gap_us,
    ticks_at,
    true_time_of_tick,
)
from .tsch import SLOT_LENGTH_S, SLOT_TICKS_DEN, SLOT_TICKS_NUM, MoteState


class Controller(Enum):
    M1 = "M1"  # hips
    M2 = "M2"  # knees


class TimeRef(Enum):
    """Which time reference a controller uses to fire its gait events."""
    FREE_RUNNING = "free-running"  # local clock, open loop
    ASN = "asn"                    # network absolute slot number


# The dual tripod gait, per phase (phase q fires q quarters into a period):
# the controller that fires it and its six (servo_id, angle_deg) rows, tripod
# T1's legs (0, 2, 4) first and then T2's (1, 3, 5). Hip servo = leg, on M1;
# knee servo = leg + 6, on M2. T1 steps down, back, up, forward (hips 30,
# knees 25, hips -30, knees -25 degrees); T2 runs that cycle half a period
# later, so it commands T1's angle negated.
GAIT_TABLE = (
    (Controller.M1, ((0, 30.0), (2, 30.0), (4, 30.0), (1, -30.0), (3, -30.0), (5, -30.0))),
    (Controller.M2, ((6, 25.0), (8, 25.0), (10, 25.0), (7, -25.0), (9, -25.0), (11, -25.0))),
    (Controller.M1, ((0, -30.0), (2, -30.0), (4, -30.0), (1, 30.0), (3, 30.0), (5, 30.0))),
    (Controller.M2, ((6, -25.0), (8, -25.0), (10, -25.0), (7, 25.0), (9, 25.0), (11, 25.0))),
)


class GaitConfig(Value):
    """The gait period on each time reference: period_slots slots of the
    ASN (68 slots, 1.02 s at 15 ms/slot) or period_s of local time."""

    _fields = ("period_slots", "period_s")

    def __init__(self, period_slots: int = 68, period_s: float = 1.0) -> None:
        # four ticks give each of the four phases its own tick; a multiple
        # of 4 slots puts each phase on a whole slot of its own
        check_finite(period_s=period_s)
        if period_s < 4 * TICK_S:
            raise ValueError("period_s must be at least 4 ticks (4/32768 s)")
        if type(period_slots) is not int or period_slots < 4 or period_slots % 4:
            raise ValueError("period_slots must be an int, a positive multiple of 4")
        self.__dict__.update(period_slots=period_slots, period_s=period_s)

    def period_on(self, ref: TimeRef) -> Fraction:
        """The gait period in seconds as ref counts it: period_s of local
        time, or period_slots slots of the ASN."""
        if ref is TimeRef.FREE_RUNNING:
            return Fraction(self.period_s)
        return self.period_slots * SLOT_LENGTH_S


# One servo angle command without its time: (controller, servo_id,
# angle_deg). The servo id fixes the controller: hips 0-5 belong to M1,
# knees 6-11 to M2.
Row = Tuple[Controller, int, float]


class GaitEvent(NamedTuple):
    """One phase of the gait: the controller that fires it phase_index
    quarters into each period, and its six (controller, servo_id,
    angle_deg) setpoint rows in GAIT_TABLE order, compiled once so that
    setpoints_for_event builds nothing."""
    phase_index: int
    controller: Controller
    rows: Tuple[Row, ...]


class GaitArmState:
    """Per-node arming record created when a Start command is applied; it
    compares by identity."""

    def __init__(self, config: GaitConfig, ref: TimeRef, arm_period_index: int) -> None:
        self.config = config
        self.ref = ref
        # Period 0 is whole period arm_period_index counted on ref: it starts at
        # local time arm_period_index * period_s, or at slot
        # arm_period_index * period_slots.
        self.arm_period_index = arm_period_index


def build_schedule() -> List[GaitEvent]:
    """Compile GAIT_TABLE: one event per phase, in phase order, each with
    its six setpoint rows."""
    return [GaitEvent(phase, controller,
                      tuple((controller, servo_id, angle) for servo_id, angle in rows))
            for phase, (controller, rows) in enumerate(GAIT_TABLE)]


def events_for_controller(schedule: Sequence[GaitEvent],
                          controller: Controller) -> List[GaitEvent]:
    """The schedule's events that the controller fires: M1 owns the hip
    phases, M2 the knee phases; together they partition the schedule."""
    return [e for e in schedule if e.controller is controller]


def _quarter_grid(node: MoteState, ref: TimeRef, config: GaitConfig,
                  first_period: int) -> Tuple[int, int, int, int]:
    """(c, a, b, d): quarter j of the gait whose period 0 is whole period
    first_period counted on ref fires at local tick c + (a + b * j) // d.

    Free-running: the first tick at local time (first_period + j/4) *
    period_s, a ceiling written as a floor, NOMINAL_FREQ_HZ // 4 ticks to
    a quarter of a local second. ASN: the boundary tick of slot
    first_period * period_slots + j * period_slots/4 (tsch.slot_boundary_tick's
    floor), a whole slot, as period_slots is a multiple of 4. This is the
    one place the two time references differ in tick arithmetic.
    """
    if ref is TimeRef.FREE_RUNNING:
        p_num, p_den = as_ratio(config.period_s)
        quarter = p_num * (NOMINAL_FREQ_HZ // 4)
        # the local target is x / p_den ticks, and ceil(x / d) == (x + d - 1) // d
        return 0, 4 * first_period * quarter + p_den - 1, quarter, p_den
    slots = config.period_slots
    return (node.origin_local_ticks, (first_period * slots - node.asn_origin) * SLOT_TICKS_NUM,
            slots // 4 * SLOT_TICKS_NUM, SLOT_TICKS_DEN)


def _last_point_at(grid: Tuple[int, int, int, int], tick: int) -> int:
    """The last quarter of the grid that fires at or before local tick
    tick: the largest j with c + (a + b * j) // d <= tick, which is
    a + b * j < (tick - c + 1) * d."""
    c, a, b, d = grid
    return ((tick - c + 1) * d - a - 1) // b


def _arm(node: MoteState, config: GaitConfig, ref: TimeRef, t_deliver) -> None:
    """Arm the gait so that period 0 is the next whole period counted on ref."""
    quarters = _last_point_at(_quarter_grid(node, ref, config, 0), ticks_at(node.clock, t_deliver))
    node.gait = GaitArmState(config=config, ref=ref, arm_period_index=quarters // 4 + 1)


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
    return _last_point_at(event_tick_form(node), ticks_at(node.clock, t_true)) // 4


def gait_sync_error(m1: MoteState, m2: MoteState, k: int) -> float:
    """Believed-time difference (us) between the controllers for period k.

    Positive when M1's clock runs fast (its believed period start arrives
    earlier in true time than M2's), so the error slope in us per true
    second equals ppm(M1) - ppm(M2).
    """
    return tick_gap_us(m1.clock, event_tick(m1, k, 0), m2.clock, event_tick(m2, k, 0))


def event_tick(node: MoteState, k: int, phase_index: int) -> int:
    """Local tick at which the node fires phase phase_index (0-3) of
    period k: quarter 4 * k + phase_index of its armed grid."""
    c, a, b, d = event_tick_form(node)
    return c + (a + b * (4 * k + phase_index)) // d


def event_tick_form(node: MoteState) -> Tuple[int, int, int, int]:
    """(c, a, b, d) with event_tick(node, k, q) == c + (a + b * (4 * k + q)) // d:
    the quarter grid of the node's arm state, period 0 at arm_period_index.

    The constants depend only on the node's arm state and slot grid, so a
    caller stepping k over one unchanged state computes them once.
    """
    arm = node.gait
    if arm is None:
        raise ValueError(f"gait not armed on {node.node_id}")
    return _quarter_grid(node, arm.ref, arm.config, arm.arm_period_index)


def gait_event_true_time(node: MoteState, k: int, phase_index: int) -> Fraction:
    """True time at which the node fires phase phase_index (0-3) of period k."""
    return true_time_of_tick(node.clock, event_tick(node, k, phase_index))


def setpoints_for_event(event: GaitEvent) -> Tuple[Row, ...]:
    """One phase event's six servo commands, in GAIT_TABLE order (T1's
    legs, then T2's), as (controller, servo_id, angle_deg) rows with no
    time attached.

    The rows were compiled when the event was built (GaitEvent.rows), so
    this returns them as they are and builds nothing.
    """
    return event.rows


def servo_trace(groups: Iterable[Tuple[float, Tuple[Row, ...]]]
                ) -> List[Tuple[float, Tuple[Row, ...]]]:
    """A run's recorded setpoints as one (true_time_s, rows) entry per
    instant, in time order, each instant's rows ordered by servo id;
    same-time rows of one servo keep the order they were emitted in.

    groups is the run's record (simnet's Sim.servo_setpoints.groups): one
    (true_time_s, rows) group per phase event, in emission order, and
    emission time never decreases (a ValueError says otherwise). So an
    instant is a run of neighbouring equal-time groups, and only its own
    rows need a stable sort by servo id; (time, servo_id) orders as (time,
    controller, servo_id) would, since the servo id fixes the controller.
    Each phase has a slot of its own, but same-time groups still occur:
    both controllers can fire at one instant, and a centralized servo
    command applies a whole plan at once.

    The gait emits a few compiled rows tuples over and over, so an
    instant's sorted rows are cached per combination of its groups' rows.
    The key is their identities, not their values: hashing a row hashes
    its Controller member, a Python-level call. The cache keeps each
    key's rows alive, so no identity in it can be reused.
    """
    out: List[Tuple[float, Tuple[Row, ...]]] = []
    append = out.append
    # id(rows) of a one-group instant, or the tuple of its groups' ids ->
    # (the groups' rows, the instant's sorted rows)
    merged: Dict[object, Tuple[tuple, Tuple[Row, ...]]] = {}
    last, parts = -math.inf, ()
    for t, rows in groups:
        if t == last:  # another group of the instant just appended
            parts += (rows,)
            key = tuple(map(id, parts))
            out.pop()
        elif t < last:
            raise ValueError(f"setpoint record goes back in time: {t} after {last}")
        else:
            last, parts, key = t, (rows,), id(rows)
        hit = merged.get(key)
        if hit is None:
            hit = merged[key] = (parts, tuple(sorted(chain.from_iterable(parts),
                                                     key=itemgetter(1))))
        append((t, hit[1]))
    return out
