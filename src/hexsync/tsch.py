"""Timeslotted synchronization layer: 15 ms slots, ASN, parent resync.

Slot boundaries are defined in continuous local seconds (boundary for slot
number n sits at local time (n - asn_origin) * 0.015 s past the node's
alignment origin) and quantized down to the node's tick grid when converted
to true time. 15 ms is 491.52 = 12288/25 ticks, so consecutive boundaries
land 15 ms apart in local time only to within one tick. Slot and tick
conversions are single integer floor or ceil divisions by that ratio. A
frame is delivered at the receiver's first slot boundary at or after its
arrival (first_boundary_tick), and a resync pins the child to the parent's
next boundary (resync_to_parent); both read _first_boundary, the first
slot boundary at or after a local tick.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .clock import (
    NOMINAL_FREQ_HZ,
    DriftingClock,
    as_ratio,
    ticks_at,
    true_time_of_tick,
)

SLOT_LENGTH_S = Fraction(15, 1000)
TICKS_PER_SLOT = SLOT_LENGTH_S * NOMINAL_FREQ_HZ  # 491.52, not an integer
SLOT_TICKS_NUM = TICKS_PER_SLOT.numerator    # 12288
SLOT_TICKS_DEN = TICKS_PER_SLOT.denominator  # 25


class MoteState:
    """One network node: identity, role, clock and ASN alignment.

    asn_origin / origin_local_ticks pin the node's slot grid: slot
    asn_origin begins at local tick origin_local_ticks. Resynchronization
    rewrites this alignment against the unchanged local clock, so
    free-running local-time readings are untouched by it. A node compares
    by identity.
    """

    def __init__(self, node_id: str, clock: DriftingClock,
                 parent_id: Optional[str] = None) -> None:
        self.node_id = node_id
        self.clock = clock
        self.parent_id = parent_id
        self.asn_origin = 0
        self.origin_local_ticks = 0
        self.gait = None  # gait.GaitArmState once armed


def make_mote(node_id: str, clock: DriftingClock,
              parent_id: Optional[str] = None) -> MoteState:
    return MoteState(node_id=node_id, clock=clock, parent_id=parent_id)


def slot_boundary_tick(node: MoteState, asn: int) -> int:
    """The node's local tick at slot asn's start, quantized down to whole ticks.

    The grid extends backwards on the same 15 ms spacing, so slots shortly
    before the alignment origin (reachable right after a resync pins the
    origin at the *next* parent boundary) resolve too.
    """
    return (node.origin_local_ticks
            + (asn - node.asn_origin) * SLOT_TICKS_NUM // SLOT_TICKS_DEN)


def slot_boundary_true_time(node: MoteState, asn: int) -> Fraction:
    """True time at which the node's local time first reaches slot asn's start."""
    return true_time_of_tick(node.clock, slot_boundary_tick(node, asn))


def asn_at(node: MoteState, t_true) -> int:
    """Largest slot number whose boundary is at or before t_true."""
    elapsed_ticks = ticks_at(node.clock, t_true) + 1 - node.origin_local_ticks
    # asn_origin + ceil(elapsed_ticks / TICKS_PER_SLOT) - 1
    return node.asn_origin - (-elapsed_ticks * SLOT_TICKS_DEN // SLOT_TICKS_NUM) - 1


def _first_boundary(node: MoteState, tick: int) -> Tuple[int, int]:
    """(asn, boundary tick) of the node's first slot whose boundary tick is
    at or after the local tick: one ceiling division gives the slot, and
    its boundary tick is slot_boundary_tick's floor."""
    origin = node.origin_local_ticks
    # asn_origin + ceil((tick - origin_local_ticks) / TICKS_PER_SLOT)
    steps = -((origin - tick) * SLOT_TICKS_DEN // SLOT_TICKS_NUM)
    return node.asn_origin + steps, origin + steps * SLOT_TICKS_NUM // SLOT_TICKS_DEN


def first_boundary_tick(node: MoteState, t_true) -> int:
    """Boundary tick of the node's first slot that starts at or after t_true.

    t_true is an exact (num, den) pair. One ceiling division gives the first
    tick at or after t_true, _first_boundary the first slot whose boundary
    tick reaches that tick.
    """
    num, den = t_true
    clock = node.clock
    return _first_boundary(node, -(-num * clock.rate_num // (den * clock.rate_den)))[1]


def resync_to_parent(child: MoteState, parent: MoteState, t_true) -> None:
    """Align the child's ASN and slot grid to its parent at a message instant.

    The child adopts the parent's current ASN and re-pins its slot grid so
    its next boundary coincides with the parent's next boundary, quantized
    down to the child's own tick grid. The parent's next boundary is its
    first at or after the tick after its tick count at t_true (asn_at's
    slot + 1). The residual misalignment in us, when wanted, is
    -ref_pairwise_sync_error(child, parent, child.asn_origin), the exact
    twin's helper (tests/reference_sim.py), which lies in [0, one child
    tick). The root has no parent, and a time before the epoch has no
    tick: both raise ValueError.
    """
    if child.parent_id is None:
        raise ValueError("root has no time-source parent to resync to")
    num, den = t_true if type(t_true) is tuple else as_ratio(t_true)
    if num < 0:
        raise ValueError(f"t_true {num / den} precedes clock epoch")
    p_clock, c_clock = parent.clock, child.clock
    asn, tick = _first_boundary(parent, p_clock.rate_num * num // (p_clock.rate_den * den) + 1)
    child.asn_origin = asn
    # the child's tick count at the parent tick's true time, tick * rate_den / rate_num
    child.origin_local_ticks = (c_clock.rate_num * tick * p_clock.rate_den
                                // (c_clock.rate_den * p_clock.rate_num))

