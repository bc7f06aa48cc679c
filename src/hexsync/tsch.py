"""Timeslotted synchronization layer: 15 ms slots, ASN, parent resync.

Slot boundaries are defined in continuous local seconds (boundary for slot
number n sits at local time (n - asn_origin) * 0.015 s past the node's
alignment origin) and quantized down to the node's tick grid when converted
to true time. 15 ms is 491.52 = 12288/25 ticks, so consecutive boundaries
land 15 ms apart in local time only to within one tick. Slot and tick
conversions are single integer floor or ceil divisions by that ratio. A
frame is delivered at the receiver's first slot boundary at or after its
arrival (first_boundary_tick).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .clock import (
    NOMINAL_FREQ_HZ,
    DriftingClock,
    tick_gap_us,
    ticks_at,
    true_time_of_tick,
)

SLOT_LENGTH_S = Fraction(15, 1000)
TICKS_PER_SLOT = SLOT_LENGTH_S * NOMINAL_FREQ_HZ  # 491.52, not an integer
SLOT_TICKS_NUM = TICKS_PER_SLOT.numerator    # 12288
SLOT_TICKS_DEN = TICKS_PER_SLOT.denominator  # 25


@dataclass
class MoteState:
    """One network node: identity, role, clock and ASN alignment.

    asn_origin / origin_local_ticks pin the node's slot grid: slot
    asn_origin begins at local tick origin_local_ticks. Resynchronization
    rewrites this alignment against the unchanged local clock, so
    free-running local-time readings are untouched by it.
    """

    node_id: str
    clock: DriftingClock
    parent_id: Optional[str] = None
    asn_origin: int = 0
    origin_local_ticks: int = 0
    gait: Optional["object"] = None  # gait.GaitArmState once armed

    @property
    def is_root(self) -> bool:
        return self.parent_id is None


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


def first_boundary_tick(node: MoteState, t_true) -> int:
    """Boundary tick of the node's first slot that starts at or after t_true.

    t_true is an exact (num, den) pair. One ceiling division gives the first
    tick at or after t_true, a second the first slot whose boundary tick
    reaches that tick.
    """
    num, den = t_true
    clock = node.clock
    tick = -(-num * clock.rate_num // (den * clock.rate_den))
    # asn_origin + ceil((tick - origin_local_ticks) / TICKS_PER_SLOT)
    asn = node.asn_origin - ((node.origin_local_ticks - tick) * SLOT_TICKS_DEN
                             // SLOT_TICKS_NUM)
    return slot_boundary_tick(node, asn)


def resync_to_parent(child: MoteState, parent: MoteState, t_true) -> float:
    """Align the child's ASN and slot grid to its parent at a message instant.

    The child adopts the parent's current ASN and re-pins its slot grid so
    its next boundary coincides with the parent's next boundary, quantized
    to the child's own tick grid. Returns the residual misalignment in us,
    always less than one tick.
    """
    if child.is_root:
        raise ValueError("root has no time-source parent to resync to")
    parent_asn = asn_at(parent, t_true)
    parent_tick = slot_boundary_tick(parent, parent_asn + 1)
    child.asn_origin = parent_asn + 1
    # the parent tick's true time as an exact (n, d) pair
    child.origin_local_ticks = ticks_at(
        child.clock, (parent_tick * parent.clock.rate_den, parent.clock.rate_num))
    # the child's own next boundary is its origin tick
    return tick_gap_us(child.clock, child.origin_local_ticks, parent.clock, parent_tick)


def pairwise_sync_error(a: MoteState, b: MoteState, asn: int) -> float:
    """Signed true-time difference (us) between two nodes' boundary for one slot."""
    return tick_gap_us(b.clock, slot_boundary_tick(b, asn), a.clock, slot_boundary_tick(a, asn))

