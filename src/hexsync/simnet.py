"""Deterministic discrete-event engine for the three-node network.

A star: the root sends slot-aligned frames to its two child controllers,
and every delivery resynchronizes the receiving child's timebase (unless
the run models free-running clocks). Identical (scheme, params) pairs replay
bit-identically: latency and drop draws are pure functions of the seed and
a per-message counter, and equal-time events pop in insertion order.

The decentralized schemes sample the gait error once per period, and the
samples share one heap entry per window: when it pops it emits every
sample before the heap's next event and within run_until's bound, then
re-queues itself at the next sample (Sim._handle_samples). Equal-time
events still run as one entry per sample would order them, and
run_until's count is of heap entries, so a window counts once.
Centralized samples come from the servo commands as they are applied.

Simulation time is one integer t over a per-sim denominator D: the instant
t / D seconds. D is the lcm of the three clocks' rate numerators (tick k of
a clock falls at k * rate_den / rate_num), twice the denominators of both
gait periods (samples sit mid-period) and the keep-alive period's
denominator, so every time the loop queues is an exact int. Heap keys, the
run bound, keep-alive due times and the centralized apply times are such
ints. A command or run-end time whose denominator d does not divide D
rescales the sim: D becomes lcm(D, d) and every stored int is multiplied by
the same positive factor, which keeps their order. A frame's arrival (sent
time, retransmit slots and the latency draw) stays an exact integer pair
until tsch.first_boundary_tick finds the receiver's first slot boundary at
or after it; only that boundary's time is queued.

A Message carries its sent and delivered times as exact (num, den) int
pairs, and the three senders pass the pair (t, D) for now. Floats come from
int true division, which rounds the same rational as float(Fraction). A
Fraction is built only when a caller reads one: Sim.now, and a Message's
sent_true_s and delivered_true_s, which are views built from the pairs.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import gait as gaitmod
from .clock import as_ratio, make_clock
from .gait import (
    PHASE_ZERO,
    Controller,
    GaitArmState,
    GaitConfig,
    GaitEvent,
    ServoSetpoint,
    TimeRef,
    build_schedule,
    events_for_controller,
)
from .tsch import SLOT_LENGTH_S, MoteState, first_boundary_tick, make_mote, resync_to_parent

_SLOT_NUM, _SLOT_DEN = as_ratio(SLOT_LENGTH_S)  # 3 / 200 s

# One phase a controller fires each period: the phase offset as a
# (num, den) pair, that phase's events in schedule order, and whether it is
# the controller's last phase of the period.
_Phase = Tuple[Tuple[int, int], Tuple[GaitEvent, ...], bool]


class MessageKind(Enum):
    COMMAND = "command"
    KEEP_ALIVE = "keep-alive"
    SERVO_COMMAND = "servo-command"


class Verb(Enum):
    START = "start"
    STOP = "stop"
    FORWARD = "forward"
    LEFT = "left"
    RIGHT = "right"


class SchemeId(Enum):
    S0_CENTRALIZED = "centralized"     # root times the gait, children just apply
    S1_OPEN_LOOP = "open-loop"         # children time the gait on local clocks
    S2_SYNCHRONIZED = "synchronized"   # children time the gait on the shared ASN


# the time reference each scheme's gait-timing node counts its periods on
GAIT_TIME_REF = {
    SchemeId.S0_CENTRALIZED: TimeRef.FREE_RUNNING,
    SchemeId.S1_OPEN_LOOP: TimeRef.FREE_RUNNING,
    SchemeId.S2_SYNCHRONIZED: TimeRef.ASN,
}


@dataclass(slots=True)
class Message:
    """A frame from the root to one of its children; every frame flows that way.

    sent and delivered hold the times as exact (num, den) pairs, unreduced,
    so two messages compare equal when their pairs are equal term by term.
    sent may be given as any time value; delivered is None until Sim.send
    schedules the frame.
    """
    kind: MessageKind
    dst: MoteState
    sent: Tuple[int, int]
    body: object = None
    delivered: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if type(self.sent) is not tuple:
            self.sent = as_ratio(self.sent)

    @property
    def sent_true_s(self) -> Fraction:
        """The sent time in seconds, exactly."""
        return Fraction(*self.sent)

    @property
    def delivered_true_s(self) -> Optional[Fraction]:
        """The delivery time in seconds, exactly, once scheduled."""
        return None if self.delivered is None else Fraction(*self.delivered)


@dataclass(frozen=True)
class LinkModel:
    base_latency_s: float = 0.0
    jitter_bound_s: float = 0.015
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_latency_s) and math.isfinite(self.jitter_bound_s)):
            raise ValueError("latencies must be finite")
        if self.base_latency_s < 0 or self.jitter_bound_s < 0:
            raise ValueError("latencies must be non-negative")
        if not (0 <= self.drop_probability < 1):
            raise ValueError("drop_probability must lie in [0, 1)")


@dataclass(frozen=True)
class SchemeParams:
    """The one run configuration of the root, M1 (hips) and M2 (knees) network."""
    ppm_m1: float = -3.0
    ppm_m2: float = 0.0
    ppm_root: float = 0.0
    duration_s: float = 400.0
    resync_period_s: float = 30.0
    seed: int = 1
    gait: GaitConfig = field(default_factory=GaitConfig)
    link: LinkModel = field(default_factory=LinkModel)
    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.resync_period_s <= 0:
            raise ValueError("resync_period_s must be positive")
        if not (math.isfinite(self.resync_period_s) and math.isfinite(self.duration_s)):
            raise ValueError("resync_period_s and duration_s must be finite")


class Sim:
    """A single deterministic simulation; mutate only through its event loop."""

    def __init__(self, scheme: SchemeId, params: SchemeParams,
                 emit_setpoints: bool = False):
        self.scheme = scheme
        self.params = params
        self.seed = int(params.seed)
        self.emit_setpoints = emit_setpoints
        # Free-running control deliberately leaves child timebases alone.
        self.resync_enabled = scheme is not SchemeId.S1_OPEN_LOOP

        self.root = make_mote("root", make_clock(params.ppm_root))
        self.children: List[MoteState] = [
            make_mote(node_id, make_clock(ppm), parent_id="root")
            for node_id, ppm in (("m1", params.ppm_m1), ("m2", params.ppm_m2))
        ]

        self.samples: List[Tuple[float, int, float]] = []
        self.resync_marks: List[float] = []
        self.servo_setpoints: List[ServoSetpoint] = []

        # Each child's plan, compiled once: m1 drives the hips (M1), m2 the
        # knees (M2). Per node id: the controller, all its events (the
        # centralized scheme applies them at once) and the phases it fires.
        schedule = build_schedule(params.gait)
        self._plans: Dict[str, Tuple[Controller, Tuple[GaitEvent, ...],
                                     Tuple[_Phase, ...]]] = {}
        for child, ctrl in zip(self.children, (Controller.M1, Controller.M2)):
            events = tuple(events_for_controller(schedule, ctrl))
            phases = sorted({e.phase_index for e in events})
            self._plans[child.node_id] = (ctrl, events, tuple(
                (as_ratio(params.gait.event_offsets[phase]),
                 tuple(e for e in events if e.phase_index == phase),
                 phase == phases[-1])
                for phase in phases))
        # (num, den) seconds of one gait period on the scheme's time reference
        self._period_ratio = as_ratio(params.gait.period_on(GAIT_TIME_REF[scheme]))
        self._keepalive_ratio = as_ratio(params.resync_period_s)

        # the time now is _t / _D; every stored time below is over _D
        self._D = 1
        self._t = 0
        # (time, seq, handler, args): run_until calls handler(self, *args); seq
        # breaks time ties in insertion order, so handlers are never compared
        self._heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._msg_index = 0
        self._gen = 0  # bumped on every arm and disarm; older-gen timed events are stale
        self._t_end = 0  # run_until's bound over D; no sample window passes it
        # each child's last resync: its keep-alive falls due one period later
        self._last_resync = {c.node_id: 0 for c in self.children}
        # centralized: per-period apply times, by child node id
        self._s0_applied: Dict[int, Dict[str, int]] = {}
        self._rescale(math.lcm(
            *(node.clock.rate_num for node in (self.root, *self.children)),
            2 * self._period_ratio[1],
            self._keepalive_ratio[1]))

        if self.resync_enabled:
            for child in self.children:
                self._push(self._keepalive_due(child), Sim._handle_keepalive_due,
                           (child,))

    @property
    def now(self) -> Fraction:
        """The current simulation time in seconds, exactly."""
        return Fraction(self._t, self._D)

    # -- time and queue plumbing ---------------------------------------------

    def _rescale(self, den: int) -> None:
        """Make den divide D: multiply D and every stored time by one factor."""
        D = math.lcm(self._D, den)
        f = D // self._D
        self._D = D
        self._t *= f
        # a positive factor keeps the order, so the list stays a heap
        self._heap[:] = [(t * f, *rest) for t, *rest in self._heap]
        for node_id, t in self._last_resync.items():
            self._last_resync[node_id] = t * f
        for applied in self._s0_applied.values():
            for node_id, t in applied.items():
                applied[node_id] = t * f
        # D / (seconds per tick), per node: tick k falls at k * unit over D
        self._tick_unit = {node.node_id: node.clock.rate_den * (D // node.clock.rate_num)
                           for node in (self.root, *self.children)}
        ka_num, ka_den = self._keepalive_ratio
        self._keepalive = ka_num * (D // ka_den)
        # one gait period over D; even, as 2 * p_den divides D, so the
        # half-period offset of a sample is an int too
        p_num, p_den = self._period_ratio
        self._period = p_num * (D // p_den)

    def _time_int(self, t) -> int:
        """Any time value as an int over D, rescaling first if it needs to."""
        num, den = as_ratio(t)
        if self._D % den:
            self._rescale(den)
        return num * (self._D // den)

    def _period_start(self, node: MoteState, k: int) -> int:
        """The start of the node's gait period k, as an int over D."""
        return gaitmod.event_tick(node, k, PHASE_ZERO) * self._tick_unit[node.node_id]

    def _keepalive_due(self, child: MoteState) -> int:
        """Latest instant by which the child must next hear from the root."""
        return self._last_resync[child.node_id] + self._keepalive

    def _push(self, t: int, handler: Callable[..., None], args: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, handler, args))

    def _uniform(self, stream: str, index: int) -> float:
        """Counter-based uniform draw in [0, 1); pure in (seed, stream, index)."""
        digest = hashlib.sha256(
            f"{self.seed}:{stream}:{index}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    # -- public operations -------------------------------------------------

    def send(self, msg: Message) -> None:
        """Schedule delivery at the receiver's first slot boundary at or
        after the sampled link latency; drops retransmit one slot later."""
        link = self.params.link
        index = self._msg_index
        self._msg_index += 1
        attempt = 0
        while (link.drop_probability > 0
               and self._uniform("drop", index * 97 + attempt) < link.drop_probability):
            attempt += 1
        # the latency is a float (the draw is one), so as_integer_ratio is exact
        lat_num, lat_den = (link.base_latency_s + link.jitter_bound_s
                            * self._uniform("lat", index)).as_integer_ratio()
        s_num, s_den = msg.sent
        # arrival = sent + attempt slots + latency, as one exact pair
        arr_num = ((s_num * _SLOT_DEN + attempt * _SLOT_NUM * s_den) * lat_den
                   + lat_num * s_den * _SLOT_DEN)
        arr_den = s_den * _SLOT_DEN * lat_den
        dst = msg.dst
        t_del = first_boundary_tick(dst, (arr_num, arr_den)) * self._tick_unit[dst.node_id]
        msg.delivered = (t_del, self._D)
        self._push(t_del, Sim._handle_delivery, (msg,))

    def inject_command(self, verb: Verb, t_true) -> None:
        t = self._time_int(t_true)
        if t < self._t:
            raise ValueError(f"cannot inject command in the past "
                             f"({t / self._D} < {self._t / self._D})")
        self._push(t, Sim._handle_injection, (verb,))

    def run_until(self, t_end) -> int:
        """Process every queued event with time <= t_end; returns the count.

        The count is of heap entries: one sampler entry emits a window of
        samples (see _handle_samples) and counts once.
        """
        te = self._time_int(t_end)
        if te < self._t:
            raise ValueError("t_end precedes current simulation time")
        self._t_end = te
        processed = 0
        heap = self._heap
        # handlers queue only times over D, so D stays fixed in this loop
        while heap and heap[0][0] <= te:
            self._t, _, handler, args = heapq.heappop(heap)
            handler(self, *args)
            processed += 1
        self._t = te
        return processed

    # -- event handlers ----------------------------------------------------

    def _handle_injection(self, verb: Verb) -> None:
        for child in self.children:
            self.send(Message(MessageKind.COMMAND, child, (self._t, self._D), body=verb))
        if self.scheme is SchemeId.S0_CENTRALIZED:
            self._apply_command(self.root, verb)

    def _handle_delivery(self, msg: Message) -> None:
        child = msg.dst
        if self.resync_enabled:
            resync_to_parent(child, self.root, (self._t, self._D))
            self._last_resync[child.node_id] = self._t
            self.resync_marks.append(self._t / self._D)
        if msg.kind is MessageKind.KEEP_ALIVE:
            self._push(self._keepalive_due(child), Sim._handle_keepalive_due, (child,))
        elif msg.kind is MessageKind.COMMAND:
            if self.scheme is not SchemeId.S0_CENTRALIZED:
                self._apply_command(child, msg.body)
        elif msg.kind is MessageKind.SERVO_COMMAND:
            self._apply_servo_command(child, msg.body)

    def _handle_keepalive_due(self, child: MoteState) -> None:
        due = self._keepalive_due(child)
        if due > self._t:
            # an intervening exchange already resynced this child
            self._push(due, Sim._handle_keepalive_due, (child,))
            return
        self.send(Message(MessageKind.KEEP_ALIVE, child, (self._t, self._D)))

    # -- gait control ------------------------------------------------------

    def _apply_command(self, node: MoteState, verb: Verb) -> None:
        """Apply a command on a node that times the gait: the root in
        centralized runs, each child otherwise. A turn waits for the node's
        next gait period, or for period 0 if that has not begun."""
        now = (self._t, self._D)
        if verb is Verb.START:
            if GAIT_TIME_REF[self.scheme] is TimeRef.ASN:
                gaitmod.arm_asn_ref(node, self.params.gait, now)
            else:
                gaitmod.arm_free_running(node, self.params.gait, now)
            self._gen += 1
            if node is self.root:
                self._push(self._period_start(node, 0), Sim._handle_root_period,
                           (self._gen, 0))
            elif all(c.gait is not None for c in self.children):
                self._harmonize_origins()
                self._start_sampler()
                if self.emit_setpoints:
                    for c in self.children:
                        self._schedule_controller_period(c, 0)
        elif verb is Verb.STOP:
            node.gait = None
            self._gen += 1
        elif node.gait is not None:
            # before period 0 the index reads -1 or less: the turn takes
            # effect from period 0
            k_next = max(0, gaitmod.period_index_at(node, now) + 1)
            node.gait.pending_turn = (*_SWAPS[verb], k_next)

    def _harmonize_origins(self) -> None:
        """Give both children a common period-0 origin.

        Start deliveries land on nearby but distinct slot boundaries; if
        they straddle a period multiple the later origin wins on both.
        """
        arms = [c.gait for c in self.children]
        common = max(a.arm_period_index for a in arms)
        for a in arms:
            a.arm_period_index = common

    def _start_sampler(self) -> None:
        # sample 0 sits mid-period: (origin + 1/2) periods
        origin = self.children[0].gait.arm_period_index
        self._push((2 * origin + 1) * self._period // 2, Sim._handle_samples, (self._gen, 0))

    def _handle_samples(self, gen: int, k: int) -> None:
        """Emit sample k, then k + sample_every, ... while each sample's time
        is strictly before the heap head's and at or before run_until's
        bound; then re-queue at the next sample.

        A sample only reads state and nothing else runs inside a window, so
        each sample reads what its own heap entry would have read. The strict
        bound keeps equal-time order: an event already queued outranks, at
        an equal time, the entry a later sample would have had, and an event
        queued after this window is outranked by the re-queued entry, as it
        would have been.
        """
        if gen != self._gen:
            return
        t, D, heap = self._t, self._D, self._heap
        every = self.params.sample_every
        step = every * self._period
        last = self._t_end
        if heap and heap[0][0] <= last:
            last = heap[0][0] - 1
        n = 1 + max(0, (last - t) // step)
        m1, m2 = self.children
        # the hoisted constants pay off from two samples on; a one-sample
        # window, common when controller phases interleave, skips them
        errs = (gaitmod.sync_errors(m1, m2, range(k, k + n * every, every)) if n > 1
                else (gaitmod.gait_sync_error(m1, m2, k),))
        append = self.samples.append
        for err in errs:
            append((round(t / D, 6), k, round(err, 3)))
            t += step
            k += every
        self._push(t, Sim._handle_samples, (gen, k))

    def _schedule_controller_period(self, child: MoteState, k: int) -> None:
        ctrl, _, phases = self._plans[child.node_id]
        unit = self._tick_unit[child.node_id]
        gen = self._gen
        for offset, events, last in phases:
            self._push(gaitmod.event_tick(child, k, offset) * unit,
                       Sim._handle_controller_phase, (child, ctrl, gen, k, events, last))

    def _handle_controller_phase(self, child: MoteState, ctrl: Controller, gen: int,
                                 k: int, events: Tuple[GaitEvent, ...], last: bool) -> None:
        if gen != self._gen:
            return
        self._emit(ctrl, events, *_swaps_at(child.gait, k))
        if last:
            self._schedule_controller_period(child, k + 1)

    def _emit(self, ctrl: Controller, events: Tuple[GaitEvent, ...],
              swap_left: bool, swap_right: bool) -> None:
        """Record the servo setpoints of ctrl's events, fired now."""
        now_s = self._t / self._D
        out = self.servo_setpoints
        for event in events:
            out.extend(gaitmod.setpoints_for_event(event, ctrl, now_s, swap_left, swap_right))

    # -- centralized (root-timed) control ----------------------------------

    def _handle_root_period(self, gen: int, k: int) -> None:
        if gen != self._gen:
            return
        # nominally simultaneous per-period commands to both controllers,
        # each carrying the period's knee swap state
        body = (k, *_swaps_at(self.root.gait, k))
        for child in self.children:
            self.send(Message(MessageKind.SERVO_COMMAND, child, (self._t, self._D),
                              body=body))
        self._push(self._period_start(self.root, k + 1),
                   Sim._handle_root_period, (gen, k + 1))

    def _apply_servo_command(self, child: MoteState,
                             body: Tuple[int, bool, bool]) -> None:
        k, swap_left, swap_right = body
        applied = self._s0_applied.setdefault(k, {})
        applied[child.node_id] = self._t
        if self.emit_setpoints:
            ctrl, events, _ = self._plans[child.node_id]
            self._emit(ctrl, events, swap_left, swap_right)
        if len(applied) == 2:
            del self._s0_applied[k]
            if k % self.params.sample_every == 0:
                D = self._D
                m1, m2 = self.children
                err = (applied[m2.node_id] - applied[m1.node_id]) * 10**6 / D
                t = max(applied.values())
                self.samples.append((round(t / D, 6), k, round(err, 3)))


# the knee swap (left, right) each turn verb sets
_SWAPS = {Verb.LEFT: (True, False), Verb.RIGHT: (False, True), Verb.FORWARD: (False, False)}


def _swaps_at(arm: GaitArmState, k: int) -> Tuple[bool, bool]:
    """The arm's knee swap state for period k: a pending turn takes effect
    from its period on."""
    turn = arm.pending_turn
    if turn is not None and k >= turn[2]:
        arm.swap_left, arm.swap_right, _ = turn
        arm.pending_turn = None
    return arm.swap_left, arm.swap_right


def make_sim(scheme: SchemeId, params: SchemeParams,
             emit_setpoints: bool = False) -> Sim:
    """Build a primed simulation; identical (scheme, params) replay identically."""
    return Sim(scheme, params, emit_setpoints)
