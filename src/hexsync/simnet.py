"""Deterministic discrete-event engine for the three-node network.

One root and two child controllers exchange slot-aligned messages; every
root-to-child delivery resynchronizes the child's timebase (unless the run
models free-running clocks). Identical (config, seed) pairs replay
bit-identically: latency and drop draws are pure functions of the seed and
a per-message counter, and equal-time events pop in insertion order.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import gait as gaitmod
from .clock import as_seconds, make_clock, true_time_of_local
from .gait import (
    Controller,
    GaitConfig,
    ServoSetpoint,
    TimeRef,
    build_schedule,
    events_for_controller,
)
from .tsch import (
    SLOT_LENGTH_S,
    MoteState,
    asn_at,
    make_mote,
    next_keepalive_due,
    resync_to_parent,
    slot_boundary_true_time,
)


class EventKind(Enum):
    MESSAGE_DELIVERY = "message-delivery"
    KEEPALIVE_DUE = "keepalive-due"
    ROOT_PERIOD = "root-period"            # centralized: root starts gait period k
    CONTROLLER_PHASE = "controller-phase"  # a child fires one phase of period k
    SAMPLE_POINT = "sample-point"
    COMMAND_INJECTION = "command-injection"


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


class ControlMode(Enum):
    CENTRALIZED = "centralized"      # root times the gait, children just apply
    FREE_RUNNING = "free-running"    # children time the gait on local clocks
    ASN = "asn"                      # children time the gait on the shared ASN


@dataclass
class Message:
    kind: MessageKind
    src: str
    dst: str
    sent_true_s: Fraction
    body: object = None
    delivered_true_s: Optional[Fraction] = None


@dataclass(frozen=True)
class LinkModel:
    base_latency_s: float = 0.0
    jitter_bound_s: float = 0.015
    drop_probability: float = 0.0

    def validate(self) -> None:
        if self.base_latency_s < 0 or self.jitter_bound_s < 0:
            raise ValueError("latencies must be non-negative")
        if not (0 <= self.drop_probability < 1):
            raise ValueError("drop_probability must lie in [0, 1)")


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    ppm: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    root: NodeSpec
    children: Tuple[NodeSpec, ...]
    mode: ControlMode = ControlMode.ASN
    gait: GaitConfig = field(default_factory=GaitConfig)
    link: LinkModel = field(default_factory=LinkModel)
    keepalive_period_s: float = 30.0
    sample_every: int = 1
    emit_setpoints: bool = False


@dataclass(order=True)
class SimEvent:
    time_true_s: Fraction
    seq: int
    kind: EventKind = field(compare=False)
    payload: tuple = field(compare=False, default=())


class Sim:
    """A single deterministic simulation; mutate only through its event loop."""

    def __init__(self, config: SimConfig, seed: int):
        if len(config.children) == 0:
            raise ValueError("topology needs two child motes, got none")
        if len(config.children) != 2:
            raise ValueError("topology is exactly one root and two children")
        ids = [config.root.node_id] + [c.node_id for c in config.children]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in {ids}")
        config.link.validate()
        config.gait.validate()
        if config.sample_every < 1:
            raise ValueError("sample_every must be >= 1")

        self.config = config
        self.seed = int(seed)
        self.mode = config.mode
        # Free-running control deliberately leaves child timebases alone.
        self.resync_enabled = config.mode is not ControlMode.FREE_RUNNING

        self.root = make_mote(config.root.node_id, make_clock(config.root.ppm))
        self.children: List[MoteState] = [
            make_mote(c.node_id, make_clock(c.ppm),
                      parent_id=config.root.node_id,
                      keepalive_period_s=config.keepalive_period_s)
            for c in config.children
        ]
        self.nodes: Dict[str, MoteState] = {self.root.node_id: self.root}
        for c in self.children:
            self.nodes[c.node_id] = c
        # children[0] drives the hips (M1), children[1] the knees (M2)
        self.controller_of = {self.children[0].node_id: Controller.M1,
                              self.children[1].node_id: Controller.M2}

        self.now: Fraction = Fraction(0)
        self._heap: List[SimEvent] = []
        self._seq = 0
        self._msg_index = 0
        self._gen = 0  # bumped on any arm/disarm; stale queued events are skipped

        self.samples: List[Tuple[float, int, float]] = []
        self.resync_marks: List[float] = []
        self.servo_setpoints: List[ServoSetpoint] = []

        self._schedule = build_schedule(config.gait)
        self._controller_events = {
            Controller.M1: events_for_controller(self._schedule, Controller.M1),
            Controller.M2: events_for_controller(self._schedule, Controller.M2),
        }
        self._sampler_t0: Optional[Fraction] = None
        self._sample_period: Optional[Fraction] = None
        # centralized mode: root-side gait timing and per-period apply times
        self._root_arm_index: Optional[int] = None
        self._s0_applied: Dict[int, Dict[Controller, Fraction]] = {}

        if self.resync_enabled:
            for child in self.children:
                self._push(next_keepalive_due(child), EventKind.KEEPALIVE_DUE,
                           (child.node_id,))

    # -- queue plumbing ----------------------------------------------------

    def _push(self, t: Fraction, kind: EventKind, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, SimEvent(as_seconds(t), self._seq, kind, payload))

    def _uniform(self, stream: str, index: int) -> float:
        """Counter-based uniform draw in [0, 1); pure in (seed, stream, index)."""
        digest = hashlib.sha256(
            f"{self.seed}:{stream}:{index}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    # -- public operations -------------------------------------------------

    def send(self, msg: Message) -> None:
        """Schedule delivery at the receiver's first slot boundary after the
        sampled link latency; drops retransmit one slot later."""
        if msg.src not in self.nodes or msg.dst not in self.nodes:
            raise ValueError(f"unknown node in {msg.src}->{msg.dst}")
        link = self.config.link
        index = self._msg_index
        self._msg_index += 1
        sent = as_seconds(msg.sent_true_s)
        attempt = 0
        while (link.drop_probability > 0
               and self._uniform("drop", index * 97 + attempt) < link.drop_probability):
            sent += SLOT_LENGTH_S
            attempt += 1
        latency = link.base_latency_s + link.jitter_bound_s * self._uniform("lat", index)
        arrival = sent + as_seconds(latency)
        dst = self.nodes[msg.dst]
        a = asn_at(dst, arrival)
        boundary = slot_boundary_true_time(dst, a)
        t_del = boundary if boundary == arrival else slot_boundary_true_time(dst, a + 1)
        msg.delivered_true_s = t_del
        self._push(t_del, EventKind.MESSAGE_DELIVERY, (msg,))

    def inject_command(self, verb: Verb, t_true) -> None:
        t = as_seconds(t_true)
        if t < self.now:
            raise ValueError(f"cannot inject command in the past ({float(t)} < {float(self.now)})")
        self._push(t, EventKind.COMMAND_INJECTION, (verb,))

    def run_until(self, t_end) -> int:
        """Process every queued event with time <= t_end; returns the count."""
        te = as_seconds(t_end)
        if te < self.now:
            raise ValueError("t_end precedes current simulation time")
        processed = 0
        while self._heap and self._heap[0].time_true_s <= te:
            ev = heapq.heappop(self._heap)
            self.now = ev.time_true_s
            self._HANDLERS[ev.kind](self, *ev.payload)
            processed += 1
        self.now = te
        return processed

    # -- event handlers ----------------------------------------------------

    def _handle_injection(self, verb: Verb) -> None:
        for child in self.children:
            self.send(Message(MessageKind.COMMAND, self.root.node_id,
                              child.node_id, self.now, body=verb))
        if self.mode is ControlMode.CENTRALIZED:
            self._root_apply_command(verb)

    def _handle_delivery(self, msg: Message) -> None:
        dst = self.nodes[msg.dst]
        if (not dst.is_root and msg.src == self.root.node_id
                and self.resync_enabled):
            resync_to_parent(dst, self.root, self.now)
            self.resync_marks.append(float(self.now))
        if msg.kind is MessageKind.KEEP_ALIVE:
            self._push(next_keepalive_due(dst), EventKind.KEEPALIVE_DUE,
                       (dst.node_id,))
        elif msg.kind is MessageKind.COMMAND:
            self._apply_command(dst, msg.body)
        elif msg.kind is MessageKind.SERVO_COMMAND:
            self._apply_servo_command(dst, msg.body)

    def _handle_keepalive_due(self, child_id: str) -> None:
        child = self.nodes[child_id]
        due = next_keepalive_due(child)
        if due > self.now:
            # an intervening exchange already resynced this child
            self._push(due, EventKind.KEEPALIVE_DUE, (child_id,))
            return
        self.send(Message(MessageKind.KEEP_ALIVE, self.root.node_id,
                          child_id, self.now))

    # -- gait control ------------------------------------------------------

    def _apply_command(self, child: MoteState, verb: Verb) -> None:
        if self.mode is ControlMode.CENTRALIZED:
            return  # root-side timing handles everything
        if verb is Verb.START:
            if self.mode is ControlMode.FREE_RUNNING:
                gaitmod.arm_free_running(child, self.config.gait, self.now)
            else:
                gaitmod.arm_asn_ref(child, self.config.gait, self.now)
            self._gen += 1
            if all(c.gait is not None for c in self.children):
                self._harmonize_origins()
                self._start_sampler()
                if self.config.emit_setpoints:
                    for c in self.children:
                        self._schedule_controller_period(c, 0)
        elif verb is Verb.STOP:
            child.gait = None
            self._gen += 1
        elif child.gait is not None:
            k_next = gaitmod.period_index_at(child, self.now) + 1
            if verb is Verb.LEFT:
                child.gait.pending_turn = (True, False, k_next)
            elif verb is Verb.RIGHT:
                child.gait.pending_turn = (False, True, k_next)
            elif verb is Verb.FORWARD:
                child.gait.pending_turn = (False, False, k_next)

    def _harmonize_origins(self) -> None:
        """Give both children a common period-0 origin.

        Start deliveries land on nearby but distinct slot boundaries; if
        they straddle a period multiple the later origin wins on both.
        """
        arms = [c.gait for c in self.children]
        if arms[0].ref is TimeRef.ASN:
            common = max(a.arm_asn for a in arms)
            for a in arms:
                a.arm_asn = common
        else:
            common = max(a.arm_period_index for a in arms)
            for a in arms:
                a.arm_period_index = common

    def _start_sampler(self) -> None:
        cfg = self.config.gait
        m1 = self.children[0].gait
        if m1.ref is TimeRef.ASN:
            period = cfg.period_slots * SLOT_LENGTH_S
            t0 = m1.arm_asn * SLOT_LENGTH_S
        else:
            period = as_seconds(cfg.period_s)
            t0 = m1.arm_period_index * period
        self._sampler_t0 = t0
        self._sample_period = period
        self._push(t0 + period / 2, EventKind.SAMPLE_POINT, (self._gen, 0))

    def _handle_sample(self, gen: int, k: int) -> None:
        if gen != self._gen:
            return
        if any(c.gait is None for c in self.children):
            return
        err = gaitmod.gait_sync_error(self.children[0], self.children[1], k)
        self.samples.append((round(float(self.now), 6), k, round(err, 3)))
        k_next = k + self.config.sample_every
        self._push(self._sampler_t0 + k_next * self._sample_period + self._sample_period / 2,
                   EventKind.SAMPLE_POINT, (gen, k_next))

    def _schedule_controller_period(self, child: MoteState, k: int) -> None:
        ctrl = self.controller_of[child.node_id]
        phases = sorted({e.phase_index for e in self._controller_events[ctrl]})
        for phase in phases:
            offset = self.config.gait.event_offsets[phase]
            t = gaitmod.gait_event_true_time(child, k, Fraction(offset))
            last = phase == phases[-1]
            self._push(t, EventKind.CONTROLLER_PHASE,
                       (child.node_id, self._gen, k, phase, last))

    def _handle_controller_phase(self, node_id: str, gen: int,
                                 k: int, phase: int, last: bool) -> None:
        child = self.nodes[node_id]
        if gen != self._gen or child.gait is None:
            return
        arm = child.gait
        if arm.pending_turn is not None and k >= arm.pending_turn[2]:
            arm.swap_left, arm.swap_right = arm.pending_turn[:2]
            arm.pending_turn = None
        ctrl = self.controller_of[node_id]
        for event in self._controller_events[ctrl]:
            if event.phase_index == phase:
                self.servo_setpoints.extend(gaitmod.setpoints_for_event(
                    event, ctrl, self.now, arm.swap_left, arm.swap_right))
        if last:
            self._schedule_controller_period(child, k + 1)

    # -- centralized (root-timed) control ----------------------------------

    def _root_apply_command(self, verb: Verb) -> None:
        if verb is Verb.START:
            self._root_arm_index = gaitmod.next_period_index(
                self.root.clock, self.now, self.config.gait.period_s)
            self._gen += 1
            self._push(self._root_period_time(0), EventKind.ROOT_PERIOD, (self._gen, 0))
        elif verb is Verb.STOP:
            self._root_arm_index = None
            self._gen += 1

    def _root_period_time(self, k: int) -> Fraction:
        return true_time_of_local(
            self.root.clock, (self._root_arm_index + k) * Fraction(self.config.gait.period_s))

    def _handle_root_period(self, gen: int, k: int) -> None:
        if gen != self._gen or self._root_arm_index is None:
            return
        # nominally simultaneous per-period commands to both controllers
        for child in self.children:
            self.send(Message(MessageKind.SERVO_COMMAND, self.root.node_id,
                              child.node_id, self.now, body=k))
        self._push(self._root_period_time(k + 1), EventKind.ROOT_PERIOD, (gen, k + 1))

    def _apply_servo_command(self, child: MoteState, k: int) -> None:
        ctrl = self.controller_of[child.node_id]
        applied = self._s0_applied.setdefault(k, {})
        applied[ctrl] = self.now
        if self.config.emit_setpoints:
            for event in self._controller_events[ctrl]:
                self.servo_setpoints.extend(
                    gaitmod.setpoints_for_event(event, ctrl, self.now))
        if len(applied) == 2:
            err = float((applied[Controller.M2] - applied[Controller.M1]) * 10**6)
            t = max(applied.values())
            self.samples.append((round(float(t), 6), k, round(err, 3)))
            del self._s0_applied[k]

    # event kind -> handler; an event's payload is its handler's arguments
    _HANDLERS = {
        EventKind.COMMAND_INJECTION: _handle_injection,
        EventKind.MESSAGE_DELIVERY: _handle_delivery,
        EventKind.KEEPALIVE_DUE: _handle_keepalive_due,
        EventKind.SAMPLE_POINT: _handle_sample,
        EventKind.ROOT_PERIOD: _handle_root_period,
        EventKind.CONTROLLER_PHASE: _handle_controller_phase,
    }


def make_sim(config: SimConfig, seed: int) -> Sim:
    """Build a primed simulation; identical (config, seed) replay identically."""
    return Sim(config, seed)
