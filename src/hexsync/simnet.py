"""Deterministic discrete-event engine for the three-node network.

A star: the root sends slot-aligned frames to its two child controllers,
and every delivery resynchronizes the receiving child's timebase (unless
the run models free-running clocks). Identical (scheme, params) pairs replay
bit-identically: latency and drop draws are pure functions of the seed and
a per-message counter, and equal-time events pop in insertion order.

A frame is two ints on the run path: its sent time's numerator over D,
and the delivery time Sim._delivery returns over D. Its delivery is the
heap entry (d, seq, Sim._handle_delivery, (child, action, body)), or a
window's direct call with those args: after the resync, a frame has one
effect, its action, a Sim method the sender picks with its body:
- a keep-alive queues its child's next keep-alive due, one period on;
- a Command frame applies its verb on the child in a decentralized run,
  and does nothing more in a centralized run, whose root applied it;
- a servo frame applies its child's whole plan in a setpoint run; in a
  sample run it only resyncs, except that each period's later frame
  records the period's centralized sample.
A Start that reaches a node whose gait is armed is a no-op: the gait keeps
its period numbering. A Stop disarms, and a later Start arms afresh.

A run records one of two outputs, as emit_setpoints picks: a sample run
(the default) records the gait-error samples and no servo setpoints, a
setpoint run the servo setpoints and no samples. Both record the resync
marks. A setpoint run records its setpoints in groups (SetpointRecord):
each phase event a child fires in the phase window, or a centralized
servo frame applies, adds one (true_time_s, rows) group, its rows the
event's compiled rows as gait.setpoints_for_event returns them, one call
per group, so no setpoint object is built. Groups are appended in the
order the events fire.

Four handlers run windows: one heap entry that does the work of several,
under one rule. A window may run an entry that would pop next, and runs it
as the heap would: at an instant strictly before the heap head's time (an
entry already queued outranks one queued later at an equal time) and at
or before run_until's bound, the one bound Sim._window_last gives. A
window runs a delivery by setting the time to it and calling
Sim._handle_delivery, the one place a delivery resyncs its child and
records its last-resync time, mark and resync flag. The rule holds only
while nothing has been pushed since the window's entry popped:
- the decentralized schemes sample the gait error once per period, and a
  sampler entry emits every sample within the bound, then re-queues
  itself at the next sample (Sim._handle_samples); a sample only reads.
  When each child's grid steps whole ticks per period (an open-loop
  1.0 s period and a 100-slot ASN period do; a 68-slot one does not),
  the window is an arithmetic progression and is built in one batch;
- a centralized root period's entry sends the period's two servo frames,
  whose delivery times Sim._delivery fixes, and when both land within the bound
  and no later than the next root period's start, runs both deliveries
  in delivery order (m1 first on a tie); a servo frame's action
  (_apply_plan, _record_sample) pushes nothing, so the entry
  goes on to the next root period while that one starts within the bound
  (Sim._handle_root_period). A period whose later frame lands past either
  falls back to the heap: both deliveries are queued, then the next
  period, as one entry per period would queue them;
- a keep-alive due entry sends its frame and runs the delivery when it
  lands within the bound, else queues it (Sim._handle_keepalive_due); the
  delivery's action pushes the child's next due, so that window is one
  exchange;
- a decentralized setpoint run's phases are one entry that walks both
  children's quarter grids, merged in (time, seq) order, and fires each
  phase within the bound, then re-queues itself under the next phase's own
  (time, seq) key (Sim._handle_phases). A child's last phase of period k
  fixes period k + 1's phases, as local ticks, each taking the seq its own
  entry would have taken; a phase only records and fixes later phases, so
  the window pushes nothing.
Equal-time events still run as one entry each would order them, and
run_until's count is of heap entries, so a window counts once. Either
sampler's error is one formula: the gap between two instants over D (two
period starts, or two deliveries), times 10**6 / D as one int / int
division. A progression window steps that gap's numerator by one fixed
int per sample, so it divides the same ints the per-sample formula does.

A sample is a row (true_time_s, period_index, error_us, resync). Its time
and error are the floats nearest their exact rationals, as int / int
division gives them, unrounded: only the CSV writer and the --plot text
round them, for display. Its resync flag is 1 exactly when the loop
appended a resync mark after the previous sample (for the first sample:
since the run began). The loop knows this as it records the sample, so no
consumer has to place marks against sample times.

The gait's phases and angles are fixed, so each child's plan (the gait
events it fires, one per phase, in phase order) depends on no run setting:
the two plans are compiled once, when the module loads (_PLANS). Each
event names its controller and phase, so no handler carries either.

Simulation time is one integer t over a per-sim denominator D: the instant
t / D seconds. Sim's constructor fixes D as the lcm of the three clocks'
rate numerators (tick k of a clock falls at k * rate_den / rate_num), twice
the denominator of the scheme's gait period, its period on the scheme's
time reference (samples sit mid-period), and the keep-alive period's
denominator, so every time the loop queues is an exact int. Heap keys, the
run bound, last resyncs, tick units and the keep-alive and gait periods
are such ints. A command or run-end time whose denominator d does not
divide D rescales the sim, as one multiply: D becomes D' = lcm(D, d), and
every stored int over D is multiplied by f = D' / D, exactly, as its own
divisor divides D; nothing is recomputed, and a positive factor keeps
their order. A frame's arrival (sent
time, retransmit slots and the latency draw) stays an exact integer pair
until tsch.first_boundary_tick finds the receiver's first slot boundary at
or after it; only that boundary's time is kept. Sim._delivery, the one
frame formula, fixes it and queues nothing: each sender queues the
delivery, or runs it in a window. Each call is one frame and takes the
next message index for its draws.

A Message is a Command frame (its body the Verb) as Sim.send takes it, or
any frame a caller sends by hand; the two windows' frames are no Message,
and do not pass Sim.send. A Message carries its sent and delivered times as exact
(num, den) int pairs, and the command sender passes the pair (t, D); send
is one call to _delivery. Floats come from int true division, which
rounds the same rational as float(Fraction). A Fraction is built only when
a caller reads one: Sim.now, and a Message's delivered_true_s, a view
built from its pair.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from operator import truediv
from typing import Callable, List, Optional, Tuple

from . import gait as gaitmod
from .clock import Value, as_ratio, check_finite, make_clock
from .gait import (
    Controller,
    GaitConfig,
    Row,
    TimeRef,
    build_schedule,
    events_for_controller,
)
from .tsch import SLOT_LENGTH_S, MoteState, first_boundary_tick, make_mote, resync_to_parent

_SLOT_NUM, _SLOT_DEN = as_ratio(SLOT_LENGTH_S)  # 3 / 200 s
_unpack_u64 = struct.Struct(">Q").unpack_from  # a digest's first 8 bytes, big-endian

# each child's plan by node id, its events in phase order: m1 drives the
# hips (M1), m2 the knees (M2)
_PLANS = {node_id: tuple(events_for_controller(build_schedule(), controller))
          for node_id, controller in (("m1", Controller.M1), ("m2", Controller.M2))}


def _draw(prefix, index: int) -> float:
    """Counter-based uniform draw in [0, 1); pure in (seed, stream, index).

    SHA-256 of f"{seed}:{stream}:{index}", prefix being the hash state after
    f"{seed}:{stream}:": SHA-256 hashes a stream of bytes, so that state
    copied and updated with the index's decimal digits gives the whole
    string's digest. The draw is the digest's first 8 bytes, big-endian,
    over 2**64."""
    h = prefix.copy()
    h.update(b"%d" % index)
    return _unpack_u64(h.digest())[0] / 2**64


class Verb(Enum):
    START = "start"
    STOP = "stop"


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


class Message:
    """A Command frame from the root to one of its children, or any frame
    a caller sends by hand; every frame flows root to child.

    sent and delivered hold the times as exact (num, den) pairs, unreduced;
    sent may be given as any time value, and delivered is None until
    Sim.send fixes it. A message is mutable. The windows' frames are no
    Message: each is the two ints Sim._delivery takes and returns.
    """

    __slots__ = ("dst", "sent", "body", "delivered")

    def __init__(self, dst: MoteState, sent, body: object = None) -> None:
        self.dst = dst
        self.sent = sent if type(sent) is tuple else as_ratio(sent)
        self.body = body
        self.delivered: Optional[Tuple[int, int]] = None

    @property
    def delivered_true_s(self) -> Optional[Fraction]:
        """The delivery time in seconds, exactly, once scheduled."""
        return None if self.delivered is None else Fraction(*self.delivered)


class LinkModel(Value):
    """Every frame's latency draw and drop probability."""

    _fields = ("base_latency_s", "jitter_bound_s", "drop_probability")

    def __init__(self, base_latency_s: float = 0.0, jitter_bound_s: float = 0.015,
                 drop_probability: float = 0.0) -> None:
        check_finite(base_latency_s=base_latency_s, jitter_bound_s=jitter_bound_s,
                     drop_probability=drop_probability)
        if base_latency_s < 0 or jitter_bound_s < 0:
            raise ValueError("latencies must be non-negative")
        try:  # the longest latency Sim._delivery can draw, in the float sum it computes
            longest = float(base_latency_s) + float(jitter_bound_s)
        except OverflowError:
            longest = math.inf
        if longest == math.inf:
            raise ValueError(f"base_latency_s + jitter_bound_s must be finite, "
                             f"got {base_latency_s!r} + {jitter_bound_s!r}")
        if not (0 <= drop_probability < 1):
            raise ValueError("drop_probability must lie in [0, 1)")
        self.__dict__.update(base_latency_s=base_latency_s, jitter_bound_s=jitter_bound_s,
                             drop_probability=drop_probability)


class SchemeParams(Value):
    """The one run configuration of the root, M1 (hips) and M2 (knees) network."""

    _fields = ("ppm_m1", "ppm_m2", "ppm_root", "duration_s", "resync_period_s", "seed",
               "gait", "link")

    def __init__(self, ppm_m1: float = -3.0, ppm_m2: float = 0.0, ppm_root: float = 0.0,
                 duration_s: float = 400.0, resync_period_s: float = 30.0, seed: int = 1,
                 gait: GaitConfig = GaitConfig(), link: LinkModel = LinkModel()) -> None:
        if type(seed) is not int:
            raise ValueError("seed must be an int")
        check_finite(ppm_m1=ppm_m1, ppm_m2=ppm_m2, ppm_root=ppm_root,
                     resync_period_s=resync_period_s, duration_s=duration_s)
        if resync_period_s <= 0:
            raise ValueError("resync_period_s must be positive")
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        self.__dict__.update(ppm_m1=ppm_m1, ppm_m2=ppm_m2, ppm_root=ppm_root,
                             duration_s=duration_s, resync_period_s=resync_period_s,
                             seed=seed, gait=gait, link=link)


class SetpointRecord:
    """A setpoint run's servo commands, as the run emits them: in groups,
    one (true_time_s, rows) pair per phase event fired or applied, where
    rows are the event's compiled (controller, servo_id, angle_deg) rows
    (gait.setpoints_for_event). Its len() counts setpoints, not groups."""

    __slots__ = ("groups",)

    def __init__(self) -> None:
        self.groups: List[Tuple[float, Tuple[Row, ...]]] = []

    def __len__(self) -> int:
        return sum(len(rows) for _, rows in self.groups)


class Sim:
    """A single deterministic simulation; mutate only through its event loop.

    With emit_setpoints it records servo_setpoints (a SetpointRecord) and
    leaves samples empty; without, it records samples and leaves
    servo_setpoints empty. Either way it records resync_marks.
    """

    def __init__(self, scheme: SchemeId, params: SchemeParams,
                 emit_setpoints: bool = False):
        self.scheme = scheme
        self.params = params
        self.emit_setpoints = emit_setpoints
        # Free-running control deliberately leaves child timebases alone.
        self.resync_enabled = scheme is not SchemeId.S1_OPEN_LOOP

        self.root = make_mote("root", make_clock(params.ppm_root))
        self.children: List[MoteState] = [
            make_mote(node_id, make_clock(ppm), parent_id="root")
            for node_id, ppm in (("m1", params.ppm_m1), ("m2", params.ppm_m2))
        ]

        self.samples: List[Tuple[float, int, float, int]] = []
        self.resync_marks: List[float] = []
        # 1 from a resync mark until the next sample is recorded, which
        # takes it as its resync flag
        self._resynced = 0
        self.servo_setpoints = SetpointRecord()

        # (time, seq, handler, args): run_until calls handler(self, *args); seq
        # breaks time ties in insertion order, so handlers are never compared
        self._heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._msg_index = 0
        # each draw stream's hash state after its f"{seed}:{stream}:" prefix;
        # a draw hashes its index on from a copy (see _draw)
        self._drop_prefix, self._lat_prefix = (
            hashlib.sha256(f"{params.seed}:{stream}:".encode()) for stream in ("drop", "lat"))
        link = params.link
        # (drop probability, base latency, jitter bound), unpacked once per frame
        self._link = (link.drop_probability, link.base_latency_s, link.jitter_bound_s)
        self._gen = 0  # bumped on every arm and disarm; older-gen timed events are stale

        # (num, den) seconds of one gait period on the scheme's time reference,
        # and of the keep-alive period
        p_num, p_den = as_ratio(params.gait.period_on(GAIT_TIME_REF[scheme]))
        ka_num, ka_den = as_ratio(params.resync_period_s)
        nodes = (self.root, *self.children)
        # the time now is _t / _D; _rescale multiplies every int stored over
        # _D (the heap keys and each one below) by one factor
        D = self._D = math.lcm(*(node.clock.rate_num for node in nodes), 2 * p_den, ka_den)
        self._t = 0
        self._t_end = 0  # run_until's bound; no window passes it
        # each child's last resync: its keep-alive falls due one period later
        self._last_resync = {c: 0 for c in self.children}
        # D * (seconds per tick), per node: tick k falls at k * unit over D
        self._tick_unit = {node: node.clock.rate_den * (D // node.clock.rate_num)
                           for node in nodes}
        self._keepalive = ka_num * (D // ka_den)
        # one gait period; even, as 2 * p_den divides D, so the half-period
        # offset of a sample is an int too
        self._period = p_num * (D // p_den)

        if self.resync_enabled:
            for child in self.children:
                self._push(self._keepalive, Sim._handle_keepalive_due, (child,))

    @property
    def now(self) -> Fraction:
        """The current simulation time in seconds, exactly."""
        return Fraction(self._t, self._D)

    # -- time and queue plumbing ---------------------------------------------

    def _rescale(self, den: int) -> None:
        """Make den divide D: D becomes D' = lcm(D, den), and every stored
        int over D is multiplied by f = D' / D. That is exact, as each one's
        own divisor divides D, and a positive factor keeps their order."""
        D = math.lcm(self._D, den)
        f = D // self._D
        self._D = D
        self._t *= f
        self._t_end *= f
        self._heap[:] = [(t * f, *rest) for t, *rest in self._heap]
        for ints in (self._last_resync, self._tick_unit):
            for node in ints:
                ints[node] *= f
        self._keepalive *= f
        self._period *= f

    def _time_int(self, t) -> int:
        """Any time value as an int over D, rescaling first if it needs to."""
        num, den = as_ratio(t)
        if self._D % den:
            self._rescale(den)
        return num * (self._D // den)

    def _window_last(self) -> int:
        """The last instant a window may run an entry at, as an int over D:
        strictly before the heap head's time, as an entry already queued
        outranks one queued later at an equal time, and at or before
        run_until's bound."""
        heap, end = self._heap, self._t_end
        return min(end, heap[0][0] - 1) if heap else end

    def _push(self, t: int, handler: Callable[..., None], args: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, handler, args))

    # -- public operations -------------------------------------------------

    def _delivery(self, dst: MoteState, s_num: int, s_den: int) -> int:
        """The one frame formula: a frame sent to dst at s_num / s_den
        seconds is delivered at the receiver's first slot boundary at or
        after the sampled link latency, and each drop retransmits it one
        slot later. Returns that time as an int over D. Each call is one
        frame, and takes the next message index for its draws; it queues
        nothing, as the sender queues the delivery or runs it in a window."""
        index = self._msg_index
        self._msg_index = index + 1
        attempt = 0
        drop_probability, base_latency_s, jitter_bound_s = self._link
        if drop_probability > 0:
            while _draw(self._drop_prefix, index * 97 + attempt) < drop_probability:
                attempt += 1
        # the latency is a float (the draw is one), so as_integer_ratio is exact
        lat_num, lat_den = (base_latency_s + jitter_bound_s
                            * _draw(self._lat_prefix, index)).as_integer_ratio()
        # arrival = sent + latency + attempt slots, as one exact pair
        arr_num = s_num * lat_den + lat_num * s_den
        arr_den = s_den * lat_den
        if attempt:
            arr_num = arr_num * _SLOT_DEN + attempt * _SLOT_NUM * arr_den
            arr_den *= _SLOT_DEN
        return first_boundary_tick(dst, (arr_num, arr_den)) * self._tick_unit[dst]

    def send(self, msg: Message) -> None:
        """Fix msg.delivered by _delivery; it queues nothing."""
        msg.delivered = (self._delivery(msg.dst, *msg.sent), self._D)

    def inject_command(self, verb: Verb, t_true) -> None:
        t = self._time_int(t_true)
        if t < self._t:
            raise ValueError(f"cannot inject command in the past "
                             f"({t / self._D} < {self._t / self._D})")
        self._push(t, Sim._handle_injection, (verb,))

    def run_until(self, t_end) -> int:
        """Process every queued event with time <= t_end; returns the count.

        The count is of heap entries: a window (see the module docstring)
        counts once, whatever it runs.
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
        # the centralized root applies the command itself; its frames only resync
        action = None if self.scheme is SchemeId.S0_CENTRALIZED else Sim._apply_command
        for child in self.children:
            msg = Message(child, (self._t, self._D), verb)
            self.send(msg)
            self._push(msg.delivered[0], Sim._handle_delivery, (child, action, verb))
        if action is None:
            self._apply_command(self.root, verb)

    def _handle_delivery(self, child: MoteState, action: Optional[Callable[..., None]],
                         body: object) -> None:
        """Deliver a frame to child now: resync it, then call
        action(sim, child, body), a Sim method the sender picked, or nothing
        more when action is None."""
        if self.resync_enabled:
            resync_to_parent(child, self.root, (self._t, self._D))
            self._last_resync[child] = self._t
            self.resync_marks.append(self._t / self._D)
            self._resynced = 1
        if action is not None:
            action(self, child, body)

    def _handle_keepalive_due(self, child: MoteState) -> None:
        """Send the child's keep-alive, unless an exchange since resynced it;
        a window of one exchange (see the module docstring).

        A delivery within _window_last is run here, as its entry would pop
        next; otherwise it is queued. Either way its action queues the
        child's next due, so the window ends with the delivery.
        """
        due = self._last_resync[child] + self._keepalive
        if due > self._t:
            # an intervening exchange already resynced this child
            self._push(due, Sim._handle_keepalive_due, (child,))
            return
        arrives = self._delivery(child, self._t, self._D)
        args = (child, Sim._requeue_keepalive, None)
        if arrives <= self._window_last():
            self._t = arrives
            self._handle_delivery(*args)
        else:
            self._push(arrives, Sim._handle_delivery, args)

    def _requeue_keepalive(self, child: MoteState, _body: None) -> None:
        """A keep-alive's delivery action: the child is due one period on."""
        self._push(self._t + self._keepalive, Sim._handle_keepalive_due, (child,))

    # -- gait control ------------------------------------------------------

    def _apply_command(self, node: MoteState, verb: Verb) -> None:
        """Apply a command on a node that times the gait: the root in
        centralized runs, each child otherwise."""
        if verb is Verb.START:
            if node.gait is not None:
                return  # a Start while armed is a no-op
            now = (self._t, self._D)
            if GAIT_TIME_REF[self.scheme] is TimeRef.ASN:
                gaitmod.arm_asn_ref(node, self.params.gait, now)
            else:
                gaitmod.arm_free_running(node, self.params.gait, now)
            self._gen += 1
            if node is self.root:
                self._push(gaitmod.event_tick(node, 0, 0) * self._tick_unit[node],
                           Sim._handle_root_period, (self._gen, 0))
            elif all(c.gait is not None for c in self.children):
                self._harmonize_origins()
                if self.emit_setpoints:
                    self._start_phases()
                else:
                    self._start_sampler()
        else:  # Stop
            node.gait = None
            self._gen += 1

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
        # each child's grid steps 4 quarters per sample; b and d of its
        # (c, a, b, d) form stay fixed while it is armed (a resync moves c
        # and a), so whole ticks now are whole ticks in every window
        steps = [divmod(4 * b, d) for _, _, b, d in map(gaitmod.event_tick_form, self.children)]
        ticks = None if any(rest for _, rest in steps) else tuple(whole for whole, _ in steps)
        self._push((2 * origin + 1) * self._period // 2, Sim._handle_samples,
                   (self._gen, 0, ticks))

    def _handle_samples(self, gen: int, k: int, ticks: Optional[Tuple[int, int]]) -> None:
        """Emit sample k, then k + 1, ... while each sample's time is within
        _window_last; then re-queue at the next sample.

        Sample k's error is the gap between the children's period-k starts,
        quarter 4 * k of each child's grid times its tick unit, as instants
        over D, subtracted as the centralized sampler subtracts its
        two deliveries. Each child's event_tick_form is taken once per
        window, whatever its size, and the gap rounds the same rational as
        gait.gait_sync_error.

        A window is an arithmetic progression when each child's grid steps a
        whole number of ticks per sample: when 4 * b is a multiple of d in
        its (c, a, b, d) form. _start_sampler finds this once per arm, and
        ticks carries each child's ticks per sample, or None. Then each
        child's period start moves by that many ticks per sample, the gap's
        numerator by a fixed step, and the window's samples are built in one
        batch from ranges, with no per-sample arithmetic. Otherwise each
        sample is computed on its own. Either way the same ints are divided,
        so the floats are the same.

        A sample only reads state and nothing else runs inside a window, so
        each sample reads what its own heap entry would have read. The strict
        bound keeps equal-time order: an event already queued outranks, at
        an equal time, the entry a later sample would have had, and an event
        queued after this window is outranked by the re-queued entry, as it
        would have been.
        """
        if gen != self._gen:
            return
        t, D, period = self._t, self._D, self._period
        n = 1 + max(0, (self._window_last() - t) // period)
        m1, m2 = self.children
        c1, a1, b1, d1 = gaitmod.event_tick_form(m1)
        c2, a2, b2, d2 = gaitmod.event_tick_form(m2)
        # each child's tick unit scaled to us: an error is one int / int
        u1, u2 = self._tick_unit[m1] * 10**6, self._tick_unit[m2] * 10**6
        # nothing runs inside a window, so only its first sample can follow a mark
        resync, self._resynced = self._resynced, 0
        if ticks is None:
            append = self.samples.append
            for k in range(k, k + n):
                q = 4 * k
                err = ((c2 + (a2 + b2 * q) // d2) * u2 - (c1 + (a1 + b1 * q) // d1) * u1) / D
                append((t / D, k, err, resync))
                resync = 0
                t += period
            k += 1
        else:
            ticks1, ticks2 = ticks
            q = 4 * k
            num = (c2 + (a2 + b2 * q) // d2) * u2 - (c1 + (a1 + b1 * q) // d1) * u1
            num_step = ticks2 * u2 - ticks1 * u1
            errs = (map(truediv, range(num, num + n * num_step, num_step), repeat(D))
                    if num_step else repeat(num / D))
            t_next, k_next = t + n * period, k + n
            self.samples.extend(zip(map(truediv, range(t, t_next, period), repeat(D)),
                                    range(k, k_next), errs,
                                    chain((resync,), repeat(0))))
            t, k = t_next, k_next
        self._push(t, Sim._handle_samples, (gen, k, ticks))

    def _start_phases(self) -> None:
        """Queue the phase window with both children's period-0 phases,
        each child's from one event_tick_form, m1's first."""
        pending = tuple(self._period_phases(c, 0, gaitmod.event_tick_form(c))
                        for c in self.children)
        # the window's key: its earliest phase's (time over D, seq)
        t, seq = min((phases[0][0] * self._tick_unit[c], phases[0][1])
                     for c, phases in zip(self.children, pending))
        heapq.heappush(self._heap, (t, seq, Sim._handle_phases, (self._gen, pending)))

    def _period_phases(self, child: MoteState, k: int,
                       form: Tuple[int, int, int, int]) -> List[tuple]:
        """The child's period-k phases as the phase window carries them, in
        firing order: (local tick, seq, k, event) each. Phase q of period k
        is quarter 4 * k + q of the form's grid, and each phase consumes one
        seq, as a heap entry of its own would."""
        c, a, b, d = form
        seq = self._seq
        self._seq = seq + 2
        first, last = _PLANS[child.node_id]
        return [(c + (a + b * (4 * k + first.phase_index)) // d, seq + 1, k, first),
                (c + (a + b * (4 * k + last.phase_index)) // d, seq + 2, k, last)]

    def _handle_phases(self, gen: int, pending: Tuple[list, list]) -> None:
        """Fire the earliest pending phase, then the next ones in (time, seq)
        order while each one's time is within _window_last; then re-queue
        under the next phase's own (time, seq) key. A window of phases (see
        the module docstring).

        pending holds each child's pending phases (_period_phases), as
        local ticks: a resync moves no phase already fixed, and a rescale
        of D reaches none of them. When a child's last phase of period k
        fires, its period k + 1 is fixed from its event_tick_form then, as
        one entry per phase would have queued it; nothing else runs inside
        a window, so each child's form is taken at most once per window.
        Re-queued under its next phase's key, the window ties with any
        other entry exactly as that phase's own entry would.
        """
        if gen != self._gen:
            return
        end = self._window_last()
        D = self._D
        children = self.children
        units = [self._tick_unit[c] for c in children]
        forms: List[Optional[Tuple[int, int, int, int]]] = [None, None]
        append = self.servo_setpoints.groups.append
        # each child's next phase as its (time over D, seq) heap key
        heads = [(phases[0][0] * unit, phases[0][1]) for phases, unit in zip(pending, units)]
        bound = self._t  # the first phase is this entry's own
        while True:
            i = 1 if heads[1] < heads[0] else 0
            t, seq = heads[i]
            if t > bound:
                break
            self._t = t
            phases = pending[i]
            _, _, k, event = phases.pop(0)
            append((t / D, gaitmod.setpoints_for_event(event)))
            if not phases:  # the child's last phase of period k
                if forms[i] is None:
                    forms[i] = gaitmod.event_tick_form(children[i])
                phases += self._period_phases(children[i], k + 1, forms[i])
            tick, next_seq, _, _ = phases[0]
            heads[i] = (tick * units[i], next_seq)
            bound = end
        heapq.heappush(self._heap, (t, seq, Sim._handle_phases, (gen, pending)))

    # -- centralized (root-timed) control ----------------------------------

    def _handle_root_period(self, gen: int, k: int) -> None:
        """Send period k's two servo frames, each with no body, as its child
        applies its whole plan; a window of periods (see the module
        docstring).

        A window period runs both deliveries through _handle_delivery, in
        delivery order, m1 first on a tie, as its entry would be pushed
        first. A delivery exactly at the next period's start is run too, as
        its entry would outrank that period's. A servo frame's action
        pushes nothing, so the heap head stays fixed for the whole window.
        The root's grid never moves, so its event_tick_form is taken once
        per window.
        """
        if gen != self._gen:
            return
        t, D = self._t, self._D
        root, (child1, child2) = self.root, self.children
        sampling = not self.emit_setpoints
        action = None if sampling else Sim._apply_plan
        delivery, deliver = self._delivery, self._handle_delivery
        last = self._window_last()
        c, a, b, den = gaitmod.event_tick_form(root)
        unit = self._tick_unit[root]
        while True:
            t_next = (c + (a + b * 4 * (k + 1)) // den) * unit
            d1 = delivery(child1, t, D)
            d2 = delivery(child2, t, D)
            # each delivery's time and _handle_delivery args, in delivery order
            if d1 <= d2:
                early, first, late, later = d1, child1, d2, child2
            else:
                early, first, late, later = d2, child2, d1, child1
            first_args, later_args = (first, action, None), (later, action, None)
            if sampling:
                # the gap between the two deliveries, over one D, recorded
                # by the later frame (m2 on a tie, as it is delivered second)
                later_args = (later, Sim._record_sample, (late / D, k, (d2 - d1) * 10**6 / D))
            if late > last or late > t_next:
                self._push(early, Sim._handle_delivery, first_args)
                self._push(late, Sim._handle_delivery, later_args)
                break
            self._t = early
            deliver(*first_args)
            self._t = late
            deliver(*later_args)
            if t_next > last:
                break
            k += 1
            t = t_next
        self._push(t_next, Sim._handle_root_period, (gen, k + 1))

    def _apply_plan(self, child: MoteState, _body: None) -> None:
        """A setpoint run's servo frame action: the child's whole plan at one
        instant, one group per event in phase order. Hip 0 gets +30 and then
        -30, an order servo_trace's stable sort keeps."""
        now_s = self._t / self._D
        append = self.servo_setpoints.groups.append
        for event in _PLANS[child.node_id]:
            append((now_s, gaitmod.setpoints_for_event(event)))

    def _record_sample(self, _child: MoteState, sample: Tuple[float, int, float]) -> None:
        """A sample run's action on each period's later servo frame."""
        self.samples.append((*sample, self._resynced))
        self._resynced = 0


def make_sim(scheme: SchemeId, params: SchemeParams,
             emit_setpoints: bool = False) -> Sim:
    """Build a simulation at t = 0 with no command queued, so its gait never
    starts until one is injected (experiment.build_sim queues the Start,
    and experiment.run_sim any Stop, then runs it).
    It records servo setpoints if emit_setpoints, else gait-error samples
    (see Sim). Identical (scheme, params) replay identically."""
    return Sim(scheme, params, emit_setpoints)
