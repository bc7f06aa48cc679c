"""An exact, slow twin of hexsync's simulator, written from the definitions.

Every time is a Fraction of a true second, and each conversion is its
rational definition evaluated with Fraction operators: a tick is
floor(rate * t), slot asn begins at the floor of its continuous local
tick, a frame lands on the receiver's first slot boundary at or after its
arrival, and a gait event fires at its period's fraction on its node's
time reference. The references take any node with a clock.ppm_error, an
asn_origin, an origin_local_ticks and, once armed, a gait with config, ref
and arm_period_index, so they read hexsync's nodes as well as the twin's.

RefSim runs the three schemes with one queue entry per event, ordered by
(time, insertion order): no windows, no integer time and no compiled
forms. It shares with hexsync only the input value types, the enums and
the gait table, plus the counter-based SHA-256 draw, which is a
specification. Its run_until counts one entry per event. It records what
hexsync's Sim records, under the same names (samples with their resync
flags, resync marks, setpoint groups); every frame's (node id, sent,
delivered) in frames; and one log of its samples and marks in the order
it appended them.
"""

import functools
import hashlib
import heapq
import math
from fractions import Fraction
from types import SimpleNamespace

from hexsync.gait import GAIT_TABLE, Controller, TimeRef
from hexsync.simnet import SchemeId, Verb

NOMINAL_FREQ_HZ = 32768
SLOT_S = Fraction(15, 1000)
TICKS_PER_SLOT = SLOT_S * NOMINAL_FREQ_HZ
# the time reference each scheme's gait-timing node counts its periods on
TIME_REF = {SchemeId.S0_CENTRALIZED: TimeRef.FREE_RUNNING,
            SchemeId.S1_OPEN_LOOP: TimeRef.FREE_RUNNING,
            SchemeId.S2_SYNCHRONIZED: TimeRef.ASN}
# each child's phases, in phase order, with their (controller, servo_id, angle_deg) rows
PLANS = {node_id: [(phase, tuple((controller, servo, angle) for servo, angle in rows))
                   for phase, (controller, rows) in enumerate(GAIT_TABLE)
                   if controller is owner]
         for node_id, owner in (("m1", Controller.M1), ("m2", Controller.M2))}


# -- clock -------------------------------------------------------------------

def ref_rate(clock):
    return rate_at_ppm(clock.ppm_error)


@functools.lru_cache(maxsize=64)
def rate_at_ppm(ppm):
    """Ticks per true second of a crystal ppm parts per million fast."""
    return NOMINAL_FREQ_HZ * (1 + Fraction(ppm) / 10**6)


def ref_ticks_at(clock, t):
    if t < 0:
        raise ValueError(f"t {t} precedes the clock's epoch")
    return math.floor(ref_rate(clock) * Fraction(t))


def ref_true_time_of_tick(clock, k):
    return Fraction(k) / ref_rate(clock)


def ref_true_time_of_local(clock, local_s):
    return ref_true_time_of_tick(clock, math.ceil(local_s * NOMINAL_FREQ_HZ))


# -- slots ---------------------------------------------------------------------

def ref_slot_boundary_tick(node, asn):
    return math.floor(node.origin_local_ticks + (asn - node.asn_origin) * TICKS_PER_SLOT)


def ref_slot_boundary_true_time(node, asn):
    return ref_true_time_of_tick(node.clock, ref_slot_boundary_tick(node, asn))


def ref_asn_at(node, t):
    elapsed_ticks = ref_ticks_at(node.clock, t) + 1 - node.origin_local_ticks
    return node.asn_origin + math.ceil(elapsed_ticks / TICKS_PER_SLOT) - 1


def ref_first_boundary_slot(node, t):
    """The smallest slot whose boundary is at or after t, found by search."""
    asn = ref_asn_at(node, t)  # a start; the two loops settle the slot
    while ref_slot_boundary_true_time(node, asn) < t:
        asn += 1
    while ref_slot_boundary_true_time(node, asn - 1) >= t:
        asn -= 1
    return asn


def ref_resync(child, parent, t):
    """The (asn_origin, origin_local_ticks) a resync at t gives the child:
    the parent's next slot, begun at the child's tick count at the
    parent's boundary for it."""
    asn = ref_asn_at(parent, t) + 1
    return asn, ref_ticks_at(child.clock, ref_slot_boundary_true_time(parent, asn))


def ref_pairwise_sync_error(a, b, asn):
    """Signed true-time difference (us) between two nodes' boundaries for
    slot asn: a's minus b's."""
    return float((ref_slot_boundary_true_time(a, asn) - ref_slot_boundary_true_time(b, asn))
                 * 10**6)


# -- gait ----------------------------------------------------------------------

def ref_whole_periods_at(node, ref, config, t):
    if ref is TimeRef.FREE_RUNNING:
        local = Fraction(ref_ticks_at(node.clock, t), NOMINAL_FREQ_HZ)
        return math.floor(local / Fraction(config.period_s))
    return ref_asn_at(node, t) // config.period_slots


def ref_event_periods(node, k, phase_index):
    """Periods counted on the node's reference when phase phase_index (a
    quarter period each) of period k fires."""
    return node.gait.arm_period_index + k + Fraction(phase_index, 4)


def ref_gait_event_true_time(node, k, phase_index):
    arm = node.gait
    cfg = arm.config
    periods = ref_event_periods(node, k, phase_index)
    if arm.ref is TimeRef.FREE_RUNNING:
        return ref_true_time_of_local(node.clock, periods * Fraction(cfg.period_s))
    slot = periods * cfg.period_slots
    assert slot.denominator == 1  # a multiple of 4 slots puts every phase on a slot
    return ref_slot_boundary_true_time(node, int(slot))


def ref_event_tick(node, k, phase_index):
    """The local tick of a period-k event, straight from its definition."""
    arm = node.gait
    cfg = arm.config
    periods = ref_event_periods(node, k, phase_index)
    if arm.ref is TimeRef.FREE_RUNNING:
        return math.ceil(periods * Fraction(cfg.period_s) * NOMINAL_FREQ_HZ)
    slot = periods * cfg.period_slots
    return math.floor(node.origin_local_ticks + (slot - node.asn_origin) * TICKS_PER_SLOT)


def ref_gait_sync_error(m1, m2, k):
    return float((ref_gait_event_true_time(m2, k, 0)
                  - ref_gait_event_true_time(m1, k, 0)) * 10**6)


# -- link ------------------------------------------------------------------------

def ref_uniform(seed, stream, index):
    digest = hashlib.sha256(f"{seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def ref_attempts(link, seed, index):
    attempt = 0
    while (link.drop_probability > 0
           and ref_uniform(seed, "drop", index * 97 + attempt) < link.drop_probability):
        attempt += 1
    return attempt


def ref_delivery(dst, sent, link, seed, index):
    """The first slot boundary at or after sent + retransmits + latency."""
    latency = link.base_latency_s + link.jitter_bound_s * ref_uniform(seed, "lat", index)
    arrival = Fraction(sent) + ref_attempts(link, seed, index) * SLOT_S + Fraction(latency)
    a = ref_asn_at(dst, arrival)
    boundary = ref_slot_boundary_true_time(dst, a)
    return boundary if boundary == arrival else ref_slot_boundary_true_time(dst, a + 1)


# -- the twin ----------------------------------------------------------------------

def new_node(node_id, ppm):
    """A node whose slot 0 begins at tick 0, its gait not armed."""
    return SimpleNamespace(node_id=node_id, clock=SimpleNamespace(ppm_error=Fraction(ppm)),
                           asn_origin=0, origin_local_ticks=0, gait=None)


class RefSim:
    """The root, M1 and M2 under one scheme, one queue entry per event."""

    def __init__(self, scheme, params, emit_setpoints=False):
        self.scheme, self.params, self.emit_setpoints = scheme, params, emit_setpoints
        self.root = new_node("root", params.ppm_root)
        self.children = [new_node("m1", params.ppm_m1), new_node("m2", params.ppm_m2)]
        self.ref = TIME_REF[scheme]
        gait = params.gait
        self.period = (Fraction(gait.period_s) if self.ref is TimeRef.FREE_RUNNING
                       else gait.period_slots * SLOT_S)
        self.keepalive = Fraction(params.resync_period_s)
        self.now = Fraction(0)
        self.queue, self.seq, self.gen, self.n_sent, self.marked = [], 0, 0, 0, 0
        self.samples, self.resync_marks, self.frames, self.log = [], [], [], []
        self.servo_setpoints = SimpleNamespace(groups=[])
        self.last_resync = {c.node_id: Fraction(0) for c in self.children}
        if scheme is not SchemeId.S1_OPEN_LOOP:  # open loop never resyncs
            for child in self.children:
                self.push(self.keepalive, self.keepalive_due, child)

    def push(self, t, handler, *args):
        self.seq += 1
        heapq.heappush(self.queue, (t, self.seq, handler, args))

    def inject_command(self, verb, t):
        self.push(Fraction(t), self.command, verb)

    def run_until(self, t_end):
        """Run every entry due at or before t_end; the count of entries."""
        t_end, count = Fraction(t_end), 0
        while self.queue and self.queue[0][0] <= t_end:
            self.now, _, handler, args = heapq.heappop(self.queue)
            handler(*args)
            count += 1
        self.now = t_end
        return count

    def send(self, dst, action, body=None):
        """Send a frame from the root now and queue its delivery; the frame
        is [action, body], which the sender may still change."""
        index, self.n_sent = self.n_sent, self.n_sent + 1
        p = self.params
        delivered = ref_delivery(dst, self.now, p.link, p.seed, index)
        self.frames.append((dst.node_id, self.now, delivered))
        frame = [action, body]
        self.push(delivered, self.deliver, dst, frame)
        return delivered, frame

    def deliver(self, dst, frame):
        if self.scheme is not SchemeId.S1_OPEN_LOOP:
            dst.asn_origin, dst.origin_local_ticks = ref_resync(dst, self.root, self.now)
            self.last_resync[dst.node_id] = self.now
            self.resync_marks.append(float(self.now))
            self.log.append(("mark", float(self.now)))
            self.marked = 1
        action, body = frame
        if action is not None:
            action(dst, body)

    def record_sample(self, _dst, row):
        row = (*row, self.marked)
        self.marked = 0
        self.samples.append(row)
        self.log.append(("sample", row))

    # -- keep-alives: each child hears from the root one period after its last resync

    def keepalive_due(self, child):
        due = self.last_resync[child.node_id] + self.keepalive
        if due > self.now:
            self.push(due, self.keepalive_due, child)
        else:
            self.send(child, self.requeue_keepalive)

    def requeue_keepalive(self, child, _body):
        self.push(self.now + self.keepalive, self.keepalive_due, child)

    # -- commands: the centralized root applies them, each child otherwise

    def command(self, verb):
        centralized = self.scheme is SchemeId.S0_CENTRALIZED
        for child in self.children:
            self.send(child, None if centralized else self.apply_command, verb)
        if centralized:
            self.apply_command(self.root, verb)

    def apply_command(self, node, verb):
        if verb is Verb.STOP:
            node.gait = None
            self.gen += 1
            return
        if node.gait is not None:
            return  # a Start while armed keeps the period numbering
        cfg = self.params.gait
        # period 0 is the next whole period on the node's reference
        node.gait = SimpleNamespace(config=cfg, ref=self.ref, arm_period_index=(
            ref_whole_periods_at(node, self.ref, cfg, self.now) + 1))
        self.gen += 1
        if node is self.root:
            self.push(ref_gait_event_true_time(node, 0, 0), self.root_period, self.gen, 0)
        elif all(c.gait is not None for c in self.children):
            # both children take the later of their period-0 origins
            common = max(c.gait.arm_period_index for c in self.children)
            for c in self.children:
                c.gait.arm_period_index = common
            if self.emit_setpoints:
                for c in self.children:
                    self.schedule_period(c, 0)
            else:
                self.push(self.sample_time(0), self.sample, self.gen, 0)

    # -- decentralized: the children time the gait

    def schedule_period(self, child, k):
        for phase, rows in PLANS[child.node_id]:
            self.push(ref_gait_event_true_time(child, k, phase), self.phase_event,
                      child, self.gen, k, phase, rows)

    def phase_event(self, child, gen, k, phase, rows):
        if gen == self.gen:
            self.servo_setpoints.groups.append((float(self.now), rows))
            if phase == PLANS[child.node_id][-1][0]:
                self.schedule_period(child, k + 1)

    def sample_time(self, k):
        """Sample k's true instant: k + 1/2 nominal gait periods past the
        children's common period 0."""
        return (self.children[0].gait.arm_period_index + k + Fraction(1, 2)) * self.period

    def sample(self, gen, k):
        if gen == self.gen:
            self.record_sample(None, (float(self.now), k, ref_gait_sync_error(*self.children, k)))
            self.push(self.sample_time(k + 1), self.sample, gen, k + 1)

    # -- centralized: the root times the gait and relays it

    def root_period(self, gen, k):
        if gen != self.gen:
            return
        action = self.apply_plan if self.emit_setpoints else None
        (d1, f1), (d2, f2) = [self.send(c, action) for c in self.children]
        if not self.emit_setpoints:
            # the gap between the two deliveries, recorded by the later (m2 on a tie)
            (f1 if d1 > d2 else f2)[:] = [self.record_sample,
                                          (float(max(d1, d2)), k, float((d2 - d1) * 10**6))]
        self.push(ref_gait_event_true_time(self.root, k + 1, 0), self.root_period, gen, k + 1)

    def apply_plan(self, child, _body):
        for _, rows in PLANS[child.node_id]:
            self.servo_setpoints.groups.append((float(self.now), rows))
