"""The integer time base equals the exact Fraction formulas it replaced.

Each reference below is the rational-arithmetic definition of a
conversion, evaluated with Fraction operators. The library computes the
same quantities as integer floor or ceil divisions over each clock's
integer rate pair; every result must be equal, not merely close.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexsync.clock import (
    NOMINAL_FREQ_HZ,
    DriftingClock,
    as_ratio,
    local_periods_at,
    local_seconds_at,
    make_clock,
    tick_gap_factors,
    tick_gap_us,
    ticks_at,
    true_time_of_tick,
)
from hexsync.gait import (
    GaitConfig,
    TimeRef,
    arm_asn_ref,
    arm_free_running,
    event_tick,
    event_tick_form,
    gait_event_true_time,
    gait_sync_error,
    sync_errors,
    whole_periods_at,
)
from hexsync.tsch import (
    TICKS_PER_SLOT,
    asn_at,
    first_boundary_tick,
    make_mote,
    pairwise_sync_error,
    resync_to_parent,
    slot_boundary_true_time,
)

LISTED_PPM = [-10, -5, -3.7, 0, 1.1, 10]
ppms = st.one_of(
    st.sampled_from(LISTED_PPM),
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False))
times = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)
# late enough that 40 slots before the resync origin still lie after t = 0
resync_times = st.floats(min_value=1, max_value=1e6, allow_nan=False, allow_infinity=False)
PHASES = GaitConfig().event_offsets


# -- Fraction references -----------------------------------------------------

def ref_rate(clock):
    return NOMINAL_FREQ_HZ * (1 + clock.ppm_error / 10**6)


def ref_ticks_at(clock, t):
    return math.floor(ref_rate(clock) * Fraction(t))


def ref_true_time_of_tick(clock, k):
    return Fraction(k) / ref_rate(clock)


def ref_true_time_of_local(clock, local_s):
    return ref_true_time_of_tick(clock, math.ceil(local_s * NOMINAL_FREQ_HZ))


def ref_slot_boundary_true_time(node, asn):
    target_ticks = node.origin_local_ticks + (asn - node.asn_origin) * TICKS_PER_SLOT
    return ref_true_time_of_tick(node.clock, math.floor(target_ticks))


def ref_asn_at(node, t):
    elapsed_ticks = ref_ticks_at(node.clock, t) + 1 - node.origin_local_ticks
    return node.asn_origin + math.ceil(elapsed_ticks / TICKS_PER_SLOT) - 1


def ref_whole_periods_at(node, ref, config, t):
    if ref is TimeRef.FREE_RUNNING:
        local = Fraction(ref_ticks_at(node.clock, t), NOMINAL_FREQ_HZ)
        return math.floor(local / Fraction(config.period_s))
    return ref_asn_at(node, t) // config.period_slots


def ref_gait_event_true_time(node, k, phase_offset):
    arm = node.gait
    cfg = arm.config
    if arm.ref is TimeRef.FREE_RUNNING:
        return ref_true_time_of_local(
            node.clock, (arm.arm_period_index + k + phase_offset) * Fraction(cfg.period_s))
    offset_slots = math.floor(phase_offset * cfg.period_slots)
    return ref_slot_boundary_true_time(
        node, (arm.arm_period_index + k) * cfg.period_slots + offset_slots)


def ref_event_tick(node, k, phase_offset):
    """The local tick of a period-k event, straight from its definition."""
    arm = node.gait
    cfg = arm.config
    if arm.ref is TimeRef.FREE_RUNNING:
        local_s = (arm.arm_period_index + k + phase_offset) * Fraction(cfg.period_s)
        return math.ceil(local_s * NOMINAL_FREQ_HZ)
    slot = ((arm.arm_period_index + k) * cfg.period_slots
            + math.floor(phase_offset * cfg.period_slots))
    return math.floor(node.origin_local_ticks + (slot - node.asn_origin) * TICKS_PER_SLOT)


def ref_gait_sync_error(m1, m2, k):
    return float((ref_gait_event_true_time(m2, k, 0)
                  - ref_gait_event_true_time(m1, k, 0)) * 10**6)


def resynced_mote(node_id, ppm, t_sync, root):
    node = make_mote(node_id, make_clock(ppm), parent_id=root.node_id)
    if t_sync is not None:
        resync_to_parent(node, root, t_sync)
    return node


# -- clock -------------------------------------------------------------------

@pytest.mark.parametrize("ppm", LISTED_PPM)
def test_rate_pair_is_the_reduced_exact_rate(ppm):
    c = make_clock(ppm)
    assert Fraction(c.rate_num, c.rate_den) == ref_rate(c)
    assert math.gcd(c.rate_num, c.rate_den) == 1 and c.rate_den > 0


@pytest.mark.parametrize("ppm", LISTED_PPM)
def test_rate_pair_is_derived_from_ppm_alone(ppm):
    # ppm_error is the clock's one constructor field; the pair follows from it
    c = DriftingClock(ppm)
    assert (c.rate_num, c.rate_den) == (make_clock(ppm).rate_num, make_clock(ppm).rate_den)
    assert c == make_clock(ppm) and repr(c) == f"DriftingClock(ppm_error={ppm!r})"
    with pytest.raises(TypeError):
        DriftingClock(ppm, c.rate_num, c.rate_den)


@given(ppm=ppms, t=times,
       period=st.sampled_from([Fraction(3, 2), Fraction(1, 3), 0.7, 1, 2.5]))
@settings(max_examples=200, deadline=None)
def test_local_periods_match_fraction_reference(ppm, t, period):
    c = make_clock(ppm)
    expected = math.floor(Fraction(ref_ticks_at(c, t), NOMINAL_FREQ_HZ) / Fraction(period))
    assert local_periods_at(c, t, period) == expected
    assert expected == math.floor(local_seconds_at(c, t) / Fraction(period))


@given(ppm=ppms, t=times)
@settings(max_examples=300, deadline=None)
def test_clock_conversions_match_fraction_reference(ppm, t):
    c = make_clock(ppm)
    k = ticks_at(c, t)  # t off the tick grid
    assert k == ref_ticks_at(c, t)
    on_grid = true_time_of_tick(c, k)
    assert type(on_grid) is Fraction and on_grid == ref_true_time_of_tick(c, k)
    assert ticks_at(c, on_grid) == ref_ticks_at(c, on_grid) == k
    if k > 0:
        just_before = on_grid - Fraction(1, 10**12)
        assert ticks_at(c, just_before) == ref_ticks_at(c, just_before) == k - 1


@given(a=ppms, b=ppms, ka=st.integers(0, 2**45), kb=st.integers(0, 2**45))
@settings(max_examples=200, deadline=None)
def test_tick_gap_rounds_like_the_fraction_difference(a, b, ka, kb):
    ca, cb = make_clock(a), make_clock(b)
    expected = float((ref_true_time_of_tick(cb, kb) - ref_true_time_of_tick(ca, ka)) * 10**6)
    assert tick_gap_us(ca, ka, cb, kb) == expected
    fa, fb, den = tick_gap_factors(ca, cb)
    assert (kb * fb - ka * fa) / den == expected


# -- tsch --------------------------------------------------------------------

@given(ppm=ppms, root_ppm=st.sampled_from(LISTED_PPM), t_sync=resync_times,
       slots=st.lists(st.integers(-40, 40), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_slot_conversions_match_reference_around_a_resync(ppm, root_ppm, t_sync, slots):
    root = make_mote("root", make_clock(root_ppm))
    node = make_mote("m", make_clock(ppm), parent_id="root")
    parent_asn = ref_asn_at(root, t_sync)
    residual = resync_to_parent(node, root, t_sync)
    parent_next = ref_slot_boundary_true_time(root, parent_asn + 1)
    assert node.asn_origin == parent_asn + 1
    assert residual == float(
        (parent_next - ref_slot_boundary_true_time(node, node.asn_origin)) * 10**6)
    # slots on both sides of the resync origin, ASNs from boundaries and off them
    for asn in (node.asn_origin + s for s in slots):
        boundary = slot_boundary_true_time(node, asn)
        assert boundary == ref_slot_boundary_true_time(node, asn)
        assert asn_at(node, boundary) == ref_asn_at(node, boundary) == asn
        before = boundary - Fraction(1, 10**9)
        assert asn_at(node, before) == ref_asn_at(node, before)
        assert pairwise_sync_error(node, root, asn) == float(
            (boundary - ref_slot_boundary_true_time(root, asn)) * 10**6)
    assert asn_at(node, t_sync) == ref_asn_at(node, t_sync)


def ref_first_boundary_slot(node, t):
    """The smallest slot whose boundary is at or after t, found by search."""
    asn = ref_asn_at(node, t)  # a start; the two loops settle the slot
    while ref_slot_boundary_true_time(node, asn) < t:
        asn += 1
    while ref_slot_boundary_true_time(node, asn - 1) >= t:
        asn -= 1
    return asn


@given(ppm=ppms, root_ppm=st.sampled_from(LISTED_PPM), t_sync=resync_times,
       resync=st.booleans(),
       slots=st.lists(st.integers(-40, 40), min_size=1, max_size=8),
       tick_shift=st.sampled_from([-1, 0, 1]),
       nudge=st.sampled_from([Fraction(0), Fraction(1, 10**12), -Fraction(1, 10**12)]))
@settings(max_examples=200, deadline=None)
def test_first_boundary_tick_matches_reference(ppm, root_ppm, t_sync, resync, slots,
                                               tick_shift, nudge):
    root = make_mote("root", make_clock(root_ppm))
    node = resynced_mote("m", ppm, t_sync if resync else None, root)
    # arrivals on a boundary tick, one tick either side of one, and just off
    # each of those ticks; negative slots lie before the grid origin, and
    # every 25th slot's boundary sits a whole number of slot ratios from it
    for asn in (node.asn_origin + s for s in (*slots, -25, 0, 25)):
        boundary = ref_slot_boundary_true_time(node, asn)
        t = boundary + tick_shift * ref_true_time_of_tick(node.clock, 1) + nudge
        if t < 0:
            continue
        tick = first_boundary_tick(node, (t.numerator, t.denominator))
        assert true_time_of_tick(node.clock, tick) == ref_slot_boundary_true_time(
            node, ref_first_boundary_slot(node, t))


# -- gait --------------------------------------------------------------------

@given(ref=st.sampled_from(list(TimeRef)), ppm1=ppms, ppm2=ppms,
       t_arm=st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
       resync=st.booleans(), ks=st.lists(st.integers(0, 10**5), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_gait_times_match_reference(ref, ppm1, ppm2, t_arm, resync, ks):
    root = make_mote("root", make_clock(0))
    t_sync = t_arm if resync else None
    m1 = resynced_mote("m1", ppm1, t_sync, root)
    m2 = resynced_mote("m2", ppm2, t_sync, root)
    cfg = GaitConfig()
    arm = arm_free_running if ref is TimeRef.FREE_RUNNING else arm_asn_ref
    for node in (m1, m2):
        assert whole_periods_at(node, ref, cfg, t_arm) == ref_whole_periods_at(
            node, ref, cfg, t_arm)
        arm(node, cfg, t_arm)
    for k in ks:
        for phase in PHASES:  # all four phase offsets
            event = gait_event_true_time(m1, k, phase)
            assert type(event) is Fraction
            assert event == ref_gait_event_true_time(m1, k, phase)
            assert whole_periods_at(m1, ref, cfg, event) == ref_whole_periods_at(
                m1, ref, cfg, event)
        assert gait_sync_error(m1, m2, k) == ref_gait_sync_error(m1, m2, k)


@pytest.mark.parametrize("ref", list(TimeRef))
def test_gait_times_match_reference_at_non_default_period_and_offsets(ref):
    # offsets whose slot position is not a whole slot: floor, not round
    offsets = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7))
    cfg = GaitConfig(period_slots=100, period_s=0.7, event_offsets=offsets)
    root = make_mote("root", make_clock(1.1))
    node = resynced_mote("m", -3.7, 12.34, root)
    (arm_free_running if ref is TimeRef.FREE_RUNNING else arm_asn_ref)(node, cfg, 56.78)
    for k in (0, 1, 999, 123_456):
        for phase in offsets:
            assert gait_event_true_time(node, k, phase) == ref_gait_event_true_time(
                node, k, phase)


# non-dyadic periods among them, down to the four-tick minimum
gait_periods = st.one_of(
    st.sampled_from([0.7, 1.0, 1.02, 0.1, Fraction(1, 3), Fraction(4, NOMINAL_FREQ_HZ)]),
    st.floats(min_value=4 / NOMINAL_FREQ_HZ, max_value=10))
# four strictly increasing phase offsets in [0, 1)
phase_offsets = st.lists(
    st.fractions(min_value=0, max_value=Fraction(999_999, 10**6), max_denominator=10**6),
    min_size=4, max_size=4, unique=True).map(sorted)


@given(ref=st.sampled_from(list(TimeRef)), ppm1=ppms, ppm2=ppms,
       root_ppm=st.sampled_from(LISTED_PPM),
       t_arm=st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
       resync=st.booleans(), period_s=gait_periods, period_slots=st.integers(4, 200),
       offsets=phase_offsets, ks=st.lists(st.integers(0, 10**7), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_event_tick_with_hoisted_period_matches_reference(ref, ppm1, ppm2, root_ppm, t_arm,
                                                          resync, period_s, period_slots,
                                                          offsets, ks):
    default = offsets == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assume(not (default and period_slots % 4))
    cfg = GaitConfig(period_slots=period_slots, period_s=period_s, event_offsets=tuple(offsets))
    root = make_mote("root", make_clock(root_ppm))
    t_sync = t_arm if resync else None
    m1 = resynced_mote("m1", ppm1, t_sync, root)
    m2 = resynced_mote("m2", ppm2, t_sync, root)
    arm = arm_free_running if ref is TimeRef.FREE_RUNNING else arm_asn_ref
    for node in (m1, m2):
        arm(node, cfg, t_arm)
        # the period pair event_tick reads is period_s exactly, taken at arming
        assert Fraction(*node.gait.period) == Fraction(period_s)
    for k in ks:
        for node in (m1, m2):
            for offset in offsets:
                assert event_tick(node, k, as_ratio(offset)) == ref_event_tick(node, k, offset)
                c, a, b, d = event_tick_form(node, as_ratio(offset))
                assert c + (a + b * k) // d == ref_event_tick(node, k, offset)
        assert gait_sync_error(m1, m2, k) == ref_gait_sync_error(m1, m2, k)
    # the batched errors take both nodes' forms and the tick-gap factors once
    stepped = range(ks[0], ks[0] + 7, 3)
    for batch in (ks, stepped):
        assert sync_errors(m1, m2, batch) == [ref_gait_sync_error(m1, m2, k) for k in batch]


# -- no Fraction arithmetic on the hot conversions ---------------------------

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
               "__mod__", "__rmod__", "__neg__", "__pow__")


@pytest.mark.parametrize("ppm", [-5, -3.7])
def test_hot_conversions_do_no_fraction_arithmetic(monkeypatch, ppm):
    root = make_mote("root", make_clock(0))
    node = resynced_mote("m", ppm, 1e5, root)
    arm_asn_ref(node, GaitConfig(), 1e5 + 1)
    free = resynced_mote("f", ppm, None, root)
    arm_free_running(free, GaitConfig(), 1e5 + 1)
    t = true_time_of_tick(node.clock, ticks_at(node.clock, 1e5 + 7))
    asn = asn_at(node, t)

    def forbidden(*_):
        raise AssertionError("Fraction arithmetic in a hot conversion")

    for name in _ARITHMETIC:
        monkeypatch.setattr(Fraction, name, forbidden)
    built = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    calls = {
        "ticks_at": lambda: ticks_at(node.clock, t),
        "asn_at": lambda: asn_at(node, t),
        "slot_boundary_true_time": lambda: slot_boundary_true_time(node, asn),
        "first_boundary_tick": lambda: first_boundary_tick(node, (t.numerator, t.denominator)),
        "gait_event_true_time (ASN)": lambda: gait_event_true_time(node, 3, PHASES[3]),
        "gait_event_true_time (free-running)": lambda: gait_event_true_time(free, 3, PHASES[1]),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert len(built) <= 1, f"{name} built {len(built)} Fractions"
