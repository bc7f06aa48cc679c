"""The integer time base equals the exact Fraction formulas it replaced.

Each reference is the rational-arithmetic definition of a conversion,
evaluated with Fraction operators; they live in tests/reference_sim.py,
whose exact twin of the simulator is built on them. The library computes
the same quantities as integer floor or ceil divisions over each clock's
integer rate pair; every result must be equal, not merely close.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_sim import (
    ref_asn_at,
    ref_event_tick,
    ref_first_boundary_slot,
    ref_gait_event_true_time,
    ref_gait_sync_error,
    ref_pairwise_sync_error,
    ref_rate,
    ref_slot_boundary_true_time,
    ref_ticks_at,
    ref_true_time_of_tick,
    ref_whole_periods_at,
)

from hexsync.clock import (
    NOMINAL_FREQ_HZ,
    DriftingClock,
    local_seconds_at,
    make_clock,
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
    period_index_at,
)
from hexsync.simnet import GAIT_TIME_REF, LinkModel, SchemeId, SchemeParams, Sim, Verb
from hexsync.tsch import (
    asn_at,
    first_boundary_tick,
    make_mote,
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


# -- helpers -----------------------------------------------------------------

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
    # the whole local periods counted at t, as arming and period_index_at
    # read them off the free-running quarter grid
    c = make_clock(ppm)
    expected = math.floor(Fraction(ref_ticks_at(c, t), NOMINAL_FREQ_HZ) / Fraction(period))
    assert expected == math.floor(local_seconds_at(c, t) / Fraction(period))
    node = make_mote("m", c)
    arm_free_running(node, GaitConfig(period_s=period), t)
    assert node.gait.arm_period_index - 1 == expected
    assert period_index_at(node, t) == -1


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


# -- tsch --------------------------------------------------------------------

@given(ppm=ppms, root_ppm=st.sampled_from(LISTED_PPM), t_sync=resync_times,
       slots=st.lists(st.integers(-40, 40), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_slot_conversions_match_reference_around_a_resync(ppm, root_ppm, t_sync, slots):
    root = make_mote("root", make_clock(root_ppm))
    node = make_mote("m", make_clock(ppm), parent_id="root")
    parent_asn = ref_asn_at(root, t_sync)
    resync_to_parent(node, root, t_sync)
    parent_next = ref_slot_boundary_true_time(root, parent_asn + 1)
    assert node.asn_origin == parent_asn + 1
    assert -ref_pairwise_sync_error(node, root, node.asn_origin) == float(
        (parent_next - ref_slot_boundary_true_time(node, node.asn_origin)) * 10**6)
    # slots on both sides of the resync origin, ASNs from boundaries and off them
    for asn in (node.asn_origin + s for s in slots):
        boundary = slot_boundary_true_time(node, asn)
        assert boundary == ref_slot_boundary_true_time(node, asn)
        assert asn_at(node, boundary) == ref_asn_at(node, boundary) == asn
        before = boundary - Fraction(1, 10**9)
        assert asn_at(node, before) == ref_asn_at(node, before)
        assert ref_pairwise_sync_error(node, root, asn) == float(
            (boundary - ref_slot_boundary_true_time(root, asn)) * 10**6)
    assert asn_at(node, t_sync) == ref_asn_at(node, t_sync)


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
        arm(node, cfg, t_arm)
        assert node.gait.arm_period_index - 1 == ref_whole_periods_at(node, ref, cfg, t_arm)
    for k in ks:
        for phase in range(4):
            event = gait_event_true_time(m1, k, phase)
            assert type(event) is Fraction
            assert event == ref_gait_event_true_time(m1, k, phase)
            assert period_index_at(m1, event) + m1.gait.arm_period_index == ref_whole_periods_at(
                m1, ref, cfg, event)
        assert gait_sync_error(m1, m2, k) == ref_gait_sync_error(m1, m2, k)


@pytest.mark.parametrize("ref", list(TimeRef))
def test_gait_times_match_reference_at_non_default_period_and_offsets(ref):
    # 25 slots to a quarter, whose boundaries fall off the tick grid
    cfg = GaitConfig(period_slots=100, period_s=0.7)
    root = make_mote("root", make_clock(1.1))
    node = resynced_mote("m", -3.7, 12.34, root)
    (arm_free_running if ref is TimeRef.FREE_RUNNING else arm_asn_ref)(node, cfg, 56.78)
    for k in (0, 1, 999, 123_456):
        for phase in range(4):
            assert gait_event_true_time(node, k, phase) == ref_gait_event_true_time(
                node, k, phase)


# non-dyadic periods among them, down to the four-tick minimum
gait_periods = st.one_of(
    st.sampled_from([0.7, 1.0, 1.02, 0.1, Fraction(1, 3), Fraction(4, NOMINAL_FREQ_HZ)]),
    st.floats(min_value=4 / NOMINAL_FREQ_HZ, max_value=10))


@given(ref=st.sampled_from(list(TimeRef)), ppm1=ppms, ppm2=ppms,
       root_ppm=st.sampled_from(LISTED_PPM),
       t_arm=st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
       resync=st.booleans(), period_s=gait_periods,
       period_slots=st.integers(1, 50).map(lambda n: 4 * n),
       ks=st.lists(st.integers(0, 10**7), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_event_tick_with_hoisted_period_matches_reference(ref, ppm1, ppm2, root_ppm, t_arm,
                                                          resync, period_s, period_slots, ks):
    cfg = GaitConfig(period_slots=period_slots, period_s=period_s)
    root = make_mote("root", make_clock(root_ppm))
    t_sync = t_arm if resync else None
    m1 = resynced_mote("m1", ppm1, t_sync, root)
    m2 = resynced_mote("m2", ppm2, t_sync, root)
    arm = arm_free_running if ref is TimeRef.FREE_RUNNING else arm_asn_ref
    for node in (m1, m2):
        arm(node, cfg, t_arm)
    for k in ks:
        for node in (m1, m2):
            c, a, b, d = event_tick_form(node)
            for phase in range(4):
                assert event_tick(node, k, phase) == ref_event_tick(node, k, phase)
                assert c + (a + b * (4 * k + phase)) // d == ref_event_tick(node, k, phase)
        assert gait_sync_error(m1, m2, k) == ref_gait_sync_error(m1, m2, k)


@given(ref=st.sampled_from(list(TimeRef)), ppm=ppms, root_ppm=st.sampled_from(LISTED_PPM),
       t_sync=resync_times, t_after=st.floats(min_value=0, max_value=1e3),
       period_s=gait_periods, period_slots=st.integers(1, 50).map(lambda n: 4 * n),
       ks=st.lists(st.integers(-10**7, 10**7), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_period_index_at_inverts_each_period_start(ref, ppm, root_ppm, t_sync, t_after,
                                                   period_s, period_slots, ks):
    # period_index_at reads k from period k's first tick on and k - 1 one
    # tick before it, before period 0 (negative k) as well as long after
    cfg = GaitConfig(period_slots=period_slots, period_s=period_s)
    root = make_mote("root", make_clock(root_ppm))
    node = resynced_mote("m", ppm, t_sync, root)
    (arm_free_running if ref is TimeRef.FREE_RUNNING else arm_asn_ref)(
        node, cfg, t_sync + t_after)
    origin = node.gait.arm_period_index
    # the first period that starts after tick 1, so the tick before its start exists
    lowest = ref_whole_periods_at(node, ref, cfg, ref_true_time_of_tick(node.clock, 1)) - origin + 1
    for k in (lowest, -1, 0, *ks):
        k = max(k, lowest)
        tick = event_tick(node, k, 0)
        assert tick == ref_event_tick(node, k, 0) >= 2
        start = ref_true_time_of_tick(node.clock, tick)
        assert period_index_at(node, start) == k
        assert period_index_at(node, start) + origin == ref_whole_periods_at(node, ref, cfg, start)
        assert period_index_at(node, ref_true_time_of_tick(node.clock, tick - 1)) == k - 1


@given(scheme=st.sampled_from([SchemeId.S1_OPEN_LOOP, SchemeId.S2_SYNCHRONIZED]),
       ppm1=ppms, ppm2=ppms, root_ppm=st.sampled_from(LISTED_PPM), period_s=gait_periods,
       period_slots=st.integers(1, 50).map(lambda n: 4 * n),
       jitter=st.sampled_from([0.0, 0.011, 0.015]),
       start_periods=st.one_of(st.sampled_from([0, 3 * 10**7]), st.integers(0, 3 * 10**7)))
@settings(max_examples=100, deadline=None)
@example(scheme=SchemeId.S1_OPEN_LOOP, ppm1=-3.7, ppm2=1.1, root_ppm=0, period_s=0.7,
         period_slots=68, jitter=0.011, start_periods=0)
@example(scheme=SchemeId.S1_OPEN_LOOP, ppm1=-3.7, ppm2=1.1, root_ppm=0, period_s=0.7,
         period_slots=68, jitter=0.011, start_periods=3 * 10**7)
def test_sim_samples_match_reference_up_to_large_k(scheme, ppm1, ppm2, root_ppm, period_s,
                                                   period_slots, jitter, start_periods):
    # The window sampler's errors, one window per run: no keep-alive falls
    # due inside it, so the arm state and slot grids that the final
    # children hold are the ones every sample read. With a Start up to 3e7
    # periods in, the 30 samples' quarters on each child's grid reach near
    # 1.2e8. In the first explicit example the float 0.7 is just under 0.7,
    # so sample 0 sits at 1.0499999999999998 s, which rounds to 1.05 at 6
    # decimals; a sample rounded anywhere fails on it at once, with nothing
    # to shrink. In the second, the Start comes 2.1e7 s in.
    n = 30
    gait_cfg = GaitConfig(period_slots=period_slots, period_s=period_s)
    params = SchemeParams(ppm_m1=ppm1, ppm_m2=ppm2, ppm_root=root_ppm,
                          resync_period_s=1e10, gait=gait_cfg,
                          link=LinkModel(jitter_bound_s=jitter))
    period = gait_cfg.period_on(GAIT_TIME_REF[scheme])
    start = start_periods * Fraction(period)
    sim = Sim(scheme, params)
    sim.inject_command(Verb.START, start)
    delivered = start + Fraction(1, 20)  # both Starts are delivered by now
    sim.run_until(delivered)
    m1, m2 = sim.children
    origin = m1.gait.arm_period_index
    # the instant of the n-th sample, k = n - 1
    sim.run_until(max(delivered, (origin + n - 1 + Fraction(1, 2)) * period))
    assert len(sim.samples) >= n
    for j, (t, k, error_us, _) in enumerate(sim.samples):
        assert k == j
        assert t == float((origin + k + Fraction(1, 2)) * period)
        assert error_us == ref_gait_sync_error(m1, m2, k)


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
        "gait_event_true_time (ASN)": lambda: gait_event_true_time(node, 3, 3),
        "gait_event_true_time (free-running)": lambda: gait_event_true_time(free, 3, 1),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert len(built) <= 1, f"{name} built {len(built)} Fractions"
