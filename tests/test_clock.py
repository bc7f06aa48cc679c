"""Crystal model: exact conversions, drift rates, quantization bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsync.clock import (
    TICK_S,
    local_seconds_at,
    make_clock,
    tick_gap_us,
    ticks_at,
    true_time_of_tick,
)
from hexsync.simnet import SchemeId, SchemeParams, make_sim

ppm_values = st.floats(min_value=-10, max_value=10,
                       allow_nan=False, allow_infinity=False)
times = st.floats(min_value=0, max_value=1e6,
                  allow_nan=False, allow_infinity=False)


def test_identity_clock_tracks_true_time():
    c = make_clock(0)
    for t in (0.5, 1.0, 123.456, 1e5):
        assert abs(local_seconds_at(c, t) - Fraction(t)) < TICK_S


def test_positive_ppm_gains_microseconds_per_second():
    c = make_clock(10)
    gain = local_seconds_at(c, 1000) - 1000
    assert abs(gain - Fraction(10, 10**6) * 1000) < TICK_S  # 10 us/s for 1000 s
    assert gain > 0


def test_ppm_out_of_tolerance_rejected():
    with pytest.raises(ValueError):
        make_clock(-10.5)
    with pytest.raises(ValueError):
        make_clock(10.0001)
    # past float range: the message must not go through float()
    with pytest.raises(ValueError, match="outside"):
        make_clock(10**400)
    with pytest.raises(ValueError, match="outside"):
        make_sim(SchemeId.S1_OPEN_LOOP, SchemeParams(ppm_m1=10**400))


def test_nominal_frequency():
    assert ticks_at(make_clock(0), 1.0) == 32768


def test_ten_ppm_after_hundred_seconds():
    # floor(32768 * 1.00001 * 100) = 3276832, 32 ticks ahead of nominal
    assert ticks_at(make_clock(10), 100.0) == 3_276_832


def test_five_ppm_is_two_ms_fast_after_400s():
    local = local_seconds_at(make_clock(5), 400.0)
    assert abs(local - Fraction("400.002")) < TICK_S


def test_ticks_before_epoch_rejected():
    with pytest.raises(ValueError):
        ticks_at(make_clock(0), -0.1)


def test_nominal_inverse():
    assert true_time_of_tick(make_clock(0), 32768) == 1


def test_inverse_with_drift_is_exact_rational():
    t = true_time_of_tick(make_clock(10), 32768)
    assert t == Fraction(100000, 100001)


def test_tick_before_offset_rejected():
    c = make_clock(0)
    with pytest.raises(ValueError):
        true_time_of_tick(c, -1)
    for ka, kb in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="precede the clocks' epoch"):
            tick_gap_us(c, ka, c, kb)


@given(ppm=ppm_values, t=times)
@settings(max_examples=200)
def test_roundtrip_through_tick(ppm, t):
    c = make_clock(ppm)
    k = ticks_at(c, t)
    assert ticks_at(c, true_time_of_tick(c, k)) == k


@given(ppm=ppm_values, t=times)
@settings(max_examples=200)
def test_quantization_bracket(ppm, t):
    c = make_clock(ppm)
    back = true_time_of_tick(c, ticks_at(c, t))
    gap = Fraction(t) - back
    assert 0 <= gap < TICK_S / (1 - Fraction(10, 10**6))  # one effective tick


@given(ppm=ppm_values, t1=times, t2=times)
@settings(max_examples=200)
def test_monotone_in_true_time(ppm, t1, t2):
    c = make_clock(ppm)
    lo, hi = sorted((t1, t2))
    assert ticks_at(c, lo) <= ticks_at(c, hi)


@given(ppm=ppm_values, t=times)
@settings(max_examples=200)
def test_linearity_of_local_offset(ppm, t):
    c = make_clock(ppm)
    offset = local_seconds_at(c, t) - Fraction(t)
    predicted = Fraction(ppm) / 10**6 * Fraction(t)
    assert abs(offset - predicted) < TICK_S
