"""Free-running 32.768 kHz crystal model with parts-per-million frequency error.

All timing error in the simulator originates here. A clock maps true
(simulation) time to an integer tick count. Its rate is stored once, when
the clock is built, as a reduced integer pair rate_num / rate_den ticks per
true second, derived exactly from the ppm value. Every conversion is then a
single integer division, never a stepping of ticks and never Fraction
arithmetic, so a query at t = 1e6 s is as cheap and as exact as one at
t = 1 s. A returned true time is an exact Fraction built once from an
integer pair. The gap between two clocks' ticks has one definition, over
the clock pair's tick_gap_factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple

NOMINAL_FREQ_HZ = 32768
TICK_S = Fraction(1, NOMINAL_FREQ_HZ)
TICK_US = 1e6 / NOMINAL_FREQ_HZ  # ~30.518 us, the quantization floor
DEFAULT_PPM_MAX = 10.0


def as_ratio(t) -> Tuple[int, int]:
    """A time value as its exact (numerator, denominator) pair, denominator > 0.

    Equal to Fraction(t)'s numerator and denominator, without building a
    Fraction for an int or a float: a float converts via its exact binary
    value, which is deterministic across runs and platforms. An (n, d) tuple
    with d > 0 is already such a pair and is returned as it is, unreduced.
    """
    if type(t) is tuple:
        return t
    if isinstance(t, float):
        return t.as_integer_ratio()
    if not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    return t.numerator, t.denominator


@dataclass(frozen=True)
class DriftingClock:
    """A crystal oscillator running at 32768 * (1 + ppm_error/1e6) Hz.

    rate_num / rate_den is that rate in ticks per true second, in lowest
    terms, derived from ppm_error when the clock is built. The tick count is
    zero at true time 0. Resynchronization never touches the clock: it
    re-pins a node's slot grid against it (tsch.MoteState).
    """

    ppm_error: Fraction
    rate_num: int = field(init=False, repr=False, compare=False)
    rate_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ppm = Fraction(self.ppm_error)
        den = 10**6 * ppm.denominator
        rate = Fraction(NOMINAL_FREQ_HZ * (den + ppm.numerator), den)
        object.__setattr__(self, "rate_num", rate.numerator)
        object.__setattr__(self, "rate_den", rate.denominator)


def make_clock(ppm_error, ppm_max: float = DEFAULT_PPM_MAX) -> DriftingClock:
    """Build a clock, rejecting ppm errors outside the crystal's spec."""
    ppm = Fraction(ppm_error)
    if abs(ppm) > Fraction(ppm_max):
        raise ValueError(
            f"ppm_error {float(ppm)} outside +/-{ppm_max} ppm crystal tolerance")
    return DriftingClock(ppm)


def ticks_at(clock: DriftingClock, t_true) -> int:
    """Tick count at true time t_true: floor(rate * t), evaluated exactly."""
    # the event loop passes (num, den) pairs; skip the as_ratio call for them
    num, den = t_true if type(t_true) is tuple else as_ratio(t_true)
    if num < 0:
        raise ValueError(f"t_true {num / den} precedes clock epoch")
    return clock.rate_num * num // (clock.rate_den * den)


def true_time_of_tick(clock: DriftingClock, k: int) -> Fraction:
    """Smallest true time at which the clock's tick count equals k.

    Exact algebraic inverse of ticks_at: the round trip
    ticks_at(clock, true_time_of_tick(clock, k)) == k holds identically.
    """
    if k < 0:
        raise ValueError(f"tick {k} precedes the clock's epoch")
    return Fraction(k * clock.rate_den, clock.rate_num)


def local_periods_at(clock: DriftingClock, t_true, period_s) -> int:
    """Whole periods of period_s local seconds the clock has counted at t_true.

    floor(local_seconds_at(clock, t_true) / period_s), evaluated exactly.
    """
    p_num, p_den = as_ratio(period_s)
    return ticks_at(clock, t_true) * p_den // (NOMINAL_FREQ_HZ * p_num)


def tick_gap_us(a: DriftingClock, ka: int, b: DriftingClock, kb: int) -> float:
    """True time of tick kb on clock b minus that of tick ka on clock a, in us.

    Equal to float((true_time_of_tick(b, kb) - true_time_of_tick(a, ka)) * 1e6):
    both round the same rational correctly.
    """
    if ka < 0 or kb < 0:
        raise ValueError(f"ticks {ka}, {kb} precede the clocks' epoch")
    fa, fb, den = tick_gap_factors(a, b)
    return (kb * fb - ka * fa) / den


def tick_gap_factors(a: DriftingClock, b: DriftingClock) -> Tuple[int, int, int]:
    """(fa, fb, den) with tick_gap_us(a, ka, b, kb) == (kb * fb - ka * fa) / den.

    The tick gap cross-multiplied over a.rate_num * b.rate_num: the factors
    depend only on the clock pair, so a caller that takes many gaps between
    two clocks computes them once.
    """
    return (a.rate_den * b.rate_num * 10**6, b.rate_den * a.rate_num * 10**6,
            a.rate_num * b.rate_num)


def local_seconds_at(clock: DriftingClock, t_true) -> Fraction:
    """The clock's local reading in seconds, quantized to whole ticks."""
    return Fraction(ticks_at(clock, t_true), NOMINAL_FREQ_HZ)


def relative_drift_ppm(a: DriftingClock, b: DriftingClock) -> float:
    """Rate at which a's local time diverges from b's, in us per true second."""
    return float(a.ppm_error - b.ppm_error)
