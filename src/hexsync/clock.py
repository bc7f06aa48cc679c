"""Free-running 32.768 kHz crystal model with parts-per-million frequency error.

All timing error in the simulator originates here. Every crystal has one
fixed tolerance, +/-10 ppm (PPM_MAX), which make_clock enforces. A clock
maps true (simulation) time to an integer tick count. Its rate is stored
once, when the clock is built, as a reduced integer pair rate_num /
rate_den ticks per true second, derived exactly from the ppm value. Every
conversion is then a single integer division, never a stepping of ticks
and never Fraction arithmetic, so a query at t = 1e6 s is as cheap and as
exact as one at t = 1 s. A returned true time is an exact Fraction built
once from an integer pair. The gap between two clocks' ticks has one
definition, tick_gap_us: one correctly rounded int / int division.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Tuple

NOMINAL_FREQ_HZ = 32768
TICK_S = Fraction(1, NOMINAL_FREQ_HZ)
TICK_US = 1e6 / NOMINAL_FREQ_HZ  # ~30.518 us, the quantization floor
PPM_MAX = 10.0  # the crystal's frequency tolerance, in ppm


def as_ratio(t) -> Tuple[int, int]:
    """A time value as its exact (numerator, denominator) pair, denominator > 0.

    Equal to Fraction(t)'s numerator and denominator, without building a
    Fraction for an int or a float: a float converts via its exact binary
    value, which is deterministic across runs and platforms. NaN and +/-inf
    have no such pair and raise ValueError. A caller that may hold an (n, d)
    pair already tests for it itself.
    """
    if isinstance(t, float):
        try:
            return t.as_integer_ratio()
        except (OverflowError, ValueError):
            raise ValueError(f"time must be finite, got {t}") from None
    if not isinstance(t, (int, Fraction)):
        t = Fraction(t)
    return t.numerator, t.denominator


def check_finite(**values) -> None:
    """Raise ValueError naming the first value that is not a finite real
    number; a bool is not one. A configuration calls this before its range
    checks, which would raise TypeError on a string."""
    for name, x in values.items():
        # a compare, not math.isfinite, which overflows on a huge int or Fraction
        if type(x) is bool or not isinstance(x, numbers.Real) or not -math.inf < x < math.inf:
            raise ValueError(f"{name} must be a finite number, got {x!r}")


class Value:
    """An immutable value: __init__ checks its arguments and stores the fields
    that _fields names, once, in the instance __dict__. Values compare, hash
    and print field by field; assigning or deleting an attribute raises
    AttributeError; replace builds a changed copy through __init__, so the
    copy is checked too. It is written out by hand to keep the CLI's cold
    start short (README, Layout).
    """

    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with the given fields changed, checked as a new value is."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class DriftingClock(Value):
    """A crystal oscillator running at 32768 * (1 + ppm_error/1e6) Hz.

    rate_num / rate_den is that rate in ticks per true second, in lowest
    terms, derived from ppm_error when the clock is built; neither is a
    field. The tick count is zero at true time 0. Resynchronization never
    touches the clock: it re-pins a node's slot grid against it
    (tsch.MoteState).
    """

    _fields = ("ppm_error",)

    def __init__(self, ppm_error) -> None:
        ppm = Fraction(ppm_error)
        den = 10**6 * ppm.denominator
        rate = Fraction(NOMINAL_FREQ_HZ * (den + ppm.numerator), den)
        self.__dict__.update(ppm_error=ppm_error, rate_num=rate.numerator,
                             rate_den=rate.denominator)


def make_clock(ppm_error) -> DriftingClock:
    """Build a clock, rejecting ppm errors outside the crystal's +/-PPM_MAX."""
    ppm = Fraction(ppm_error)
    if abs(ppm) > PPM_MAX:
        # the value as given: float() overflows on an int or Fraction past float range
        raise ValueError(f"ppm_error {ppm_error} outside +/-{PPM_MAX} ppm crystal tolerance")
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


def tick_gap_us(a: DriftingClock, ka: int, b: DriftingClock, kb: int) -> float:
    """True time of tick kb on clock b minus that of tick ka on clock a, in us.

    Equal to float((true_time_of_tick(b, kb) - true_time_of_tick(a, ka)) * 1e6):
    both round the same rational correctly.
    """
    if ka < 0 or kb < 0:
        raise ValueError(f"ticks {ka}, {kb} precede the clocks' epoch")
    # the gap cross-multiplied over a.rate_num * b.rate_num
    return ((kb * b.rate_den * a.rate_num - ka * a.rate_den * b.rate_num) * 10**6
            / (a.rate_num * b.rate_num))


def local_seconds_at(clock: DriftingClock, t_true) -> Fraction:
    """The clock's local reading in seconds, quantized to whole ticks."""
    return Fraction(ticks_at(clock, t_true), NOMINAL_FREQ_HZ)
