"""Free-running 32.768 kHz crystal model with parts-per-million frequency error.

All timing error in the simulator originates here. A clock maps true
(simulation) time to an integer tick count. Conversions are evaluated in
closed form with exact rational arithmetic, never by stepping ticks, so a
query at t = 1e6 s is as cheap and as exact as one at t = 1 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

NOMINAL_FREQ_HZ = 32768
TICK_S = Fraction(1, NOMINAL_FREQ_HZ)
TICK_US = 1e6 / NOMINAL_FREQ_HZ  # ~30.518 us, the quantization floor
DEFAULT_PPM_MAX = 10.0


def as_seconds(t) -> Fraction:
    """Convert a time value to an exact Fraction of seconds.

    Floats are converted via their exact binary value, which is
    deterministic across runs and platforms.
    """
    return t if isinstance(t, Fraction) else Fraction(t)


@dataclass
class DriftingClock:
    """A crystal oscillator running at 32768 * (1 + ppm_error/1e6) Hz.

    The tick count is zero at true time 0. Resynchronization never touches
    the clock: it re-pins a node's slot grid against it (tsch.MoteState).
    """

    ppm_error: Fraction

    @property
    def rate_ticks_per_s(self) -> Fraction:
        return NOMINAL_FREQ_HZ * (1 + self.ppm_error / 10**6)


def make_clock(ppm_error, ppm_max: float = DEFAULT_PPM_MAX) -> DriftingClock:
    """Build a clock, rejecting ppm errors outside the crystal's spec."""
    ppm = as_seconds(ppm_error)
    if abs(ppm) > Fraction(ppm_max):
        raise ValueError(
            f"ppm_error {float(ppm)} outside +/-{ppm_max} ppm crystal tolerance")
    return DriftingClock(ppm)


def ticks_at(clock: DriftingClock, t_true) -> int:
    """Tick count at true time t_true: floor(rate * t), evaluated exactly."""
    t = as_seconds(t_true)
    if t < 0:
        raise ValueError(f"t_true {float(t)} precedes clock epoch")
    return math.floor(clock.rate_ticks_per_s * t)


def true_time_of_tick(clock: DriftingClock, k: int) -> Fraction:
    """Smallest true time at which the clock's tick count equals k.

    Exact algebraic inverse of ticks_at: the round trip
    ticks_at(clock, true_time_of_tick(clock, k)) == k holds identically.
    """
    if k < 0:
        raise ValueError(f"tick {k} precedes the clock's epoch")
    return Fraction(k) / clock.rate_ticks_per_s


def true_time_of_local(clock: DriftingClock, local_s: Fraction) -> Fraction:
    """First true time at which the clock's local reading reaches local_s.

    The reading advances in whole ticks, so this is the instant of the
    first tick at or past local_s.
    """
    return true_time_of_tick(clock, math.ceil(local_s * NOMINAL_FREQ_HZ))


def local_seconds_at(clock: DriftingClock, t_true) -> Fraction:
    """The clock's local reading in seconds, quantized to whole ticks."""
    return Fraction(ticks_at(clock, t_true), NOMINAL_FREQ_HZ)


def relative_drift_ppm(a: DriftingClock, b: DriftingClock) -> float:
    """Rate at which a's local time diverges from b's, in us per true second."""
    return float(a.ppm_error - b.ppm_error)
