"""The benchmark's workloads: hexsync CLI flags, simulated horizon, output checks.

Each workload is one `hexsync` command. Its flags are fixed here; the
benchmark seed becomes the command's `--seed`, which drives every link
latency, drop and retransmit draw. Horizons are sized so that one command
takes 0.2-0.5 host seconds on the seed code: short enough that the CPU-speed
calibration around each command (see run.py) tracks the machine, long
enough that the centralized run's per-mark post-processing is about a
quarter of its time.

Why each workload was chosen is stated in BENCHMARK.json and README.md.
The checks are independent oracles over the CSV a command writes. They
return a list of violations; the caller counts any violation as a failed
run and never filters it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

TICK_US = 1e6 / 32768  # one tick of the 32.768 kHz crystal
SLOT_US = 15_000.0

TRACE_HEADER = "true_time_s,period_index,error_us,resync"
SWEEP_HEADER = "resync_period_s,max_abs_error_us,analytic_bound_us"
SERVO_HEADER = "true_time_s,controller,servo_id,angle_deg"


@dataclass(frozen=True)
class Workload:
    name: str
    flags: Tuple[str, ...]
    sim_seconds: float  # simulated seconds per command, summed over a sweep's runs
    check: Callable[[str, Sequence[float]], List[str]]

    def argv(self, seed: int) -> List[str]:
        return [*self.flags, "--seed", str(seed)]


def _rows(csv_text: str, header: str) -> List[List[str]]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _first(violations: List[str], limit: int = 5) -> List[str]:
    if len(violations) > limit:
        return violations[:limit] + [f"... and {len(violations) - limit} more"]
    return violations


# -- open-loop-drift -------------------------------------------------------

OPEN_LOOP_PPM_M1 = -5.0
OPEN_LOOP_DURATION_S = 4_000


def check_open_loop(csv_text: str, stop_deliveries: Sequence[float]) -> List[str]:
    """Every sample within 2 ticks of rel_ppm * t; no resync ever."""
    rel_ppm = OPEN_LOOP_PPM_M1 - 0.0  # M2 runs at the CLI default of 0 ppm
    rows = _rows(csv_text, TRACE_HEADER)
    bad = []
    for t, k, err, resync in rows:
        deviation = abs(float(err) - rel_ppm * float(t))
        if deviation > 2 * TICK_US:
            bad.append(f"open-loop sample k={k} t={t}: |err - rel_ppm*t| = {deviation:.3f} us")
        if resync != "0":
            bad.append(f"open-loop sample k={k} t={t} is flagged as resynced")
    if len(rows) < OPEN_LOOP_DURATION_S - 2:
        bad.append(f"open-loop wrote {len(rows)} samples over {OPEN_LOOP_DURATION_S} s")
    return _first(bad)


# -- centralized-relay -----------------------------------------------------

RELAY_DURATION_S = 1_000
RELAY_JITTER_S = 0.015


def check_centralized(csv_text: str, stop_deliveries: Sequence[float]) -> List[str]:
    """Root-timed error stays within one slot plus the link jitter bound."""
    limit_us = SLOT_US + RELAY_JITTER_S * 1e6
    rows = _rows(csv_text, TRACE_HEADER)
    bad = [f"centralized sample k={k} t={t}: |error| {abs(float(err)):.3f} us > {limit_us:.0f} us"
           for t, k, err, _ in rows if abs(float(err)) > limit_us]
    if len(rows) < RELAY_DURATION_S - 2:
        bad.append(f"centralized wrote {len(rows)} samples over {RELAY_DURATION_S} s")
    return _first(bad)


# -- sync-sweep ------------------------------------------------------------

SWEEP_PERIODS = (1.0, 3.0, 10.0, 30.0)
SWEEP_PPM_M1 = -3.7
SWEEP_PPM_M2 = 1.1
SWEEP_DURATION_S = 400


def check_sweep(csv_text: str, stop_deliveries: Sequence[float]) -> List[str]:
    """One row per period, each with max error <= analytic bound + one tick,
    and the bound equal to |rel_ppm| * period + one tick."""
    rel_ppm = abs(SWEEP_PPM_M1 - SWEEP_PPM_M2)
    rows = _rows(csv_text, SWEEP_HEADER)
    periods = tuple(float(r[0]) for r in rows)
    bad = [] if periods == SWEEP_PERIODS else [f"sweep periods {periods} != {SWEEP_PERIODS}"]
    for period, max_err, bound in rows:
        expected_bound = rel_ppm * float(period) + TICK_US
        if abs(float(bound) - expected_bound) > 0.001:
            bad.append(f"sweep period {period}: bound {bound} != {expected_bound:.3f}")
        if float(max_err) > float(bound) + TICK_US:
            bad.append(f"sweep period {period}: max error {max_err} us > bound {bound} + 1 tick")
    return _first(bad)


# -- servo-trace -----------------------------------------------------------

SERVO_DURATION_S = 1_000
SERVO_STOP_S = 900


def check_servo(csv_text: str, stop_deliveries: Sequence[float]) -> List[str]:
    """No setpoint after the first Stop delivery, and setpoints before it.

    The first delivery bumps the run's generation, so both controllers go
    quiet from that instant; times in the CSV carry 6 decimals.
    """
    rows = _rows(csv_text, SERVO_HEADER)
    if not rows:
        return ["servo trace wrote no setpoints"]
    if not stop_deliveries:
        return ["servo trace: the Stop command was never sent"]
    stopped = min(stop_deliveries)
    late = [f"servo setpoint at t={t} ({ctrl} servo {sid}) after Stop delivery at {stopped:.6f}"
            for t, ctrl, sid, _ in rows if float(t) > stopped + 5e-7]
    return _first(late)


WORKLOADS = {w.name: w for w in (
    Workload(
        "open-loop-drift",
        ("run", "--scheme", "open-loop", "--ppm-m1", f"{OPEN_LOOP_PPM_M1:g}",
         "--duration-s", str(OPEN_LOOP_DURATION_S)),
        OPEN_LOOP_DURATION_S,
        check_open_loop),
    Workload(
        "centralized-relay",
        ("run", "--scheme", "centralized", "--duration-s", str(RELAY_DURATION_S),
         "--jitter-s", f"{RELAY_JITTER_S:g}"),
        RELAY_DURATION_S,
        check_centralized),
    Workload(
        "sync-sweep",
        ("sweep", "--periods", ",".join(f"{p:g}" for p in reversed(SWEEP_PERIODS)),
         "--ppm-m1", f"{SWEEP_PPM_M1:g}", "--ppm-m2", f"{SWEEP_PPM_M2:g}",
         "--drop-prob", "0.1", "--duration-s", str(SWEEP_DURATION_S)),
        SWEEP_DURATION_S * len(SWEEP_PERIODS),
        check_sweep),
    Workload(
        "servo-trace",
        ("trace", "--scheme", "synchronized", "--duration-s", str(SERVO_DURATION_S),
         "--stop-s", str(SERVO_STOP_S), "--drop-prob", "0.1"),
        SERVO_DURATION_S,
        check_servo),
)}
