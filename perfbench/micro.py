"""Per-call cost of the closed-form time conversions.

Times `clock.ticks_at`, `tsch.asn_at` and `tsch.slot_boundary_true_time`
at a small (1 s) and a large (1e6 s) true time, on a round (-5) and a
non-round (-3.7) ppm error. The query instants lie on the clock's tick grid,
as event times in the simulator do, so they carry the rate's denominator:
~70 bits for -3.7 ppm. The clock module claims a query at 1e6 s costs the
same as one at 1 s; `micro.<fn>.large_over_small` (non-round ppm) measures
that claim. Each case also checks the exact round trips the layers promise.
"""

from __future__ import annotations

import statistics
import timeit
from functools import partial
from typing import Dict, List, Tuple

TIMES = (("small_t", 1), ("large_t", 10**6))
PPMS = (("round_ppm", -5), ("nonround_ppm", -3.7))
FUNCTIONS = ("ticks_at", "asn_at", "slot_boundary_true_time")
REPEATS = 7
TARGET_S = 0.01  # host time per repeat


def _ns_per_call(call) -> float:
    number = max(1, int(TARGET_S / max(timeit.timeit(call, number=20) / 20, 1e-9)))
    runs = timeit.repeat(call, number=number, repeat=REPEATS)
    return statistics.median(runs) / number * 1e9


def run_micro() -> Tuple[Dict[str, float], List[str]]:
    """Returns ({metric: ns per call or ratio}, violations)."""
    from hexsync.clock import make_clock, ticks_at, true_time_of_tick
    from hexsync.tsch import asn_at, make_mote, slot_boundary_true_time

    metrics: Dict[str, float] = {}
    bad: List[str] = []
    for t_label, t in TIMES:
        for p_label, ppm in PPMS:
            clock = make_clock(ppm)
            node = make_mote("m1", clock, parent_id="root")
            k = ticks_at(clock, t)
            t_grid = true_time_of_tick(clock, k)
            asn = asn_at(node, t_grid)
            boundary = slot_boundary_true_time(node, asn)
            case = f"ppm={ppm} t={t}"
            if ticks_at(clock, t_grid) != k:
                bad.append(f"micro {case}: ticks_at(true_time_of_tick(k)) != k")
            if not boundary <= t_grid < slot_boundary_true_time(node, asn + 1):
                bad.append(f"micro {case}: t is outside slot asn_at(t)")
            if asn_at(node, boundary) != asn:
                bad.append(f"micro {case}: asn_at(slot boundary) != asn")
            calls = {"ticks_at": partial(ticks_at, clock, t_grid),
                     "asn_at": partial(asn_at, node, t_grid),
                     "slot_boundary_true_time": partial(slot_boundary_true_time, node, asn)}
            for fn, call in calls.items():
                metrics[f"micro.{fn}.{t_label}.{p_label}"] = _ns_per_call(call)
    for fn in FUNCTIONS:
        metrics[f"micro.{fn}.large_over_small"] = (
            metrics[f"micro.{fn}.large_t.nonround_ppm"] / metrics[f"micro.{fn}.small_t.nonround_ppm"])
    return metrics, bad
