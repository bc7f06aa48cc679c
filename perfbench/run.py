"""hexsync benchmark: one workload, end-to-end or per-layer figures, checked outputs.

    python3 perfbench/run.py --workload open-loop-drift --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports hexsync from ./src. Workloads
are defined in perfbench/workloads.py, metric names and units in
BENCHMARK.json. Human-readable lines come first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}. `--workload
all` runs every workload in turn and merges them into one final line.

Every run does, in order:
  1. 1 + COLD_STARTS fresh interpreters that import hexsync.cli, parse the
     workload's arguments and build the simulation (the first only warms
     the bytecode cache): setup_s and cli.import_s;
  2. one plain CLI process running the whole command: peak_rss_mb and the
     reference CSV bytes;
  3. one in-process run under the count probe: the reference counts, and
     the CSV checked by the workload's oracle;
  4. --trace 0: untraced in-process runs for --seconds (wall_s,
     sim_s_per_host_s); --trace 1: alternating untraced and traced runs for
     --seconds (per-layer figures, tracing overhead), then the per-call
     microbenchmark.
Every run of a command must write the same CSV bytes and, traced or not,
the same counts. A run fails on a non-zero exit, a differing output, a
differing count or a failed oracle check; failed / attempted is failed_frac.

The process pins itself to one CPU, and end-to-end times are reported at a
reference CPU speed (see at_reference_speed).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from workloads import WORKLOADS, Workload  # perfbench/ is sys.path[0]

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
COLD_START = os.path.join(HERE, "cold_start.py")
COLD_STARTS = 20
MIN_UNTRACED_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150
# Host seconds of calibration_kernel() on the reference machine (2-core
# x86-64 VM, Python 3.11.7) when it is not slowed by its neighbours.
CAL_REF_S = 0.010


class Tally:
    """Attempted and failed runs, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []

    def record(self, what: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.violations.extend(f"{what}: {p}" for p in problems)


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def host_metadata() -> Dict[str, object]:
    import numpy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "commit": commit}


# -- CPU-speed calibration ---------------------------------------------------

def calibration_kernel() -> str:
    """Fixed pure-Python work of the simulator's kind: exact Fraction
    arithmetic with a ~70-bit denominator, float formatting and hashing."""
    rate = Fraction(32768) * (1 + Fraction(-3.7) / 10**6)
    acc = Fraction(0)
    rows = []
    for k in range(1, 1500):
        acc = (acc + Fraction(k) / rate) % 7
        rows.append(f"{float(acc):.6f},{k},{k * 0.5:.3f}")
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def at_reference_speed(elapsed: float, before: float, after: float) -> float:
    """Scale a host time to the reference CPU speed.

    On a shared machine the CPU speed a process gets drifts by tens of
    percent over seconds, for all code alike. The kernel runs just before
    and just after the measured step; dividing by its mean time and
    multiplying by CAL_REF_S cancels that drift, so medians of different
    runs agree within a few percent where raw host times differ by 10-20%.
    """
    return elapsed * CAL_REF_S / ((before + after) / 2)


# -- the steps of a run ------------------------------------------------------

class ColdStarts:
    """Fresh interpreters that import hexsync.cli, parse the workload's
    arguments and build the simulation, stopping where the event loop starts.
    One warm-up start fills the bytecode cache; COLD_STARTS timed ones follow.
    """

    def __init__(self, argv: List[str], tally: Tally) -> None:
        self.raw: List[float] = []      # host seconds to the event loop
        self.scaled: List[float] = []   # the same at reference speed
        self.imports: List[float] = []  # host seconds of `import hexsync.cli`
        for i in range(COLD_STARTS + 1):
            before = kernel_seconds()
            start = time.monotonic()
            proc = subprocess.run([sys.executable, COLD_START, "setup", *argv], cwd=ROOT,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            after = kernel_seconds()
            try:
                report = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                tally.record(f"cold start {i}", [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
                continue
            tally.record(f"cold start {i}", [] if proc.returncode == 0 else [f"exit {proc.returncode}"])
            if i > 0:
                self.raw.append(report["first_event_monotonic"] - start)
                self.scaled.append(at_reference_speed(self.raw[-1], before, after))
                self.imports.append(report["import_s"])


def plain_cli(argv: List[str], tally: Tally) -> Tuple[bytes, float]:
    """CSV bytes and peak RSS (MB) of the command run to the end in its own process."""
    proc = subprocess.run([sys.executable, COLD_START, "full", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    try:
        report = json.loads(proc.stderr.decode().splitlines()[-1])
    except (IndexError, ValueError):
        report = {"rc": None, "maxrss_kb": 0}
    problems = []
    if proc.returncode != 0 or report["rc"] != 0:
        problems.append(f"exit {proc.returncode}, dispatch {report['rc']}: "
                        f"{proc.stderr.decode().strip()[-300:]}")
    tally.record("plain CLI process", problems)
    return proc.stdout, report["maxrss_kb"] / 1024


def run_in_process(argv: List[str]) -> Tuple[int, str, float, float]:
    """(exit code, CSV text, host seconds, reference-speed seconds) of one
    command via hexsync.cli.dispatch."""
    from hexsync.cli import dispatch

    out = io.StringIO()
    gc.collect()
    before = kernel_seconds()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = dispatch(argv)
        elapsed = time.perf_counter() - start
    after = kernel_seconds()
    return rc, out.getvalue(), elapsed, at_reference_speed(elapsed, before, after)


def differs(expected: Dict[str, int], got: Dict[str, int]) -> List[str]:
    return [f"{k} = {got.get(k)} but the reference run counted {v}"
            for k, v in expected.items() if got.get(k) != v]


class Reference:
    """The reference run of a command: its CSV, its counts, and whether it
    passed the workload's checks. Every later run is held to it."""

    def __init__(self, workload: Workload, argv: List[str], plain_csv: bytes, tally: Tally):
        from layers import Tracer

        with Tracer(layers=("simnet",)) as probe:
            rc, self.text, *_ = run_in_process(argv)
        problems = [] if rc == 0 else [f"exit {rc}"]
        if self.text.encode() != plain_csv:
            problems.append("CSV differs from the plain CLI process's")
        try:
            problems += workload.check(self.text, probe.stop_deliveries)
        except ValueError as exc:
            problems.append(f"unreadable CSV: {exc}")
        tally.record("reference run", problems)
        self.failed = ["output fails the workload check (see reference run)"] if problems else []
        self.counts = dict(probe.exact_counts(), **csv_counts(self.text))
        self.tally = tally

    def record(self, what: str, rc: int, text: str, extra: Sequence[str] = ()) -> None:
        found = [] if rc == 0 else [f"exit {rc}"]
        if text != self.text:
            found.append("CSV bytes differ from the reference run (replay broken)")
        self.tally.record(what, found + self.failed + list(extra))


def csv_counts(text: str) -> Dict[str, int]:
    return {"cli.rows": text.count("\n") - 1, "cli.bytes": len(text.encode())}


def end_to_end(workload: Workload, argv: List[str], seconds: float, ref: Reference,
               starts: ColdStarts, rss_mb: float, log) -> Dict[str, float]:
    """wall_s and sim_s_per_host_s from untraced runs for `seconds`."""
    raw, scaled = [], []
    deadline = time.perf_counter() + seconds
    while len(scaled) < MIN_UNTRACED_RUNS or time.perf_counter() < deadline:
        rc, text, elapsed, at_ref = run_in_process(argv)
        ref.record(f"timed run {len(scaled) + 1}", rc, text)
        raw.append(elapsed)
        scaled.append(at_ref)
    wall = summary(scaled)
    rate = summary([workload.sim_seconds / w for w in scaled])
    setup = summary(starts.scaled)
    for name, (q1, med, q3), n in (("wall_s", wall, len(scaled)),
                                   ("sim_s_per_host_s", rate, len(scaled)),
                                   ("setup_s", setup, len(starts.scaled)),
                                   ("wall_s, raw host seconds", summary(raw), len(raw)),
                                   ("setup_s, raw host seconds", summary(starts.raw), len(starts.raw))):
        log(f"  {name}: median {med:.6g}  quartiles [{q1:.6g}, {q3:.6g}]  n={n}")
    log(f"  peak_rss_mb: {rss_mb:.2f} (plain CLI process)")
    return {"wall_s": wall[1], "sim_s_per_host_s": rate[1], "setup_s": setup[1],
            "peak_rss_mb": rss_mb}


def per_layer(argv: List[str], seconds: float, ref: Reference, starts: ColdStarts,
              log) -> Dict[str, float]:
    """Layer figures from traced runs alternating with untraced ones for
    `seconds`, then the per-call microbenchmark."""
    from layers import Tracer
    from micro import run_micro

    untraced, traced, layer_runs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(layer_runs) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        rc, text, _, at_ref = run_in_process(argv)
        ref.record(f"untraced run {len(untraced) + 1}", rc, text)
        untraced.append(at_ref)
        with Tracer() as tracer:
            rc, text, _, at_ref = run_in_process(argv)
        layer = tracer.layer_metrics()
        # boundary counts of the traced run against the reference run's Sim state
        counts = dict(tracer.exact_counts(), **csv_counts(text),
                      **{k: layer[k] for k in ("tsch.resyncs", "gait.setpoints")})
        ref.record(f"traced run {len(layer_runs) + 1}", rc, text,
                   differs(ref.counts, counts) + [f"not hooked: {m}" for m in tracer.missing])
        layer.update(counts)
        layer_runs.append(layer)
        traced.append(at_ref)
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics["cli.import_s"] = statistics.median(starts.imports)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    log(f"  tracing overhead: traced {statistics.median(traced):.4f} s vs untraced "
        f"{statistics.median(untraced):.4f} s at reference speed "
        f"(+{metrics['trace.overhead_frac']:.1%}), {len(layer_runs)} traced runs")
    log("  heaviest spans (parent -> child, last traced run):")
    for line in tracer.top_edges():
        log(f"    {line}")
    micro, micro_bad = run_micro()
    ref.tally.record("microbenchmark", micro_bad)
    metrics.update(micro)
    return metrics


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            tally: Tally, log) -> Dict[str, float]:
    argv = workload.argv(seed)
    log(f"workload {workload.name}: hexsync {' '.join(argv)}")
    starts = ColdStarts(argv, tally)
    plain_csv, rss_mb = plain_cli(argv, tally)
    ref = Reference(workload, argv, plain_csv, tally)
    if traced:
        return per_layer(argv, seconds, ref, starts, log)
    return end_to_end(workload, argv, seconds, ref, starts, rss_mb, log)


# -- command line ----------------------------------------------------------

def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "hexsync", "cli.py")):
        print(f"perfbench: no hexsync sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hexsync

    if not os.path.abspath(hexsync.__file__).startswith(os.path.join(SRC, "")):
        print(f"perfbench: imported hexsync from {hexsync.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def log(line: str) -> None:
        print(line, flush=True)

    # One CPU for this process and its children: no migrations, and the
    # calibration kernel measures the CPU the measured work runs on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    log("host " + json.dumps(dict(host_metadata(), pinned_cpu=cpu), sort_keys=True))
    tally = Tally()
    results: Dict[str, Dict[str, object]] = {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        measured = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), tally, log)
        prefix = f"{name}/" if args.workload == "all" else ""
        for m in wanted:
            results[prefix + m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    failed_frac = tally.failed / tally.attempted
    log(f"failed_frac: {failed_frac:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    for line in tally.violations[:20]:
        log(f"  FAILED {line}")
    for key, value in results.items():
        log(f"  {key}: {value['value']:.6g} {value['unit']}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
