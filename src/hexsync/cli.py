"""Command-line frontend: run schemes, sweep resync periods, dump servo traces.

Subcommands:
  run    -- one scheme run; writes the error-trace CSV (--plot adds a
            fixed-size ASCII plot of it on stderr)
  sweep  -- synchronized-scheme runs over several resync periods; writes a table
  trace  -- one run with servo setpoints enabled; writes the setpoint CSV

Defaults reproduce the two published 400 s comparison runs. An optional
line-oriented key=value file can set defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from .experiment import (
    ErrorTrace,
    SchemeId,
    SchemeParams,
    SweepRow,
    build_sim,
    run_scheme,
    sweep_resync_period,
)
from .gait import GaitConfig, servo_trace
from .simnet import LinkModel, Verb

_SCHEME_BY_NAME = {s.value: s for s in SchemeId}
_DEFAULT_PPM_M1 = {
    SchemeId.S0_CENTRALIZED: -3.0,
    SchemeId.S1_OPEN_LOOP: -5.0,
    SchemeId.S2_SYNCHRONIZED: -3.0,
}

TRACE_HEADER = "true_time_s,period_index,error_us,resync"
SWEEP_HEADER = "resync_period_s,max_abs_error_us,analytic_bound_us"
SERVO_HEADER = "true_time_s,controller,servo_id,angle_deg"


def _build_parser(explicit_only: bool = False) -> argparse.ArgumentParser:
    """The hexsync argument parser. With explicit_only, every subcommand
    argument defaults to SUPPRESS, so a parse returns only what argv set."""
    parser = argparse.ArgumentParser(
        prog="hexsync",
        description="Simulate decentralized hexapod gait control over a "
                    "time-synchronized three-node wireless network.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(p, *flags, **kwargs):
        if explicit_only:
            kwargs["default"] = argparse.SUPPRESS
        p.add_argument(*flags, **kwargs)

    def add_scheme(p):
        add(p, "--scheme", choices=sorted(_SCHEME_BY_NAME), default="synchronized")

    def add_common(p):
        add(p, "--duration-s", type=float, default=400.0)
        add(p, "--ppm-m1", type=float, default=None,
            help="hip controller clock error (default: per scheme)")
        add(p, "--ppm-m2", type=float, default=0.0)
        add(p, "--ppm-root", type=float, default=0.0)
        add(p, "--resync-period-s", type=float, default=30.0)
        add(p, "--gait-period-s", type=float, default=1.0)
        add(p, "--gait-period-slots", type=int, default=68)
        add(p, "--base-latency-s", type=float, default=0.0)
        add(p, "--jitter-s", type=float, default=0.015)
        add(p, "--drop-prob", type=float, default=0.0)
        add(p, "--seed", type=int, default=1)
        add(p, "--sample-every", type=int, default=1)
        add(p, "--out", default=None, help="output CSV path (default stdout)")
        add(p, "--config", default=None,
            help="key=value file supplying flag defaults")

    run_p = sub.add_parser("run", help="run one scheme and write its error trace")
    add_scheme(run_p)
    add_common(run_p)
    add(run_p, "--plot", action="store_true",
        help="print an ASCII error-vs-time plot to stderr")

    sweep_p = sub.add_parser("sweep", help="sweep the worst-case resync period")
    add_common(sweep_p)
    add(sweep_p, "--periods", default="30,10",
        help="comma-separated resync periods in seconds")

    trace_p = sub.add_parser("trace", help="write the servo setpoint trace")
    add_scheme(trace_p)
    add_common(trace_p)
    add(trace_p, "--stop-s", type=float, default=None,
        help="inject a Stop command at this time")
    return parser


def _apply_config_file(args: argparse.Namespace, argv: Sequence[str]) -> None:
    """Fill in defaults from a key=value file; explicit flags keep priority."""
    if not args.config:
        return
    # argparse itself says which flags argv set, so an abbreviation such as
    # --dur for --duration-s counts as explicit too
    explicit = set(vars(_build_parser(explicit_only=True).parse_args(list(argv))))
    # a file value is converted as argparse converts the flag's argv value
    subparsers = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    types = {a.dest: a.type for a in subparsers.choices[args.subcommand]._actions}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in explicit or not hasattr(args, key):
                continue
            value = value.strip()
            if isinstance(getattr(args, key), bool):
                setattr(args, key, value.lower() in ("1", "true", "yes"))
            else:
                setattr(args, key, (types.get(key) or str)(value))


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"--{flag} must be a finite number, got {value}")
    return value


def _params_from_args(args: argparse.Namespace) -> Tuple[SchemeId, SchemeParams]:
    """Build the run's parameters. Values from argv and from --config both
    arrive here, so every non-finite number and unknown scheme is caught."""
    for key, value in vars(args).items():
        if isinstance(value, float):
            _finite(key.replace("_", "-"), value)
    # sweep has no --scheme: it always runs the synchronized scheme
    name = getattr(args, "scheme", SchemeId.S2_SYNCHRONIZED.value)
    if name not in _SCHEME_BY_NAME:
        raise ValueError(f"--scheme must be one of {', '.join(sorted(_SCHEME_BY_NAME))}, "
                         f"got {name!r}")
    scheme = _SCHEME_BY_NAME[name]
    ppm_m1 = args.ppm_m1 if args.ppm_m1 is not None else _DEFAULT_PPM_M1[scheme]
    gait = GaitConfig(period_slots=args.gait_period_slots,
                      period_s=args.gait_period_s)
    link = LinkModel(base_latency_s=args.base_latency_s,
                     jitter_bound_s=args.jitter_s,
                     drop_probability=args.drop_prob)
    params = SchemeParams(ppm_m1=ppm_m1, ppm_m2=args.ppm_m2,
                          ppm_root=args.ppm_root,
                          duration_s=args.duration_s,
                          resync_period_s=args.resync_period_s,
                          seed=args.seed, gait=gait, link=link,
                          sample_every=args.sample_every)
    return scheme, params


# -- CSV emission ----------------------------------------------------------

def trace_csv_lines(trace: ErrorTrace) -> List[str]:
    """The trace's samples as CSV rows; each sample carries its own resync flag."""
    lines = [TRACE_HEADER]
    for t, k, err, resync in trace.samples:
        lines.append(f"{t:.6f},{k},{err:.3f},{resync}")
    return lines


def write_trace_csv(trace: ErrorTrace, path: Optional[str]) -> None:
    _write_lines(trace_csv_lines(trace), path)


def read_trace_csv(path: str) -> List[Tuple[float, int, float, int]]:
    """Parse a trace CSV back into rows of ErrorTrace.samples' type:
    (true_time_s, period_index, error_us, resync)."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header: {header!r}")
        for line in fh:
            t, k, err, resync = line.strip().split(",")
            rows.append((float(t), int(k), float(err), int(resync)))
    return rows


def sweep_csv_lines(rows: Sequence[SweepRow]) -> List[str]:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(f"{row.resync_period_s:.6f},{row.max_abs_error_us:.3f},"
                     f"{row.analytic_bound_us:.3f}")
    return lines


def servo_csv_lines(setpoints) -> List[str]:
    lines = [SERVO_HEADER]
    append = lines.append
    last_t = time_field = None
    for t, controller, servo_id, angle in setpoints:
        if t != last_t:
            # setpoints come in runs of equal times: format each time once
            last_t = t
            time_field = f"{t:.6f}"
        # _value_ is the member's plain attribute; .value is a Python-level descriptor
        append(f"{time_field},{controller._value_},{servo_id},{angle:.3f}")
    return lines


def _write_lines(lines: List[str], path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# -- plotting --------------------------------------------------------------

PLOT_WIDTH, PLOT_HEIGHT = 72, 16  # the plot's canvas, in characters


def render_ascii_plot(trace: ErrorTrace) -> str:
    """Monospaced scatter of error vs time; cosmetic only."""
    if not trace.samples:
        return "(no samples)"
    ts = [s[0] for s in trace.samples]
    es = [s[2] for s in trace.samples]
    t_lo, t_hi = min(ts), max(ts)
    e_lo, e_hi = min(es), max(es)
    t_span = (t_hi - t_lo) or 1.0
    e_span = (e_hi - e_lo) or 1.0
    grid = [[" "] * PLOT_WIDTH for _ in range(PLOT_HEIGHT)]
    for t, e in zip(ts, es):
        col = min(PLOT_WIDTH - 1, int((t - t_lo) / t_span * (PLOT_WIDTH - 1)))
        row = min(PLOT_HEIGHT - 1, int((e_hi - e) / e_span * (PLOT_HEIGHT - 1)))
        grid[row][col] = "*"
    top = f"error_us  max={e_hi:.3f}"
    bottom = f"          min={e_lo:.3f}   t: {t_lo:.1f}..{t_hi:.1f} s"
    body = "\n".join("|" + "".join(row) for row in grid)
    return f"{top}\n{body}\n{bottom}"


# -- dispatch --------------------------------------------------------------

def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config_file(args, argv)
        scheme, params = _params_from_args(args)
        if args.subcommand == "run":
            result = run_scheme(scheme, params)
            write_trace_csv(result.trace, args.out)
            if args.plot:
                print(render_ascii_plot(result.trace), file=sys.stderr)
        elif args.subcommand == "sweep":
            periods = [_finite("periods", float(p))
                       for p in args.periods.split(",") if p.strip()]
            rows = sweep_resync_period(periods, params)
            _write_lines(sweep_csv_lines(rows), args.out)
        elif args.subcommand == "trace":
            sim = build_sim(scheme, params, emit_setpoints=True)
            if args.stop_s is not None:
                sim.inject_command(Verb.STOP, args.stop_s)
            setpoints = servo_trace(sim, params.duration_s)
            _write_lines(servo_csv_lines(setpoints), args.out)
        return 0
    except (OSError, ValueError) as exc:
        print(f"hexsync: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
