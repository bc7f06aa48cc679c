"""Command-line frontend: run schemes, sweep resync periods, dump servo traces.

Subcommands:
  run    -- one scheme run; writes the error-trace CSV (--plot adds a
            fixed-size ASCII plot of it on stderr)
  sweep  -- synchronized-scheme runs over several resync periods; writes a table
  trace  -- one run that records servo setpoints, and no error samples;
            writes the setpoint CSV

Defaults reproduce the two published 400 s comparison runs. A run setting
that is not given reaches SchemeParams, GaitConfig or LinkModel unset and
takes that class's default; the one default of the CLI's own is open-loop's
-5 ppm hip clock, the published open-loop run's. An optional line-oriented
key=value file (--config) supplies flags, read as if placed right after the
subcommand, so flags given on the command line win. The parser is built
once, when the module loads, and parsing never changes it.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .experiment import SweepRow, run_sim, sweep_resync_period
from .gait import GaitConfig, servo_trace
from .simnet import LinkModel, SchemeId, SchemeParams

# the config field of each flag whose dest is not that field's name
_FIELD_OF_DEST = {"gait_period_s": "period_s", "gait_period_slots": "period_slots",
                  "jitter_s": "jitter_bound_s", "drop_prob": "drop_probability"}

TRACE_HEADER = "true_time_s,period_index,error_us,resync"
SWEEP_HEADER = "resync_period_s,max_abs_error_us,analytic_bound_us"
SERVO_HEADER = "true_time_s,controller,servo_id,angle_deg"
WRITE_CHUNK_LINES = 8192  # rows in one CSV block, written in one write
# a --config file's spellings of a flag's two values
_FLAG_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The hexsync argument parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="hexsync",
        description="Simulate decentralized hexapod gait control over a "
                    "time-synchronized three-node wireless network.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # a run setting's flag has no default: what argv and --config leave
    # unset takes its config class's default (_params_from_args)
    def add_scheme(p):
        p.add_argument("--scheme", choices=sorted(s.value for s in SchemeId))

    def add_common(p):
        p.add_argument("--duration-s", type=float)
        p.add_argument("--ppm-m1", type=float,
                       help="hip controller clock error (default: per scheme)")
        p.add_argument("--ppm-m2", type=float)
        p.add_argument("--ppm-root", type=float)
        p.add_argument("--resync-period-s", type=float)
        p.add_argument("--gait-period-s", type=float)
        p.add_argument("--gait-period-slots", type=int)
        p.add_argument("--base-latency-s", type=float)
        p.add_argument("--jitter-s", type=float)
        p.add_argument("--drop-prob", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--config", help="key=value file of flags; the command line's win")

    run_p = sub.add_parser("run", help="run one scheme and write its error trace")
    add_scheme(run_p)
    add_common(run_p)
    run_p.add_argument("--plot", action="store_true",
                       help="print an ASCII error-vs-time plot to stderr")

    sweep_p = sub.add_parser("sweep", help="sweep the worst-case resync period")
    add_common(sweep_p)
    sweep_p.add_argument("--periods", default="30,10",
                         help="comma-separated resync periods in seconds")

    trace_p = sub.add_parser("trace", help="write the servo setpoint trace")
    add_scheme(trace_p)
    add_common(trace_p)
    trace_p.add_argument("--stop-s", type=float,
                         help="inject a Stop command at this time")
    return parser, sub.choices


_PARSER, _SUBPARSERS = _build_parser()


def _config_flags(path: str, subcommand: str) -> List[str]:
    """The key=value lines of a --config file, as subcommand's flags.

    Each value line becomes one --key=value token, so a value that starts
    with '-' stays the option's value, and argparse converts and checks it
    as it does a command-line flag. A flag's value is 1, true or yes, which
    gives the bare flag, or 0, false or no, which gives nothing, in any
    case; anything else is an error. A later line for a key replaces an
    earlier one. A key that only another subcommand takes is skipped (sweep
    has no --scheme); a line without '=' or a key no subcommand takes is an
    error.
    """
    options = {name: vars(p.parse_args([])) for name, p in _SUBPARSERS.items()}
    own = options[subcommand]
    flags: Dict[str, str] = {}  # by dest; "" for a cleared flag
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip()
            dest = key.replace("-", "_")
            if not any(dest in o for o in options.values()):
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            if dest in own:
                option = "--" + key.replace("_", "-")
                value = value.strip()
                if isinstance(own[dest], bool):
                    flag = _FLAG_VALUES.get(value.lower())
                    if flag is None:
                        raise ValueError(f"{path}:{lineno}: {key!r} takes 1/true/yes "
                                         f"or 0/false/no, got {value!r}")
                    flags[dest] = option if flag else ""
                else:
                    flags[dest] = f"{option}={value}"
    return [f for f in flags.values() if f]


def _params_from_args(args: argparse.Namespace) -> Tuple[SchemeId, SchemeParams]:
    """Build the run's parameters from the settings argv and --config gave;
    each one not given takes its config class's default. GaitConfig,
    LinkModel and SchemeParams reject the values they cannot run, the
    non-finite ones included."""
    given = {_FIELD_OF_DEST.get(dest, dest): value
             for dest, value in vars(args).items() if value is not None}
    # sweep has no --scheme: it always runs the synchronized scheme
    scheme = SchemeId(given.get("scheme", SchemeId.S2_SYNCHRONIZED.value))
    if scheme is SchemeId.S1_OPEN_LOOP:  # the published open-loop run's hip clock
        given.setdefault("ppm_m1", -5.0)

    def fields(cls) -> dict:
        return {name: given[name] for name in cls._fields if name in given}

    return scheme, SchemeParams(gait=GaitConfig(**fields(GaitConfig)),
                                link=LinkModel(**fields(LinkModel)), **fields(SchemeParams))


# -- CSV emission ----------------------------------------------------------

def trace_csv_lines(samples: Sequence[Tuple[float, int, float, int]]) -> Iterator[str]:
    """A run's error samples as CSV blocks: the header, then their rows,
    WRITE_CHUNK_LINES to a block (fewer in the last), newline-separated, so
    that joining the blocks with newlines gives one row per sample. Each
    sample carries its own resync flag. The run's samples are unrounded: a
    row rounds its time to 6 decimals and its error to 3.

    A block is one % over the flat tuple of its samples' fields; %-format
    and format() render a float through the same routine, so a row reads
    as f"{t:.6f},{k},{err:.3f},{resync}" would, for int k and resync.
    """
    yield TRACE_HEADER
    yield from _blocks("%.6f,%d,%.3f,%d", samples)


def sweep_csv_lines(rows: Sequence[SweepRow]) -> Iterator[str]:
    """The sweep as CSV blocks, as trace_csv_lines gives them: the header,
    then one row per SweepRow, its period to 6 decimals and its two errors
    to 3."""
    yield SWEEP_HEADER
    yield from _blocks("%.6f,%.3f,%.3f", rows)


def _blocks(row_format: str, rows: Sequence[tuple]) -> Iterator[str]:
    """rows formatted with row_format, WRITE_CHUNK_LINES rows to a
    newline-separated block (fewer in the last), one % per block."""
    size = 0  # the rows block_format takes; built once per block size
    for i in range(0, len(rows), WRITE_CHUNK_LINES):
        chunk = rows[i:i + WRITE_CHUNK_LINES]
        if len(chunk) != size:
            size = len(chunk)
            block_format = "\n".join([row_format] * size)
        yield block_format % tuple(chain.from_iterable(chunk))


def servo_csv_lines(trace) -> Iterator[str]:
    """The trace's setpoints as CSV blocks: the header, then blocks of
    whole instants' rows, newline-separated, so that joining the blocks
    with newlines gives one row per setpoint, in the order given. A block
    holds at most WRITE_CHUNK_LINES rows, unless one instant holds more.

    trace holds (true_time_s, rows) entries, as gait.servo_trace returns
    them: rows are (controller, servo_id, angle_deg) rows that share the
    entry's time. A row is its time field plus a ",controller,servo_id,angle"
    suffix. An entry's time is formatted once and joined between its
    rows' suffixes. The gait emits a few rows tuples over and over, so each
    tuple's suffixes are formatted once per call, cached by the tuple's
    identity; the cache keeps each tuple alive, so no identity in it can be
    reused.
    """
    yield SERVO_HEADER
    block: List[str] = []
    append = block.append
    count = 0  # the rows in block
    # id(rows) -> (rows, their suffixes)
    suffixes: Dict[int, Tuple[tuple, Tuple[str, ...]]] = {}
    for t, rows in trace:
        hit = suffixes.get(id(rows))
        if hit is None:
            # _value_ is the member's plain attribute; .value is a Python-level descriptor
            hit = suffixes[id(rows)] = (rows, tuple(
                f",{controller._value_},{servo_id},{angle:.3f}"
                for controller, servo_id, angle in rows))
        n = len(hit[1])
        if count + n > WRITE_CHUNK_LINES and block:
            yield "\n".join(block)
            block.clear()
            count = 0
        time_field = f"{t:.6f}"
        append(time_field + ("\n" + time_field).join(hit[1]))
        count += n
    if block:
        yield "\n".join(block)


def _write_lines(blocks: Iterable[str], path: Optional[str]) -> None:
    """Write each block and a newline to path, or to stdout if it is None,
    one write per block as it arrives, so no one string holds the CSV."""
    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        for block in blocks:
            fh.write(block + "\n")


# -- plotting --------------------------------------------------------------

PLOT_WIDTH, PLOT_HEIGHT = 72, 16  # the plot's canvas, in characters


def render_ascii_plot(samples: Sequence[Tuple[float, int, float, int]]) -> str:
    """Monospaced scatter of the samples' error vs time; cosmetic only."""
    if not samples:
        return "(no samples)"
    ts = [s[0] for s in samples]
    es = [s[2] for s in samples]
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
    argv = list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config:
            # the file's flags go right after the subcommand (the top-level
            # parser takes no option but -h, so argv[0] is it); argparse keeps
            # an option's last value, so argv's own flags win, however spelled
            args = _PARSER.parse_args(
                [argv[0], *_config_flags(args.config, args.subcommand), *argv[1:]])
        scheme, params = _params_from_args(args)
        if args.subcommand == "run":
            samples = run_sim(scheme, params).samples
            _write_lines(trace_csv_lines(samples), args.out)
            if args.plot:
                print(render_ascii_plot(samples), file=sys.stderr)
        elif args.subcommand == "sweep":
            periods = [float(p) for p in args.periods.split(",") if p.strip()]
            rows = sweep_resync_period(periods, params)
            _write_lines(sweep_csv_lines(rows), args.out)
        elif args.subcommand == "trace":
            trace = servo_trace(run_sim(scheme, params, True, args.stop_s).servo_setpoints.groups)
            _write_lines(servo_csv_lines(trace), args.out)
        return 0
    except SystemExit as exc:
        # only argparse exits: 0 after --help, 2 on a usage error
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"hexsync: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
