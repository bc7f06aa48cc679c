"""Mutation gate: each mutant below must fail at least one of its named tests.

    python tests/mutants.py

Run it from anywhere; it needs only pytest and hypothesis. For each mutant
the runner copies src/ into a fresh temporary directory, replaces the
mutant's exact text in one file and runs the mutant's tests with pytest,
stopping at the first failure, against that copy. A target text that is
missing, or occurs more than once, fails the gate before any test runs, so
a change that moves the code must re-anchor its mutants rather than skip
them. Before the mutants, the named tests run once against an unmutated
copy and must pass, so a kill is the mutant's doing. The gate exits 1 when
a mutant survives or a target text is not found exactly once.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

REPO = Path(__file__).resolve().parents[1]
# a mutant can loop or grow without bound, so each pytest run is capped: an
# allocation beyond the address space fails its test, and a run that times
# out kills nothing
MEMORY_BYTES = 2 * 1024**3
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str     # relative to src/hexsync
    find: str     # must occur exactly once in the file
    replace: str
    tests: Tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    # the one window bound (Sim._window_last)
    Mutant("window ignores run_until's bound", "simnet.py",
           "min(end, heap[0][0] - 1) if heap else end", "heap[0][0] - 1 if heap else end",
           ("tests/test_sampler.py::test_window_sampler_matches_per_sample_heap",
            "tests/test_sampler.py::test_pause_holds_exactly_the_samples_up_to_its_bound")),
    Mutant("window takes a sample at the heap head's time", "simnet.py",
           "heap[0][0] - 1", "heap[0][0]",
           ("tests/test_sampler.py::test_window_sampler_matches_per_sample_heap",)),
    # the decentralized window sampler (Sim._handle_samples)
    Mutant("window ignores the heap head", "simnet.py",
           "(self._window_last() - t) // period", "(self._t_end - t) // period",
           ("tests/test_sampler.py::test_window_sampler_matches_per_sample_heap",
            "tests/test_sampler.py::test_pause_holds_exactly_the_samples_up_to_its_bound")),
    Mutant("a one-sample window's error is off by 1 us", "simnet.py",
           "append((t / D, k, err, resync))", "append((t / D, k, err + (n == 1), resync))",
           ("tests/test_sampler.py::test_window_sampler_matches_per_sample_heap",)),
    Mutant("a decentralized sample is rounded to the CSV's decimals", "simnet.py",
           "append((t / D, k, err, resync))", "append((round(t / D, 6), k, round(err, 3), resync))",
           ("tests/test_timebase.py::test_sim_samples_match_reference_up_to_large_k",)),
    Mutant("a window subtracts its two period starts as floats", "simnet.py",
           "err = ((c2 + (a2 + b2 * q) // d2) * u2 - (c1 + (a1 + b1 * q) // d1) * u1) / D",
           "err = (c2 + (a2 + b2 * q) // d2) * u2 / D - (c1 + (a1 + b1 * q) // d1) * u1 / D",
           ("tests/test_timebase.py::test_sim_samples_match_reference_up_to_large_k",)),
    # a whole-tick window as an arithmetic progression (Sim._handle_samples)
    Mutant("a progression gives the first sample's flag to every sample", "simnet.py",
           "chain((resync,), repeat(0))", "repeat(resync)",
           ("tests/test_sampler.py::test_window_sampler_matches_per_sample_heap",)),
    Mutant("the re-queued k is off by one sample", "simnet.py",
           "t, k = t_next, k_next", "t, k = t_next, k_next + 1",
           ("tests/test_sampler.py::test_window_sampler_matches_per_sample_heap",)),
    Mutant("a zero-step progression emits one sample", "simnet.py",
           "repeat(num / D)", "(num / D,)",
           ("tests/test_sampler.py::test_window_sampler_matches_per_sample_heap",)),
    # the one rescale rule (Sim._rescale): every stored int over D times D' / D
    Mutant("a rescale leaves the gait period over the old D", "simnet.py",
           "self._period *= f", "pass",
           ("tests/test_simtime.py::test_rescale_scales_every_stored_int",)),
    Mutant("a rescale leaves the keep-alive period over the old D", "simnet.py",
           "self._keepalive *= f", "pass",
           ("tests/test_simtime.py::test_rescale_scales_every_stored_int",)),
    Mutant("a rescale leaves the tick units over the old D", "simnet.py",
           "for ints in (self._last_resync, self._tick_unit):",
           "for ints in (self._last_resync,):",
           ("tests/test_simtime.py::test_rescale_scales_every_stored_int",)),
    # the quarter grid (gait._quarter_grid) and its inverse
    Mutant("the grid's inverse counts a point due on the next tick", "gait.py",
           "* d - a - 1) // b", "* d - a) // b",
           ("tests/test_timebase.py::test_period_index_at_inverts_each_period_start",)),
    Mutant("arming makes the period in progress period 0", "gait.py",
           "arm_period_index=quarters // 4 + 1)", "arm_period_index=quarters // 4)",
           ("tests/test_timebase.py::test_local_periods_match_fraction_reference",
            "tests/test_timebase.py::test_gait_times_match_reference")),
    Mutant("a phase event is queued at its period's start", "simnet.py",
           "(a + b * (4 * k + last.phase_index)) // d", "(a + b * (4 * k)) // d",
           ("tests/test_simnet.py::test_phase_events_are_queued_at_each_phases_event_tick",
            "tests/test_golden.py::test_golden[trace_synchronized]")),
    # the phase window (Sim._handle_phases)
    Mutant("a child's next period is scheduled after its first phase", "simnet.py",
           "if not phases:  # the child's last phase", "if len(phases) == 1:  # the first",
           ("tests/test_phase_window.py::test_phase_window_matches_per_phase_heap",
            "tests/test_reference_sim.py::test_sim_matches_the_exact_twin")),
    Mutant("a tie between the children's phases runs m2 first", "simnet.py",
           "i = 1 if heads[1] < heads[0] else 0", "i = 1 if heads[1][0] <= heads[0][0] else 0",
           ("tests/test_phase_window.py::test_phase_window_matches_per_phase_heap",)),
    Mutant("phase window ignores the heap head", "simnet.py",
           "end = self._window_last()", "end = self._t_end",
           ("tests/test_phase_window.py::test_phase_window_matches_per_phase_heap",)),
    Mutant("a pending period is recomputed from the window-start form, not carried",
           "simnet.py", "forms: List[Optional[Tuple[int, int, int, int]]] = [None, None]\n",
           "forms = [gaitmod.event_tick_form(c) for c in children]\n"
           "        for phases, (c, a, b, d) in zip(pending, forms):\n"
           "            phases[:] = [(c + (a + b * (4 * k + e.phase_index)) // d, s, k, e)\n"
           "                         for _, s, k, e in phases]\n",
           ("tests/test_phase_window.py::test_phase_window_matches_per_phase_heap",)),
    Mutant("phases stop consuming seq", "simnet.py",
           "self._seq = seq + 2", "self._seq = seq",
           ("tests/test_simnet.py::test_phase_events_are_queued_at_each_phases_event_tick",
            "tests/test_phase_window.py::test_phase_window_matches_per_phase_heap")),
    # the gait table
    Mutant("a hip sign flipped in the table", "gait.py",
           "(1, -30.0), (3, -30.0), (5, -30.0)", "(1, -30.0), (3, 30.0), (5, -30.0)",
           ("tests/test_gait.py::test_schedule_matches_paper_gait",)),
    # the setpoint path: servo_trace's instants and the CSV's suffix cache
    Mutant("an instant's rows left unsorted by servo id", "gait.py",
           "key=itemgetter(1))))", "key=lambda row: 0)))",
           ("tests/test_gait.py::test_servo_trace_merges_a_plain_record_into_instants",
            "tests/test_golden.py::test_golden[trace_synchronized]",
            "tests/test_setpoint_path.py::test_trace_and_csv_match_reference[synchronized]")),
    Mutant("equal-time groups left unmerged", "gait.py",
           "if t == last:", "if False:",
           ("tests/test_gait.py::test_servo_trace_merges_a_plain_record_into_instants",
            "tests/test_golden.py::test_golden[trace_centralized]",
            "tests/test_setpoint_path.py::test_trace_and_csv_match_reference[centralized]")),
    Mutant("the CSV's suffix cache lets its rows tuples go", "cli.py",
           "hit = suffixes[id(rows)] = (rows, tuple(", "hit = suffixes[id(rows)] = (None, tuple(",
           ("tests/test_setpoint_path.py::test_csv_formats_each_row_as_reference",)),
    # the one runner (experiment.run_sim)
    Mutant("run_sim never queues the Stop", "experiment.py",
           "sim.inject_command(Verb.STOP, stop_s)", "pass",
           ("tests/test_experiment.py::test_run_sim_queues_the_stop_at_stop_s[synchronized]",
            "tests/test_golden.py::test_golden[trace_synchronized]")),
    Mutant("a setpoint run with no samples raises", "experiment.py",
           "if not (emit_setpoints or sim.samples):", "if not sim.samples:",
           ("tests/test_experiment.py::test_a_setpoint_run_without_samples_returns[synchronized]",)),
    Mutant("a sample run with no samples returns", "experiment.py",
           "if not (emit_setpoints or sim.samples):", "if False:",
           ("tests/test_cli.py::test_run_ending_before_first_sample_exits_one",)),
    # the CSV blocks (cli._blocks, cli.servo_csv_lines)
    Mutant("the final partial block is dropped", "cli.py",
           "for i in range(0, len(rows), WRITE_CHUNK_LINES):",
           "for i in range(0, len(rows) - len(rows) % WRITE_CHUNK_LINES, WRITE_CHUNK_LINES):",
           ("tests/test_csv_blocks.py::test_trace_blocks_match_reference",)),
    Mutant("a block's rows are joined without newlines", "cli.py",
           'block_format = "\\n".join([row_format] * size)',
           'block_format = "".join([row_format] * size)',
           ("tests/test_csv_blocks.py::test_trace_blocks_match_reference",)),
    Mutant("a trace row's error is formatted to 2 decimals", "cli.py",
           '"%.6f,%d,%.3f,%d"', '"%.6f,%d,%.2f,%d"',
           ("tests/test_csv_blocks.py::test_trace_blocks_match_reference",)),
    Mutant("a servo block is cut only after it passes the block size", "cli.py",
           "if count + n > WRITE_CHUNK_LINES and block:", "if count > WRITE_CHUNK_LINES and block:",
           ("tests/test_csv_blocks.py::test_servo_blocks_end_on_an_instant",)),
    # a --config file's lines as flags (cli._config_flags, cli.dispatch)
    Mutant("the file's flags are spliced after argv's, so the file wins", "cli.py",
           "[argv[0], *_config_flags(args.config, args.subcommand), *argv[1:]]",
           "[*argv, *_config_flags(args.config, args.subcommand)]",
           ("tests/test_cli.py::test_config_file_defaults_with_flag_override",
            "tests/test_cli.py::test_abbreviated_or_joined_flag_beats_config_file")),
    Mutant("a false flag value is spliced as the bare flag", "cli.py",
           'flags[dest] = option if flag else ""', "flags[dest] = option",
           ("tests/test_cli.py::test_config_file_sets_a_flag",)),
    Mutant("a file value is spliced as --key value, two tokens", "cli.py",
           "return [f for f in flags.values() if f]",
           'return [t for f in flags.values() if f for t in f.split("=", 1)]',
           ("tests/test_cli.py::test_config_value_starting_with_a_dash_is_the_value",)),
    Mutant("dispatch builds its own parser", "cli.py",
           "args = _PARSER.parse_args(argv)", "args = _build_parser()[0].parse_args(argv)",
           ("tests/test_cli.py::test_dispatch_builds_no_parser",)),
    # a run setting not given takes its config class's default (cli._params_from_args)
    Mutant("the jitter-s flag reaches no config field", "cli.py",
           '"jitter_s": "jitter_bound_s", ', "",
           ("tests/test_cli.py::test_each_run_setting_changes_only_its_field[run-jitter-s-argv]",
            "tests/test_cli.py::test_every_option_reaches_a_config_field_or_the_cli")),
    Mutant("a setting not given reaches its config class as None", "cli.py",
           " if value is not None}", "}",
           ("tests/test_cli.py::test_flag_defaults_are_the_config_objects_defaults"
            "[argv0-SchemeId.S2_SYNCHRONIZED]",
            "tests/test_cli.py::test_each_run_setting_changes_only_its_field[run-seed-argv]")),
    Mutant("open-loop takes SchemeParams's hip clock", "cli.py",
           'given.setdefault("ppm_m1", -5.0)', "pass",
           ("tests/test_cli.py::test_flag_defaults_are_the_config_objects_defaults"
            "[argv3-SchemeId.S1_OPEN_LOOP]",)),
    Mutant("a command without --scheme runs open-loop", "cli.py",
           'given.get("scheme", SchemeId.S2_SYNCHRONIZED.value)',
           'given.get("scheme", SchemeId.S1_OPEN_LOOP.value)',
           ("tests/test_cli.py::test_flag_defaults_are_the_config_objects_defaults"
            "[argv1-SchemeId.S2_SYNCHRONIZED]",)),
    # the frame draw (simnet._draw)
    Mutant("a draw reads the digest's bytes 1-8", "simnet.py",
           "_unpack_u64(h.digest())", "_unpack_u64(h.digest(), 1)",
           ("tests/test_simnet.py::test_draw_is_the_sha256_of_seed_stream_and_index",)),
    # commands
    Mutant("a Start while armed re-arms the gait", "simnet.py",
           "return  # a Start while armed is a no-op", "pass",
           ("tests/test_simnet.py::test_a_start_while_armed_is_a_no_op",)),
    # frame delivery actions
    Mutant("a centralized Command frame is applied on the child", "simnet.py",
           "(child, action, verb))", "(child, Sim._apply_command, verb))",
           ("tests/test_simnet.py::test_stop_quiesces_gait[centralized]",
            "tests/test_golden.py::test_golden[run_centralized]")),
    Mutant("a Command frame's delivery loses its verb", "simnet.py",
           "(child, action, verb))", "(child, action, None))",
           ("tests/test_simnet.py::test_stop_quiesces_gait[synchronized]",)),
    Mutant("the sample is recorded on the earlier servo frame", "simnet.py",
           "later_args = (later, Sim._record_sample,", "first_args = (first, Sim._record_sample,",
           ("tests/test_simnet.py::test_centralized_sample_is_recorded_at_the_later_delivery",)),
    Mutant("the sample's time is its period's earlier delivery", "simnet.py",
           "(late / D, k,", "(early / D, k,",
           ("tests/test_simnet.py::test_centralized_samples_are_the_exact_delivery_gaps",)),
    Mutant("the relay records only even periods' samples", "simnet.py",
           "if sampling:", "if sampling and k % 2 == 0:",
           ("tests/test_cli.py::test_run_records_one_sample_per_period[link0-centralized]",
            "tests/test_relay.py::test_window_relay_matches_per_period_heap")),
    Mutant("a centralized sample's error is rounded to the CSV's decimals", "simnet.py",
           "k, (d2 - d1) * 10**6 / D)", "k, round((d2 - d1) * 10**6 / D, 3))",
           ("tests/test_simnet.py::test_centralized_samples_are_the_exact_delivery_gaps",)),
    Mutant("a keep-alive delivery re-queues nothing", "simnet.py",
           "(child, Sim._requeue_keepalive, None)", "(child, None, None)",
           ("tests/test_simnet.py::test_keepalive_sent_one_period_after_last_resync",)),
    # the windowed centralized relay (Sim._handle_root_period)
    Mutant("relay window ignores the heap head", "simnet.py",
           "last = self._window_last()\n", "last = self._t_end\n",
           ("tests/test_relay.py::test_window_relay_matches_per_period_heap",)),
    Mutant("relay window resyncs in send order, not delivery order", "simnet.py",
           "            self._t = early\n            deliver(*first_args)\n"
           "            self._t = late\n            deliver(*later_args)\n",
           "            for d, args in sorted([(early, first_args), (late, later_args)],\n"
           "                                  key=lambda e: e[1][0] is not child1):\n"
           "                self._t = d\n                deliver(*args)\n",
           ("tests/test_relay.py::test_window_relay_matches_per_period_heap",)),
    Mutant("relay window delivers m2 first on a tie", "simnet.py",
           "if d1 <= d2:", "if d1 < d2:",
           ("tests/test_relay.py::test_window_relay_matches_per_period_heap",)),
    Mutant("an inline relay delivery runs at its period's send instant", "simnet.py",
           "self._t = early", "self._t = t",
           ("tests/test_relay.py::test_window_relay_matches_per_period_heap",)),
    Mutant("relay window delivers inline a frame that lands after the next root period",
           "simnet.py", "late > last or late > t_next:", "late > last:",
           ("tests/test_relay.py::test_window_relay_matches_per_period_heap",)),
    Mutant("a period's two servo frames share one message index", "simnet.py",
           "d2 = delivery(child2, t, D)",
           "self._msg_index -= 1\n            d2 = delivery(child2, t, D)",
           ("tests/test_relay.py::test_window_relay_matches_per_period_heap",)),
    # the keep-alive window (Sim._handle_keepalive_due) and the resync it makes
    Mutant("keep-alive window delivers inline at the heap head's own time", "simnet.py",
           "if arrives <= self._window_last():", "if arrives <= self._window_last() + 1:",
           ("tests/test_keepalive.py::test_keepalive_window_matches_per_frame_heap",)),
    Mutant("keep-alive window counts the next due from the send, not the delivery",
           "simnet.py", "self._t = arrives\n", "pass\n",
           ("tests/test_keepalive.py::test_keepalive_window_matches_per_frame_heap",)),
    Mutant("a keep-alive is sent at a due an exchange since moved", "simnet.py",
           "if due > self._t:", "if False:",
           ("tests/test_tsch.py::test_keepalive_due_from_last_resync",)),
    Mutant("a resync reads the parent's first boundary at its current tick, not the next",
           "tsch.py", "(p_clock.rate_den * den) + 1)", "(p_clock.rate_den * den))",
           ("tests/test_tsch.py::test_resync_matches_reference_chain",)),
)


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def pytest_run(src: Path, tests, workdir: Path) -> int:
    """Run the tests against the package under src; pytest's exit code, or
    -1 when the run times out.

    pytest runs in workdir, so its and hypothesis's caches stay out of the
    repository, and the config's pythonpath is pointed at the copy."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--no-header", "-p", "no:cacheprovider",
           "-c", str(REPO / "pyproject.toml"), "--rootdir", str(REPO),
           "-o", f"pythonpath={src}", *(str(REPO / t) for t in tests)]
    try:
        return subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
                              preexec_fn=limit_memory).returncode
    except subprocess.TimeoutExpired:
        return -1


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    anchored = True
    for m in MUTANTS:
        n = (REPO / "src" / "hexsync" / m.path).read_text().count(m.find)
        if n != 1:
            print(f"NOT ANCHORED  {m.name}: {m.find!r} occurs {n} times in {m.path}")
            anchored = False
    if not anchored:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        all_tests = sorted({t for m in MUTANTS for t in m.tests})
        if pytest_run(copy_src(base), all_tests, base) != 0:
            print("the named tests fail on the unmutated source; fix that first")
            return 1
        survivors = []
        for i, m in enumerate(MUTANTS):
            work = Path(tmp) / f"m{i}"
            src = copy_src(work)
            target = src / "hexsync" / m.path
            target.write_text(target.read_text().replace(m.find, m.replace))
            killed = pytest_run(src, m.tests, work) == 1
            print(f"{'killed  ' if killed else 'SURVIVED'}  {m.name}")
            if not killed:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
