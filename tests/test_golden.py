"""Golden CSV corpus: every subcommand's output is pinned byte for byte.

Each file under tests/golden/ is the stdout of one `hexsync` command. A
golden file changes only together with a behaviour change named in
CHANGES.md; a refactor must leave every byte as it is.
"""

from pathlib import Path

import pytest

from hexsync.cli import dispatch

GOLDEN_DIR = Path(__file__).parent / "golden"

# Non-round ppm values carry ~70-bit Fraction denominators; drops, jitter
# and --stop-s cover retransmits, link latency and disarming.
COMMANDS = {
    "run_open_loop": "run --scheme open-loop --ppm-m1 -3.7 --ppm-m2 1.1 --duration-s 120",
    "run_synchronized": "run --scheme synchronized --ppm-m1 -3.7 --ppm-m2 1.1 "
                        "--drop-prob 0.2 --resync-period-s 10 --duration-s 120 --seed 7",
    "run_centralized": "run --scheme centralized --jitter-s 0.015 --drop-prob 0.1 "
                       "--duration-s 120 --seed 3",
    "sweep_synchronized": "sweep --periods 10,3,1 --ppm-m1 -3.7 --ppm-m2 1.1 "
                          "--drop-prob 0.1 --duration-s 60",
    "trace_centralized": "trace --scheme centralized --duration-s 20 --stop-s 12",
    "trace_open_loop": "trace --scheme open-loop --ppm-m1 -3.7 --duration-s 20 --stop-s 12",
    "trace_synchronized": "trace --scheme synchronized --drop-prob 0.1 "
                          "--duration-s 20 --stop-s 12",
    # command and end times off the whole-second grid, with a drifting root
    # and a gait period whose denominator no clock rate shares
    "trace_synchronized_offgrid": "trace --scheme synchronized --drop-prob 0.1 "
                                  "--duration-s 20.7 --stop-s 12.3",
    "run_centralized_offgrid": "run --scheme centralized --ppm-root 2.3 "
                               "--gait-period-s 0.7 --base-latency-s 0.0031 "
                               "--jitter-s 0.011 --drop-prob 0.3 --duration-s 60.1",
    # gait periods other than the defaults: 8 slots (120 ms) on the ASN, and
    # 0.7 s of local time on drifting clocks
    "trace_synchronized_short_period": "trace --scheme synchronized --gait-period-slots 8 "
                                       "--drop-prob 0.2 --jitter-s 0.011 "
                                       "--duration-s 12 --stop-s 9.4",
    "trace_open_loop_period_0p7": "trace --scheme open-loop --gait-period-s 0.7 "
                                  "--ppm-m1 -3.7 --ppm-m2 1.1 --duration-s 20",
    # a keep-alive every 10 ms under 30 ms jitter and 30% drops, on a
    # drifting root: 1,524 frames, some delivered before the heap's next
    # event and some after it
    "run_synchronized_keepalive": "run --scheme synchronized --ppm-m1 -3.7 --ppm-m2 1.1 "
                                  "--ppm-root 2.3 --resync-period-s 0.01 --jitter-s 0.03 "
                                  "--drop-prob 0.3 --duration-s 30 --seed 5",
    # a centralized servo trace on drifting clocks whose 50 ms gait period
    # is under 30 ms jitter and 30% drops: some periods' frames land after
    # the next period's start and some before it, and a Stop off the grid
    "trace_centralized_lossy": "trace --scheme centralized --ppm-m1 -3.7 --ppm-m2 1.1 "
                               "--ppm-root 2.3 --gait-period-s 0.05 --resync-period-s 0.5 "
                               "--jitter-s 0.03 --drop-prob 0.3 --duration-s 30 "
                               "--stop-s 17.3 --seed 3",
}


def test_corpus_has_one_file_per_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden(name, capsys):
    assert dispatch(COMMANDS[name].split()) == 0
    expected = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out.encode() == expected
