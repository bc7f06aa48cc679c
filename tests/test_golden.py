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
}


def test_corpus_has_one_file_per_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden(name, capsys):
    assert dispatch(COMMANDS[name].split()) == 0
    expected = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out.encode() == expected
