"""CLI dispatch, CSV formats, round-trips, reproducibility, plotting."""

import argparse
from types import SimpleNamespace

import pytest
from trace_csv import read_trace_csv

from hexsync import cli
from hexsync.cli import (
    SERVO_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    dispatch,
    render_ascii_plot,
    trace_csv_lines,
)
from hexsync.cli import _FIELD_OF_DEST, _PARSER, _SUBPARSERS, _params_from_args, _write_lines
from hexsync.gait import GaitConfig
from hexsync.simnet import LinkModel, SchemeId, SchemeParams


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = dispatch(list(argv) + ["--out", str(out)])
    return code, out


def test_help_exits_zero(capsys):
    assert dispatch(["run", "--help"]) == 0


def test_unknown_flag_exits_two(capsys):
    assert dispatch(["run", "--frobnicate"]) == 2


@pytest.mark.parametrize("subcommand", ["run", "sweep", "trace"])
def test_no_subcommand_takes_sample_every(capsys, subcommand):
    # a sample run records one sample per gait period, with no stride to set
    assert dispatch([subcommand, "--sample-every", "2"]) == 2
    assert "unrecognized arguments: --sample-every" in capsys.readouterr().err


def test_missing_subcommand_exits_two(capsys):
    assert dispatch([]) == 2


def test_invalid_value_exits_one(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "run", "--ppm-m1", "25")
    assert code == 1
    assert capsys.readouterr().err == (
        "hexsync: error: ppm_error 25.0 outside +/-10.0 ppm crystal tolerance\n")


def test_unwritable_output_exits_one(capsys):
    code = dispatch(["run", "--duration-s", "5", "--out", "/nonexistent/dir/x.csv"])
    assert code == 1


@pytest.mark.parametrize("argv,config", [
    (["run", "--duration-s", "inf"], None),
    (["run", "--jitter-s", "inf"], None),
    (["sweep", "--periods", "inf"], None),
    (["trace", "--stop-s", "inf"], None),
    (["run", "--gait-period-s", "nan"], None),
    (["trace"], "stop-s=inf\n"),
    (["run"], "duration-s=inf\n"),
    (["run", "--resync-period-s", "0", "--jitter-s", "0"], None),
    (["run", "--resync-period-s", "-1"], None),
    (["sweep", "--periods", "-5"], None),
    (["run", "--scheme", "open-loop", "--gait-period-s", "1e-300", "--duration-s", "1"], None),
    (["run", "--duration-s", "-5"], None),
    (["run", "--scheme", "centralized", "--base-latency-s", "1.7e308", "--jitter-s", "1.7e308",
      "--duration-s", "5"], None),
])
def test_bad_values_exit_one_without_traceback(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert dispatch(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hexsync: error:") and err.count("\n") == 1


def test_open_loop_run_reaches_two_ms(tmp_path):
    code, out = run_cli(tmp_path, "run", "--scheme", "open-loop",
                        "--duration-s", "400", "--ppm-m1", "-5")
    assert code == 0
    rows = read_trace_csv(str(out))
    assert abs(abs(rows[-1][2]) - 2000) < 62
    assert all(r[3] == 0 for r in rows)  # no resyncs in open loop


def test_synchronized_run_bounded_with_resync_marks(tmp_path):
    code, out = run_cli(tmp_path, "run", "--scheme", "synchronized",
                        "--resync-period-s", "30", "--duration-s", "400")
    assert code == 0
    rows = read_trace_csv(str(out))
    assert max(abs(r[2]) for r in rows) <= 122
    resync_rows = sum(r[3] for r in rows)
    assert 10 <= resync_rows <= 16  # ~every 30 s over 400 s


@pytest.mark.parametrize("scheme", ["centralized", "open-loop", "synchronized"])
@pytest.mark.parametrize("link", [[], ["--drop-prob", "0.2", "--jitter-s", "0.03"]])
def test_run_records_one_sample_per_period(tmp_path, scheme, link):
    # every gait period from period 0 on gives one row, in period order;
    # a dropped frame is retransmitted, so no centralized period is lost
    code, out = run_cli(tmp_path, "run", "--scheme", scheme, "--duration-s", "60", *link)
    assert code == 0
    indices = [r[1] for r in read_trace_csv(str(out))]
    assert len(indices) >= 55
    assert indices == list(range(len(indices)))


def test_run_with_one_sample_exits_zero(tmp_path):
    # the first sample lands at ~1.53 s: one row and no slope to fit
    code, out = run_cli(tmp_path, "run", "--duration-s", "2")
    assert code == 0
    assert len(read_trace_csv(str(out))) == 1


@pytest.mark.parametrize("period_s", ["0.01", "0.005", "0.001"])
def test_centralized_sub_slot_period_exits_zero(tmp_path, period_s):
    # servo commands of several periods land on one slot boundary, so whole
    # inter-resync windows share one sample time; the slope fit skips them
    code, out = run_cli(tmp_path, "run", "--scheme", "centralized",
                        "--gait-period-s", period_s, "--duration-s", "5")
    assert code == 0
    assert len(read_trace_csv(str(out))) >= 1


def test_run_ending_before_first_sample_exits_one(tmp_path, capsys):
    code, out = run_cli(tmp_path, "run", "--duration-s", "1.5")
    assert code == 1
    err = capsys.readouterr().err
    assert "before its first sample" in err
    assert err == "hexsync: error: the run ended at 1.5 s, before its first sample\n"
    assert not out.exists()


def test_synchronized_run_ignores_free_running_period(tmp_path):
    # the synchronized gait is timed on period_slots; period_s plays no part
    outputs = []
    for period_s in ("1", "100"):
        out = tmp_path / f"period{period_s}.csv"
        assert dispatch(["run", "--scheme", "synchronized", "--gait-period-s", period_s,
                         "--duration-s", "50", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[1].splitlines()) == 1 + 48  # header, then one row per 1.02 s


def test_trace_header_and_formatting(tmp_path):
    code, out = run_cli(tmp_path, "run", "--duration-s", "10")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    fields = lines[1].split(",")
    assert len(fields[0].split(".")[1]) == 6
    assert len(fields[2].split(".")[1]) == 3
    assert fields[3] in ("0", "1")


def test_empty_trace_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    _write_lines(trace_csv_lines([]), str(path))
    assert path.read_text() == TRACE_HEADER + "\n"


def test_csv_round_trip(tmp_path):
    code, out = run_cli(tmp_path, "run", "--duration-s", "60")
    assert code == 0
    rows = read_trace_csv(str(out))
    rewritten = [TRACE_HEADER] + [
        f"{t:.6f},{k},{e:.3f},{r}" for t, k, e, r in rows]
    assert "\n".join(rewritten) + "\n" == out.read_text()


def test_byte_identical_reruns(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert dispatch(["run", "--duration-s", "90", "--seed", "7",
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_csv(tmp_path):
    code, out = run_cli(tmp_path, "sweep", "--periods", "30,10",
                        "--duration-s", "120")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    periods = [float(l.split(",")[0]) for l in lines[1:]]
    assert periods == sorted(periods)


def test_sweep_always_runs_the_synchronized_scheme(tmp_path, capsys):
    # sweep has no --scheme, so a config file's scheme= line is skipped and
    # cannot pick another scheme's --ppm-m1 default
    argv = ["sweep", "--periods", "10", "--duration-s", "60"]
    code, plain = run_cli(tmp_path, *argv)
    assert code == 0
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("scheme=open-loop\n")
    configured = tmp_path / "configured.csv"
    assert dispatch(argv + ["--config", str(cfg), "--out", str(configured)]) == 0
    assert configured.read_bytes() == plain.read_bytes()
    assert dispatch(argv + ["--scheme", "open-loop"]) == 2


def test_servo_trace_csv(tmp_path):
    code, out = run_cli(tmp_path, "trace", "--duration-s", "5")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SERVO_HEADER
    assert len(lines) > 24
    controllers = {l.split(",")[1] for l in lines[1:]}
    assert controllers == {"M1", "M2"}


def test_config_file_defaults_with_flag_override(tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("duration-s=50\nppm-m1=-5\n# comment\n")
    out1 = tmp_path / "one.csv"
    assert dispatch(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = read_trace_csv(str(out1))
    assert rows[-1][0] < 51  # file default shortened the run
    out2 = tmp_path / "two.csv"
    assert dispatch(["run", "--config", str(cfg), "--duration-s", "20",
                     "--out", str(out2)]) == 0
    assert read_trace_csv(str(out2))[-1][0] < 21  # explicit flag wins


def test_ascii_plot_shapes():
    assert render_ascii_plot([]) == "(no samples)"
    flat = [(float(t), t, 0.0, 0) for t in range(50)]
    art = render_ascii_plot(flat)
    assert "*" in art and "max=" in art
    ramp = [(float(t), t, -5.0 * t, 0) for t in range(50)]
    art = render_ascii_plot(ramp)
    rows = [l for l in art.splitlines() if l.startswith("|")]
    first_star = next(i for i, l in enumerate(rows) if "*" in l[:10])
    last_star = next(i for i, l in enumerate(rows) if "*" in l[-10:])
    assert first_star < last_star  # visible downward ramp


def test_config_file_values_take_the_declared_option_type(tmp_path):
    out = tmp_path / "from-config.csv"
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"out={out}\nduration-s=50\nppm-m1=-8\nstop-s=20\n")
    assert dispatch(["run", "--config", str(cfg), "--scheme", "open-loop",
                     "--duration-s", "10"]) == 0
    rows = read_trace_csv(str(out))  # out= is a path, not a float
    assert rows[-1][0] < 11  # explicit flag wins
    assert rows[-1][2] < -65  # ppm-m1=-8, not the open-loop default -5
    servo = tmp_path / "servo.csv"
    assert dispatch(["trace", "--config", str(cfg), "--out", str(servo)]) == 0
    times = [float(l.split(",")[0]) for l in servo.read_text().splitlines()[1:]]
    assert times and max(times) < 21  # stop-s=20 applied


@pytest.mark.parametrize("flag", [["--dur", "20"], ["--duration-s=20"]])
def test_abbreviated_or_joined_flag_beats_config_file(tmp_path, flag):
    # argparse accepts both spellings, so both count as explicit
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("duration-s=50\n")
    out = tmp_path / "out.csv"
    assert dispatch(["run", "--config", str(cfg), *flag, "--out", str(out)]) == 0
    assert read_trace_csv(str(out))[-1][0] < 21


@pytest.mark.parametrize("argv,scheme", [
    (["run"], SchemeId.S2_SYNCHRONIZED),
    (["sweep"], SchemeId.S2_SYNCHRONIZED),
    *[([sub, "--scheme", s.value], s) for sub in ("run", "trace") for s in SchemeId],
])
def test_flag_defaults_are_the_config_objects_defaults(argv, scheme):
    # only open-loop's hip clock differs from SchemeParams(): the published
    # open-loop run drifts at -5 ppm
    expected = (SchemeParams(ppm_m1=-5.0) if scheme is SchemeId.S1_OPEN_LOOP
                else SchemeParams())
    assert _params_from_args(_PARSER.parse_args(argv)) == (scheme, expected)


# each run-setting flag: a value other than its default, and the change it
# makes to the params a command without it runs
RUN_SETTINGS = {
    "duration-s": ("50", lambda p: p.replace(duration_s=50.0)),
    "ppm-m1": ("-8", lambda p: p.replace(ppm_m1=-8.0)),
    "ppm-m2": ("1.1", lambda p: p.replace(ppm_m2=1.1)),
    "ppm-root": ("2.3", lambda p: p.replace(ppm_root=2.3)),
    "resync-period-s": ("10", lambda p: p.replace(resync_period_s=10.0)),
    "gait-period-s": ("0.7", lambda p: p.replace(gait=p.gait.replace(period_s=0.7))),
    "gait-period-slots": ("8", lambda p: p.replace(gait=p.gait.replace(period_slots=8))),
    "base-latency-s": ("0.0031", lambda p: p.replace(link=p.link.replace(base_latency_s=0.0031))),
    "jitter-s": ("0.011", lambda p: p.replace(link=p.link.replace(jitter_bound_s=0.011))),
    "drop-prob": ("0.3", lambda p: p.replace(link=p.link.replace(drop_probability=0.3))),
    "seed": ("7", lambda p: p.replace(seed=7)),
}
# the commands each flag is added to; open-loop's own hip clock default
# must give way to a given --ppm-m1 too
RUN_SETTING_BASES = {"run": ["run"], "run-open-loop": ["run", "--scheme", "open-loop"],
                     "sweep": ["sweep"], "trace": ["trace"]}


def takes(subcommand, flag):
    return flag.replace("-", "_") in vars(_PARSER.parse_args([subcommand]))


def dispatched_params(monkeypatch, tmp_path, argv):
    """The SchemeParams dispatch(argv) hands to its runner; nothing is simulated."""
    seen = []

    def run_sim(scheme, params, *_):
        seen.append(params)
        return SimpleNamespace(samples=[], servo_setpoints=SimpleNamespace(groups=[]))

    def sweep_resync_period(periods, params):
        seen.append(params)
        return []

    monkeypatch.setattr(cli, "run_sim", run_sim)
    monkeypatch.setattr(cli, "sweep_resync_period", sweep_resync_period)
    assert dispatch([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    [params] = seen
    return params


@pytest.mark.parametrize("given_in", ["argv", "config"])
@pytest.mark.parametrize("base,flag", [
    pytest.param(base, flag, id=f"{name}-{flag}")
    for name, base in RUN_SETTING_BASES.items() for flag in RUN_SETTINGS if takes(base[0], flag)])
def test_each_run_setting_changes_only_its_field(tmp_path, monkeypatch, base, flag, given_in):
    value, change = RUN_SETTINGS[flag]
    plain = dispatched_params(monkeypatch, tmp_path, base)
    if given_in == "argv":
        argv = [*base, f"--{flag}", value]
    else:
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{flag}={value}\n")
        argv = [*base, "--config", str(cfg)]
    expected = change(plain)
    assert expected != plain
    assert dispatched_params(monkeypatch, tmp_path, argv) == expected


def test_every_option_reaches_a_config_field_or_the_cli():
    # a flag whose dest is neither would be parsed and then dropped
    fields = {*SchemeParams._fields, *GaitConfig._fields, *LinkModel._fields} - {"gait", "link"}
    cli_own = {"subcommand", "scheme", "out", "config", "plot", "periods", "stop_s"}
    for subcommand in _SUBPARSERS:
        for dest in vars(_PARSER.parse_args([subcommand])):
            assert _FIELD_OF_DEST.get(dest, dest) in fields | cli_own, (subcommand, dest)


@pytest.mark.parametrize("value,plotted", [("true", True), ("false", False)])
def test_config_file_sets_a_flag(tmp_path, capsys, value, plotted):
    cfg = tmp_path / "plot.cfg"
    cfg.write_text(f"plot={value}\n")
    code, _ = run_cli(tmp_path, "run", "--duration-s", "5", "--config", str(cfg))
    assert code == 0
    assert ("max=" in capsys.readouterr().err) == plotted


@pytest.mark.parametrize("argv,config", [
    (["run", "--seed", "abc"], None),
    (["run"], "seed=abc\n"),
])
def test_unconvertible_value_exits_two(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, out = run_cli(tmp_path, *argv)
    assert code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,config", [
    (["run", "--scheme", "bogus"], None),
    (["run"], "scheme=bogus\n"),
])
def test_unknown_scheme_exits_two(tmp_path, capsys, argv, config):
    # a file's value is a flag, so argparse checks its choices as it does
    # the command line's; only the substring is asserted, since the list of
    # choices is formatted differently across Python versions
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    code, out = run_cli(tmp_path, *argv)
    assert code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,key", [
    ("durration-s=5", "durration-s"),  # an option of no subcommand
    ("duration-s 5", "duration-s 5"),  # no '='
    ("plot=ture", "plot"),  # not a spelling of either flag value
    ("sample-every=2", "sample-every"),  # a run samples every period; no subcommand takes it
])
def test_malformed_config_line_exits_one(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# defaults\n{line}\n")
    code, out = run_cli(tmp_path, "run", "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"hexsync: error: {cfg}:2: ") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("argv,line", [
    (["run"], "stop-s=2"),
    (["trace"], "plot=true"),
    (["trace"], "periods=5"),
])
def test_config_key_of_another_subcommand_is_skipped(tmp_path, argv, line):
    argv = argv + ["--duration-s", "5"]
    code, plain = run_cli(tmp_path, *argv)
    assert code == 0
    cfg = tmp_path / "other.cfg"
    cfg.write_text(f"{line}\n")
    configured = tmp_path / "configured.csv"
    assert dispatch(argv + ["--config", str(cfg), "--out", str(configured)]) == 0
    assert configured.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("config", [None, "duration-s=5\nplot=false\n"])
def test_dispatch_builds_no_parser(tmp_path, monkeypatch, config):
    # the one parser is built when hexsync.cli loads, and parsing leaves it
    # as it was, so no dispatch builds another
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["run", "--duration-s", "5"]
    if config is not None:
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    code, out = run_cli(tmp_path, *argv)
    assert code == 0 and out.exists()
    assert built == []


def test_config_file_does_not_leak_into_the_next_dispatch(tmp_path):
    argv = ["run", "--duration-s", "20"]
    code, fresh = run_cli(tmp_path, *argv)
    assert code == 0
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("scheme=open-loop\nppm-m1=-8\nseed=7\n")
    configured = tmp_path / "configured.csv"
    assert dispatch(argv + ["--config", str(cfg), "--out", str(configured)]) == 0
    assert configured.read_bytes() != fresh.read_bytes()
    after = tmp_path / "after.csv"
    assert dispatch(argv + ["--out", str(after)]) == 0
    assert after.read_bytes() == fresh.read_bytes()


def test_config_value_starting_with_a_dash_is_the_value(tmp_path, monkeypatch):
    # each file line is one --key=value token, so "-dash.csv" cannot be
    # read as an option
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "dash.cfg"
    cfg.write_text("out=-dash.csv\nduration-s=5\n")
    assert dispatch(["run", "--config", str(cfg)]) == 0
    code, plain = run_cli(tmp_path, "run", "--duration-s", "5")
    assert code == 0
    assert (tmp_path / "-dash.csv").read_bytes() == plain.read_bytes()
