"""Command-line interface: exit codes, artifacts and output contracts."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import swarmform
from swarmform import cli, engine, parse_scenario
from swarmform.cli import GAINS_KEYS, build_parser, main

from conftest import SCENARIOS

DEFAULT = str(SCENARIOS / "two_agent_switching_step.cfg")

SHORT = """
plant.kp = 6.0
plant.kd = 25.0
plant.g = 9.8
poles.rl = 12.0
poles.iml = 0.1
poles.imr = 0.55
sim.t_end = 16.0
interaction.variant = repulsion
interaction.c_max = 0.05
interaction.d_t = 30.0
interaction.eps = 0.1
agent[0].pos = 50.0
agent[0].vel = -1.5
agent[0].radius = 20.0
agent[1].pos = 0.0
agent[1].vel = 3.0
agent[1].radius = 20.0
"""


@pytest.fixture
def short_file(tmp_path):
    p = tmp_path / "short.cfg"
    p.write_text(SHORT)
    return str(p)


# --- gains -------------------------------------------------------------------

def test_gains_reference_output(capsys):
    rc = main(["gains", "--kp", "6", "--kd", "25", "--g", "9.8",
               "--rl", "12", "--iml", "0.1", "--imr", "0.55"])
    out = capsys.readouterr().out
    assert rc == 0
    kv = dict(line.split(": ", 1) for line in out.strip().split("\n") if ": " in line)
    assert float(kv["k_pos"]) == pytest.approx(0.0296347, abs=1e-6)
    assert float(kv["residual"]) < 1e-9
    assert kv["desired_polynomial"].split() == ["1", "24", "144.3125", "7.26", "43.563025"]


GAINS_STDOUT = {
    "shipped": (["--rl", "12", "--iml", "0.1", "--imr", "0.55"], """\
k_pos: 0.0296347108844
k_vel: 0.0049387755102
k_tilt: -0.0379166666667
k_rate: -0.00666666666667
k1: 0.0296347108844
desired_polynomial: 1 24 144.3125 7.26 43.563025
closed_loop_polynomial: 1 24 144.3125 7.26 43.563025
residual: 1.22338625303e-16
direct_formula: 0.0049387755102 0.0296347108844 0.962083333333 -0.00666666666667
direct_formula_note: entries 1/2 are k_vel/k_pos (transposed); entry 3 = 1 + k_tilt; entry 4 = k_rate
"""),
    "k1": (["--rl", "0", "--iml", "1", "--imr", "1", "--k1", "0.5"], """\
k_pos: 0.000680272108844
k_vel: 0
k_tilt: -0.986666666667
k_rate: -0.166666666667
k1: 0.5
desired_polynomial: 1 0 2 0 1
closed_loop_polynomial: 1 0 2 0 1
residual: 1.88737914186e-15
direct_formula: -0 0.000680272108844 0.0133333333333 -0.166666666667
direct_formula_note: entries 1/2 are k_vel/k_pos (transposed); entry 3 = 1 + k_tilt; entry 4 = k_rate
"""),
}


@pytest.mark.parametrize("case", sorted(GAINS_STDOUT))
def test_gains_stdout_is_pinned(case, capsys):
    poles, expected = GAINS_STDOUT[case]
    assert main(["gains", "--kp", "6", "--kd", "25", "--g", "9.8", *poles]) == 0
    assert capsys.readouterr().out == expected


def test_gains_symmetric_pole_polynomial(capsys):
    rc = main(["gains", "--kp", "6", "--kd", "25", "--g", "9.8",
               "--rl", "0", "--iml", "1", "--imr", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "desired_polynomial: 1 0 2 0 1" in out


def test_gains_rejects_zero_gravity(capsys):
    rc = main(["gains", "--kp", "6", "--kd", "25", "--g", "0",
               "--rl", "12", "--iml", "0.1", "--imr", "0.55"])
    assert rc == 2
    assert "g" in capsys.readouterr().err


def test_gains_rejects_underflowing_plant(capsys):
    rc = main(["gains", "--kp", "1", "--kd", "0.5", "--g", "5e-324",
               "--rl", "12", "--iml", "0.1", "--imr", "0.55"])
    assert rc == 2
    assert "g*k_p*k_d" in capsys.readouterr().err


# --- run ----------------------------------------------------------------------

def test_run_writes_artifacts(tmp_path, short_file, capsys):
    out = tmp_path / "out"
    rc = main(["run", short_file, "--out", str(out)])
    assert rc == 0
    assert f"wrote trace.csv, report.txt, velocities.svg, distances.svg to {out}" in \
        capsys.readouterr().out
    for name in ("trace.csv", "report.txt", "velocities.svg", "distances.svg"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "variant: repulsion" in report
    assert "coupling_events: none" in report


def test_run_single_agent_has_no_distance_plot(tmp_path, capsys):
    # a lone agent has no pair slot, so there is no separation to plot
    one = tmp_path / "one.cfg"
    one.write_text("\n".join(line for line in SHORT.splitlines()
                             if not line.startswith("agent[1]")))
    out = tmp_path / "out"
    rc = main(["run", str(one), "--out", str(out), "--t-end", "2.0"])
    assert rc == 0
    assert f"wrote trace.csv, report.txt, velocities.svg to {out}" in capsys.readouterr().out
    for name in ("trace.csv", "report.txt", "velocities.svg"):
        assert (out / name).is_file()
    assert not (out / "distances.svg").exists()


def test_run_overrides_duration(tmp_path, short_file):
    out = tmp_path / "out"
    rc = main(["run", short_file, "--out", str(out), "--t-end", "2.0"])
    assert rc == 0
    n_rows = (out / "trace.csv").read_text().count("\n") - 1
    assert n_rows == 201  # floor(2 / 0.01) + 1


def test_run_outputs_reproducible(tmp_path, short_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", short_file, "--out", str(out1)]) == 0
    assert main(["run", short_file, "--out", str(out2)]) == 0
    for name in ("trace.csv", "report.txt", "velocities.svg", "distances.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_missing_scenario_exits_2(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_run_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SHORT + "interaction.d_t = 45\n")
    rc = main(["run", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.fixture
def undecodable_file(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_bytes(b"\xff\xfe\x00bad")
    return str(p)


def test_run_undecodable_scenario_exits_2(undecodable_file, tmp_path, capsys):
    rc = main(["run", undecodable_file, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"error: scenario file {undecodable_file}:" in capsys.readouterr().err


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if a simulation starts."""
    def run(scenario):
        raise AssertionError("the run started before --out was checked")
    monkeypatch.setattr(engine, "run", run)


def test_run_out_path_that_is_a_file_exits_2(short_file, tmp_path, capsys, no_run):
    afile = tmp_path / "afile"
    afile.touch()
    rc = main(["run", short_file, "--out", str(afile)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(afile) in err


def test_run_rejects_a_step_too_small_to_count(tmp_path, capsys):
    rc = main(["run", DEFAULT, "--out", str(tmp_path / "o"), "--dt", "5e-324"])
    assert rc == 2
    assert "sim.dt" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_prints_why_delta_rms_is_undefined(tmp_path, capsys):
    rc = main(["run", str(SCENARIOS / "three_agent_chain.cfg"), "--t-end", "12",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert ("delta_rms: undefined (no settled command-free window after the interaction)\n"
            in capsys.readouterr().out)


def test_run_divergent_scenario_exits_3(tmp_path, capsys):
    cfg = tmp_path / "диverge.cfg"
    cfg.write_text(SHORT.replace("sim.t_end = 16.0", "sim.t_end = 2000\nsim.dt = 1.0")
                   .replace("agent[0].vel = -1.5", "agent[0].vel = -1.5\nagent[0].tilt = 0.3"))
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "abort" in capsys.readouterr().err


def repulsion_text(*changes):
    """two_agent_repulsion with each (old, new) line replaced."""
    text = (SCENARIOS / "two_agent_repulsion.cfg").read_text()
    for old, new in changes:
        assert old in text
        text = text.replace(old, new)
    return text


def non_finite_command_text():
    """two_agent_repulsion with both agents at pos = vel = 1.7e308: the
    corrected positions overflow, so the first command is nan."""
    return repulsion_text(("sim.t_end = 40.0", "sim.t_end = 0.5"),
                          ("command[0].t = 29.0", "command[0].t = 0.4"),
                          ("agent[0].pos = 50.0", "agent[0].pos = 1.7e308"),
                          ("agent[0].vel = -1.5", "agent[0].vel = 1.7e308"),
                          ("agent[1].pos = 0.0", "agent[1].pos = 1.7e308"),
                          ("agent[1].vel = 3.0", "agent[1].vel = 1.7e308"))


def test_run_non_finite_command_exits_3(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(non_finite_command_text())
    rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "simulation aborted: non-finite plant input u=nan at t=0.000000 s (agent 0)")


# Finite states whose derived columns overflow: a velocity of 1e200 m/s
# squares to inf in the rms column, and agents at +/-1e308 m are -inf apart.
SHORT_REPULSION = (("sim.t_end = 40.0", "sim.t_end = 0.05"),
                   ("command[0].t = 29.0", "command[0].t = 0.04"))
HUGE_VELOCITY = (("agent[0].vel = -1.5", "agent[0].vel = 1e200"),)
HUGE_SEPARATION = (("agent[0].pos = 50.0", "agent[0].pos = 1e308"),
                   ("agent[1].pos = 0.0", "agent[1].pos = -1e308"))


@pytest.mark.parametrize("changes, column", [(HUGE_VELOCITY, "rms"),
                                             (HUGE_SEPARATION, "pair0_d")],
                         ids=["huge_velocity", "huge_separation"])
def test_run_refuses_to_plot_a_non_finite_column(tmp_path, capsys, changes, column):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(repulsion_text(*SHORT_REPULSION, *changes))
    rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: trace column {column!r} is not finite and cannot be plotted\n")
    # the plots are rendered before anything is written: no trace.csv, no report.txt
    assert list((tmp_path / "o").iterdir()) == []


def test_delta_rms_is_undefined_when_a_window_rms_is_not_finite():
    _, metrics = engine.run(parse_scenario(repulsion_text(*SHORT_REPULSION, *HUGE_VELOCITY)))
    assert metrics.rms_before == metrics.rms_after == float("inf")
    assert metrics.delta_rms is None
    assert metrics.delta_reason == "RMS velocity of a window is not finite"


# --- numeric options --------------------------------------------------------------

def _with(argv, option, value):
    """argv with the value that follows option replaced."""
    i = argv.index(option) + 1
    return argv[:i] + [value] + argv[i + 1:]


GAINS = ["gains", "--kp", "6", "--kd", "25", "--g", "9.8", "--rl", "12", "--iml", "0.1",
         "--imr", "0.55", "--k1", "0.5"]
RUN = ["run", DEFAULT, "--out", "OUT", "--dt", "0.001", "--t-end", "1"]
SWEEP = ["sweep", DEFAULT, "--param", "interaction.c_max", "--from", "0.05", "--to", "0.05",
         "--steps", "1"]
# every numeric option: (a valid command line, the option, the name its errors give)
NUMERIC_OPTIONS = ([(GAINS, "--" + key.rpartition(".")[2], key) for key in GAINS_KEYS]
                   + [(RUN, "--dt", "sim.dt"), (RUN, "--t-end", "sim.t_end")]
                   + [(SWEEP, option, option) for option in ("--from", "--to", "--steps")])


@pytest.mark.parametrize("value", ["1_0", "nan", "abc", "-1_0", "-inf", "-nan", "-Infinity"])
@pytest.mark.parametrize("argv, option, name", NUMERIC_OPTIONS,
                         ids=[f"{argv[0]}{option}" for argv, option, _ in NUMERIC_OPTIONS])
def test_every_numeric_option_reads_as_a_scenario_value(argv, option, name, value, tmp_path,
                                                         capsys, no_run):
    out = tmp_path / "o"
    argv = [str(out) if a == "OUT" else a for a in _with(argv, option, value)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name}: ") and repr(value) in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (_with(GAINS, "--k1", "inf"), "interaction.k1: must be finite, got 'inf'"),
    (_with(GAINS, "--g", "0"), "plant.g: must be > 0, got 0.0"),
    (_with(SWEEP, "--from", "nan"), "--from: must be finite, got 'nan'"),
    (_with(SWEEP, "--steps", "0"), "--steps: must be > 0, got 0"),
    (_with(RUN, "--dt", "-1e-3"), "sim.dt: must be > 0, got -0.001"),
    (_with(GAINS, "--kp", "-6E0"), "plant.kp: must be > 0, got -6.0"),
    (_with(SWEEP, "--steps", "-2e0"), "--steps: not an integer: '-2e0'"),
], ids=["gains--k1-inf", "gains--g-0", "sweep--from-nan", "sweep--steps-0", "run--dt--1e-3",
        "gains--kp--6E0", "sweep--steps--2e0"])
def test_numeric_options_name_their_key(argv, message, capsys, no_run):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["-1e-1", "-2E0", "-.5e+3"])
@pytest.mark.parametrize("argv, option, name", NUMERIC_OPTIONS,
                         ids=[f"{argv[0]}{option}" for argv, option, _ in NUMERIC_OPTIONS])
def test_every_numeric_option_takes_a_negative_exponent_form_as_its_value(argv, option, name,
                                                                          value):
    parse = build_parser().parse_args
    before, after = vars(parse(argv)), vars(parse(_with(argv, option, value)))
    assert [v for key, v in after.items() if v != before[key]] == [value]


def test_gains_reads_a_negative_exponent_form_as_its_decimal_form(capsys):
    assert main(_with(GAINS, "--iml", "-0.1")) == 0
    decimal = capsys.readouterr()
    assert main(_with(GAINS, "--iml", "-1e-1")) == 0
    assert capsys.readouterr() == decimal


def test_sweep_from_a_negative_exponent_form(short_file, capsys):
    rc = main(["sweep", short_file, "--param", "agent[0].vel", "--from", "-2e0", "--to", "2e0",
               "--steps", "2"])
    assert rc == 0
    assert [row[:2] for row in _rows(capsys.readouterr().out)] == [["-2", "ok"], ["2", "ok"]]


# --- compare --------------------------------------------------------------------

def test_compare_identical_variants_ratio_one(short_file, capsys):
    rc = main(["compare", short_file, "--variants", "repulsion,repulsion"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ratio delta_rms(repulsion)/delta_rms(repulsion): 1" in out


def test_compare_reports_attraction_no_coupling(short_file, capsys):
    rc = main(["compare", short_file, "--variants", "attraction"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "variant: attraction" in out
    assert "coupling_events: none" in out


def test_compare_undefined_delta_rms_ratio_is_na(tmp_path, capsys):
    # at 5 s the pair has no settled window after its bounce
    cfg = tmp_path / "five.cfg"
    cfg.write_text(SHORT.replace("sim.t_end = 16.0", "sim.t_end = 5.0"))
    rc = main(["compare", str(cfg), "--variants", "repulsion,attraction"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("delta_rms: undefined (") == 2
    assert out.endswith("ratio delta_rms(repulsion)/delta_rms(attraction): n/a\n")


def test_compare_non_finite_command_exits_3(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(non_finite_command_text())
    rc = main(["compare", str(cfg), "--variants", "repulsion,switching_step"])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "simulation aborted: non-finite plant input u=nan at t=0.000000 s (agent 0)")


def test_compare_unknown_variant_exits_2(short_file, capsys):
    rc = main(["compare", short_file, "--variants", "repulsion,sorcery"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # every variant is parsed before the first run
    assert "interaction.variant" in captured.err and "sorcery" in captured.err


# --- sweep ----------------------------------------------------------------------

def _rows(out):
    lines = out.strip().split("\n")
    assert lines[0] == "value,status,coupled,delta_rms,first_coupling_t,first_uncoupling_t"
    return [line.split(",") for line in lines[1:]]


def test_sweep_c_max_threshold(tmp_path, capsys):
    # low saturation lets the pair couple, high saturation bounces it off
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SHORT.replace("interaction.variant = repulsion",
                                 "interaction.variant = switching_smooth")
                   .replace("sim.t_end = 16.0", "sim.t_end = 15.0")
                   + "edge[0].a = 0\nedge[0].b = 1\n")
    rc = main(["sweep", str(cfg), "--param", "interaction.c_max",
               "--from", "0.02", "--to", "0.20", "--steps", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 10
    coupled = [int(r[2]) for r in rows]
    assert coupled[0] == 1
    assert coupled[-1] == 0
    assert sorted(coupled, reverse=True) == coupled  # monotone threshold


def test_sweep_single_step_equals_run(default_run, capsys):
    sc, _, metrics = default_run("switching_step")
    rc = main(["sweep", DEFAULT, "--param", "interaction.c_max",
               "--from", "0.05", "--to", "0.05", "--steps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    (row,) = _rows(out)
    assert float(row[0]) == 0.05
    assert row[1] == "ok"
    assert float(row[3]) == pytest.approx(metrics.delta_rms, rel=1e-9)
    assert float(row[4]) == pytest.approx(metrics.coupling_events[0][1], abs=1e-9)


def test_sweep_invalid_values_reported_per_row(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SHORT.replace("sim.t_end = 16.0", "sim.t_end = 6.0"))
    rc = main(["sweep", str(cfg), "--param", "interaction.d_t",
               "--from", "39", "--to", "45", "--steps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    # d_t >= 40 violates the coupling-range rule only when an edge exists;
    # without edges all values are accepted
    assert all(r[1] == "ok" for r in rows)
    cfg.write_text(SHORT.replace("sim.t_end = 16.0", "sim.t_end = 6.0")
                   + "edge[0].a = 0\nedge[0].b = 1\n")
    rc = main(["sweep", str(cfg), "--param", "interaction.d_t",
               "--from", "39", "--to", "45", "--steps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    assert rows[0][1] == "ok"
    assert rows[1][1].startswith("error:") and rows[2][1].startswith("error:")


def test_sweep_value_outside_its_key_bound_is_an_error_row(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SHORT.replace("sim.t_end = 16.0", "sim.t_end = 1.0"))
    rc = main(["sweep", str(cfg), "--param", "interaction.c_max",
               "--from", "0", "--to", "0.05", "--steps", "2"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert [r[:2] for r in rows] == [["0", "error: interaction.c_max: must be > 0; got 0.0"],
                                     ["0.05", "ok"]]


def test_sweep_reports_a_non_finite_command_as_an_abort_row(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(non_finite_command_text())
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(cfg), "--param", "agent[1].pos",
               "--from", "0", "--to", "1.7e308", "--steps", "2", "--out", str(out)])
    assert rc == 0
    rows = _rows(out.read_text())
    assert [r[0] for r in rows] == ["0", "1.7e+308"]
    assert all(r[1].startswith("abort:") for r in rows)
    assert "non-finite plant input u=nan at t=0.000000 s (agent 0)" in rows[1][1]


def test_sweep_sizes_its_pool_by_the_cores_the_process_may_run_on(tmp_path, capsys,
                                                                  monkeypatch):
    # a stand-in for cli's concurrent module, as perfbench observes the
    # pool: it records each pool's worker count and maps in this process
    seen = []

    class Pool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "concurrent",
                        types.SimpleNamespace(futures=types.SimpleNamespace(ProcessPoolExecutor=Pool)))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SHORT.replace("sim.t_end = 16.0", "sim.t_end = 1.0"))
    rc = main(["sweep", str(cfg), "--param", "interaction.c_max",
               "--from", "0.05", "--to", "0.1", "--steps", "2"])
    assert rc == 0
    assert [r[1] for r in _rows(capsys.readouterr().out)] == ["ok", "ok"]
    assert seen == [1]


def test_sweep_rejects_unsweepable_parameter(capsys):
    rc = main(["sweep", DEFAULT, "--param", "interaction.variant",
               "--from", "0", "--to", "1", "--steps", "2"])
    assert rc == 2
    assert "not sweepable" in capsys.readouterr().err


def test_sweep_refuses_a_zero_padded_index_up_front(capsys):
    # the parser takes agent[1].vel only, so no row could run
    rc = main(["sweep", DEFAULT, "--param", "agent[01].vel",
               "--from", "1", "--to", "1", "--steps", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "not sweepable" in captured.err
    assert captured.out == ""


def test_sweep_writes_file(tmp_path, short_file):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", short_file, "--param", "agent[1].vel",
               "--from", "3.0", "--to", "3.0", "--steps", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("value,status,coupled")


def test_sweep_undecodable_scenario_exits_2(undecodable_file, capsys):
    rc = main(["sweep", undecodable_file, "--param", "interaction.c_max",
               "--from", "0.1", "--to", "0.1", "--steps", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: scenario file {undecodable_file}:" in captured.err


def test_sweep_out_path_under_a_file_exits_2(tmp_path, short_file, capsys, no_run):
    afile = tmp_path / "afile"
    afile.touch()
    rc = main(["sweep", short_file, "--param", "agent[1].vel",
               "--from", "3.0", "--to", "3.0", "--steps", "1", "--out", str(afile / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(afile) in err


def test_sweep_out_path_that_is_a_directory_exits_2(tmp_path, short_file, capsys, no_run):
    rc = main(["sweep", short_file, "--param", "agent[1].vel",
               "--from", "3.0", "--to", "3.0", "--steps", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_run_default_reports(tmp_path):
    # full-length shipped scenarios exercised through the CLI
    out = tmp_path / "step"
    rc = main(["run", DEFAULT, "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    (line,) = [l for l in report.splitlines() if l.startswith("uncoupling_events:")]
    t_u = float(line.split("@", 1)[1])
    assert t_u > 29.0

    out = tmp_path / "smooth"
    rc = main(["run", str(SCENARIOS / "two_agent_switching_smooth.cfg"), "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text()
    (line,) = [l for l in report.splitlines() if l.startswith("delta_rms:")]
    assert float(line.split(":", 1)[1]) < 0.01


# --- module entry point -----------------------------------------------------------

def test_module_invocation():
    # the child imports the package this process imported, installed or not
    path = os.pathsep.join([str(Path(swarmform.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "swarmform.cli", "gains", "--kp", "6", "--kd", "25",
         "--g", "9.8", "--rl", "12", "--iml", "0.1", "--imr", "0.55"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "k_pos: 0.0296347" in proc.stdout
