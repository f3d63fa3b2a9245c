"""Scenario parsing/serialisation and the CSV/report/SVG writers."""

import dataclasses
import gc
import hashlib
import itertools
import math
import os
import re
import threading
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from swarmform import (AgentInit, Command, ConfigurationError, InteractionVariant,
                       ModelValidityWarning, PlantParams, PoleSpec, Scenario, ScenarioError,
                       SimulationAbort, build_world, parse_scenario, parse_scenario_with,
                       render_svg, run, serialize_scenario, step, write_report, write_trace)
from swarmform import cli, engine, output
from swarmform.scenario import KEYS, REQUIRED, is_scalar_key

from conftest import REPO, SCENARIOS, scenario_text

MINIMAL = """
plant.kp = 6.0
plant.kd = 25.0
plant.g = 9.8
poles.rl = 12.0
poles.iml = 0.1
poles.imr = 0.55
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


# --- parsing ---------------------------------------------------------------

def test_parse_shipped_default_matches_reference_tables():
    sc = parse_scenario(scenario_text("two_agent_switching_step"))
    assert (sc.plant.k_p, sc.plant.k_d, sc.plant.g) == (6.0, 25.0, 9.8)
    assert (sc.poles.rl, sc.poles.iml, sc.poles.imr) == (12.0, 0.1, 0.55)
    assert [a.radius for a in sc.agents] == [20.0, 20.0]
    assert [(a.pos, a.vel) for a in sc.agents] == [(50.0, -1.5), (0.0, 3.0)]
    assert sc.edges == ((0, 1),)
    assert sc.commands[0].t == 29.0
    assert sc.commands[0].kind == "uncouple"
    assert (sc.c_max, sc.d_t, sc.eps) == (0.05, 30.0, 0.1)
    assert (sc.dt, sc.t_end, sc.stride) == (0.001, 40.0, 10)


def test_parse_defaults_applied():
    sc = parse_scenario(MINIMAL)
    assert sc.dt == 0.001
    assert sc.t_end == 40.0
    assert sc.stride == 10
    assert sc.agents[0].tilt == 0.0
    assert sc.agents[0].rate == 0.0
    assert sc.k1 is None
    assert sc.resolved_gains().k1 == sc.resolved_gains().k_pos


def test_parse_rejects_coupling_distance_outside_radius():
    text = MINIMAL + "edge[0].a = 0\nedge[0].b = 1\n"
    with pytest.raises(ScenarioError, match=r"edge\[0\].*d_t < R_a \+ R_b"):
        parse_scenario_with(text, {"interaction.d_t": 45.0})


def test_parse_error_messages_name_the_key():
    cases = [
        (MINIMAL + "bogus.key = 1\n", "bogus.key"),
        (MINIMAL + "command[0].t = 5\ncommand[0].kind = explode\ncommand[0].edge = 0\n",
         "command[0].kind"),
        (MINIMAL.replace("plant.kp = 6.0\n", ""), "plant.kp"),
        (MINIMAL.replace("interaction.c_max = 0.05", "interaction.c_max = nope"),
         "interaction.c_max"),
        (MINIMAL.replace("agent[1]", "agent[2]"), "agent[1]"),
        (MINIMAL + "sim.dt = -0.1\n", "sim.dt"),
        (MINIMAL.replace("interaction.variant = repulsion",
                         "interaction.variant = magnets"), "interaction.variant"),
    ]
    for text, key in cases:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert key in str(err.value)


@pytest.mark.parametrize("key, accepted", [
    ("interaction.variant", "repulsion, attraction, switching_step, switching_smooth"),
    ("command[0].kind", "uncouple")])
def test_unknown_text_value_names_the_key_and_the_accepted_values(key, accepted):
    text = MINIMAL + ("edge[0].a = 0\nedge[0].b = 1\n"
                      "command[0].t = 5\ncommand[0].kind = uncouple\ncommand[0].edge = 0\n")
    assert parse_scenario(text)
    text = re.sub(re.escape(key) + " = .*", f"{key} = magnets", text)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == f"{key}: unknown value 'magnets' (one of: {accepted})"


@pytest.mark.parametrize("line, message", [
    ("plant.kp = 6_0", "plant.kp: not a number: '6_0'"),
    ("edge[0].b = 0_1", "edge[0].b: not an integer: '0_1'")])
def test_numeric_underscores_are_not_numbers(line, message):
    # float() and int() read numeric-literal underscores: 6_0 would parse as 60
    key = line.split(" = ")[0]
    text = re.sub(re.escape(key) + " = .*", line, scenario_text("two_agent_switching_step"))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message


def test_parse_rejects_a_step_count_that_overflows():
    # t_end / dt = inf: the run could not count its steps
    with pytest.raises(ScenarioError, match=r"^sim\.dt: .*overflows"):
        parse_scenario(MINIMAL + "sim.dt = 5e-324\n")
    with pytest.raises(ScenarioError, match=r"^sim\.dt: "):
        parse_scenario_with(MINIMAL, {"sim.t_end": 1e300, "sim.dt": 1e-10})


def test_parse_rejects_duplicate_key():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(MINIMAL + "plant.kp = 7\n")


def test_parse_rejects_command_time_beyond_end():
    text = (MINIMAL + "edge[0].a = 0\nedge[0].b = 1\n"
            "command[0].t = 99.0\ncommand[0].kind = uncouple\ncommand[0].edge = 0\n")
    with pytest.raises(ScenarioError, match=r"command\[0\].t"):
        parse_scenario(text)


def test_parse_rejects_self_edge_and_bad_index():
    with pytest.raises(ScenarioError, match="distinct"):
        parse_scenario(MINIMAL + "edge[0].a = 1\nedge[0].b = 1\n")
    with pytest.raises(ScenarioError, match="existing"):
        parse_scenario(MINIMAL + "edge[0].a = 0\nedge[0].b = 7\n")


def test_poles_and_explicit_gains_are_exclusive():
    with pytest.raises(ScenarioError, match="mutually exclusive"):
        parse_scenario(MINIMAL + "gains.kpos = 0.03\ngains.kvel = 0.005\n"
                                 "gains.ktilt = -0.03\ngains.krate = -0.006\n")


EDGE = "edge[0].a = 0\nedge[0].b = 1\n"
# One minimal file per relation between a scenario's fields, with its message
RELATIONS = {
    "both gain sources": (MINIMAL + "gains.kpos = 0.03\ngains.kvel = 0.005\n"
                          "gains.ktilt = -0.03\ngains.krate = -0.006\n",
                          "gains.kpos: poles.* and gains.* are mutually exclusive"),
    "t_end below dt": (MINIMAL + "sim.dt = 0.5\nsim.t_end = 0.25\n",
                       "sim.t_end: must cover at least one step of sim.dt=0.5"),
    "step count overflows": (MINIMAL + "sim.dt = 5e-324\n",
                             "sim.dt: too small for sim.t_end=40.0: "
                             "the step count t_end/dt overflows, got 5e-324"),
    "no agent": (re.sub(r"agent\[.*\n", "", MINIMAL),
                 "agent[0].pos: at least one agent is required"),
    "edge to no agent": (MINIMAL + "edge[0].a = 9\nedge[0].b = 1\n",
                         "edge[0].a: endpoints must name existing agents, got (9, 1)"),
    "self edge": (MINIMAL + "edge[0].a = 1\nedge[0].b = 1\n",
                  "edge[0].a: endpoints must be distinct, got (1, 1)"),
    "edge declared twice": (MINIMAL + EDGE + "edge[1].a = 1\nedge[1].b = 0\n",
                            "edge[1].a: duplicate edge (0, 1)"),
    "d_t out of range": (MINIMAL.replace("d_t = 30.0", "d_t = 45.0") + EDGE,
                         "edge[0].a: interaction.d_t=45.0 violates d_t < R_a + R_b = 40.0 "
                         "(the coupling distance must lie inside the pair's interaction range)"),
    "command on no edge": (MINIMAL + EDGE + "command[0].t = 5\ncommand[0].kind = uncouple\n"
                                            "command[0].edge = 3\n",
                           "command[0].edge: no such edge 3"),
    "command after t_end": (MINIMAL + EDGE + "command[0].t = 99\ncommand[0].kind = uncouple\n"
                                             "command[0].edge = 0\n",
                            "command[0].t: must lie in [0, t_end=40.0], got 99.0"),
}


@pytest.mark.parametrize("relation", RELATIONS)
def test_each_relation_between_fields_is_refused_with_its_message(relation):
    text, message = RELATIONS[relation]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message


EXPLICIT_GAINS = (MINIMAL.replace("poles.rl = 12.0\n", "").replace(
    "poles.iml = 0.1\n", "").replace("poles.imr = 0.55\n", "")
    + "gains.kpos = 0.03\ngains.kvel = 0.005\ngains.ktilt = -0.038\ngains.krate = -0.0067\n")


def test_explicit_gains_scenario():
    sc = parse_scenario(EXPLICIT_GAINS)
    g = sc.resolved_gains()
    assert (g.k_pos, g.k_vel, g.k_tilt, g.k_rate) == (0.03, 0.005, -0.038, -0.0067)
    assert g.k1 == 0.03


def test_zero_position_gain_is_rejected_for_both_gain_sources():
    with pytest.raises(ScenarioError, match=r"^poles\.rl: k_pos must be nonzero"):
        parse_scenario(MINIMAL.replace("poles.rl = 12.0", "poles.rl = 0")
                       .replace("poles.iml = 0.1", "poles.iml = 0"))
    text = re.sub(r"poles\..*\n", "", MINIMAL) + (
        "gains.kpos = 0\ngains.kvel = 0.005\ngains.ktilt = -0.038\ngains.krate = -0.0067\n")
    with pytest.raises(ScenarioError, match=r"^gains\.kpos: k_pos must be nonzero"):
        parse_scenario(text)


@pytest.mark.parametrize("kp, kd, g", [(1.0, 0.5, 5e-324), (6.0, 25.0, 1e-320)])
def test_synthesis_failure_of_a_tiny_plant_names_a_key(kp, kd, g):
    # g*k_p*k_d underflows to 0 (first case) or leaves k_pos = inf (second)
    text = MINIMAL.replace("plant.kp = 6.0", f"plant.kp = {kp}").replace(
        "plant.kd = 25.0", f"plant.kd = {kd}").replace("plant.g = 9.8", f"plant.g = {g}")
    with pytest.raises(ScenarioError, match=r"^poles\.rl: gain synthesis failed"):
        parse_scenario(text)


@st.composite
def scenarios(draw):
    """Valid scenarios: 1-4 agents, poles or explicit gains with k_pos != 0,
    an optional k1, edges with d_t < R_a + R_b and commands inside
    [0, t_end]."""
    plant = PlantParams(draw(st.floats(0.1, 100.0)), draw(st.floats(0.1, 100.0)),
                        draw(st.floats(0.1, 20.0)))
    if draw(st.booleans()):
        poles, gains = PoleSpec(draw(st.floats(0.0, 20.0)), draw(st.floats(-2.0, 2.0)),
                                draw(st.floats(0.05, 5.0))), None
    else:
        k_pos = draw(st.floats(-10.0, 10.0).filter(lambda v: v != 0.0))
        poles, gains = None, (k_pos, *(draw(st.floats(-100.0, 100.0)) for _ in range(3)))
    agents = tuple(AgentInit(draw(st.floats(-1e3, 1e3)), draw(st.floats(-10.0, 10.0)),
                             draw(st.floats(-0.5, 0.5)), draw(st.floats(-1.0, 1.0)),
                             draw(st.floats(1.0, 50.0)))
                   for _ in range(draw(st.integers(1, 4))))
    d_t = draw(st.floats(1.0, 60.0))
    reachable = [(a, b) for a, b in itertools.combinations(range(len(agents)), 2)
                 if d_t < agents[a].radius + agents[b].radius]
    edges = tuple(draw(st.lists(st.sampled_from(reachable), unique=True))) if reachable else ()
    dt = draw(st.floats(1e-4, 1e-2))
    t_end = draw(st.floats(dt, 100.0))
    commands = tuple(Command(draw(st.floats(0.0, t_end)), "uncouple",
                             draw(st.integers(0, len(edges) - 1)))
                     for _ in range(draw(st.integers(0, 3 if edges else 0))))
    sc = Scenario(plant, poles, gains, agents, draw(st.sampled_from(InteractionVariant)),
                  draw(st.floats(1e-3, 1.0)), d_t, draw(st.floats(1e-3, 5.0)),
                  draw(st.none() | st.floats(-1.0, 1.0)), edges, commands,
                  dt, t_end, draw(st.integers(1, 100)))
    assume(sc.resolved_gains().k_pos != 0)  # rl = iml = 0 places no position gain
    return sc


@settings(derandomize=True, deadline=None)
@given(scenarios())
def test_round_trip_serialisation(sc):
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_shipped_scenarios_round_trip():
    for name in ("two_agent_switching_step", "three_agent_chain"):
        sc = parse_scenario(scenario_text(name))
        assert parse_scenario(serialize_scenario(sc)) == sc


SERIALISED = """\
plant.kp = 6
plant.kd = 25
plant.g = 9.8000000000000007
gains.kpos = 0.029999999999999999
gains.kvel = 0.0050000000000000001
gains.ktilt = -0.037999999999999999
gains.krate = -0.0067000000000000002
sim.dt = 0.001
sim.t_end = 40
sim.stride = 10
interaction.variant = repulsion
interaction.c_max = 0.050000000000000003
interaction.d_t = 30
interaction.eps = 0.10000000000000001
interaction.k1 = 0.02
agent[0].pos = 50
agent[0].vel = -1.5
agent[0].tilt = 0
agent[0].rate = 0
agent[0].radius = 20
agent[1].pos = 0
agent[1].vel = 3
agent[1].tilt = 0
agent[1].rate = 0
agent[1].radius = 20
edge[0].a = 0
edge[0].b = 1
command[0].t = 5
command[0].kind = uncouple
command[0].edge = 0
"""

# sha256 of serialize_scenario for each shipped scenario
SERIALISED_SHA256 = {
    "three_agent_chain": "979be9e4115216356342e8019a0c361ef8c9b6ad90dea9b920da35db5bd14fbc",
    "two_agent_attraction": "1c3e3f72cd6af9163708b13446d41c181101cf4752f704787572c8d6f8c53aba",
    "two_agent_repulsion": "61f37f6fecaece916eea69a7612a805297698a7490107b5496ec5888b57a60e9",
    "two_agent_switching_smooth": "76101643c492cdbee95b290c1db01bf3cb1e728083924e21077b30bab04fe2fd",
    "two_agent_switching_step": "6cd27a8eb1d69d46d062ad32bba073a4d48869e7a78977febdd6421095b0719e",
}


def test_serialised_text_is_pinned():
    # key order within and across groups, the 17-digit floats, and the
    # absent poles.* written as nothing
    text = EXPLICIT_GAINS + ("interaction.k1 = 0.02\nedge[0].a = 1\nedge[0].b = 0\n"
                             "command[0].t = 5\ncommand[0].kind = uncouple\ncommand[0].edge = 0\n")
    assert serialize_scenario(parse_scenario(text)) == SERIALISED
    for name, digest in SERIALISED_SHA256.items():
        text = serialize_scenario(parse_scenario(scenario_text(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_is_scalar_key():
    assert is_scalar_key("interaction.c_max")
    assert is_scalar_key("agent[3].vel")
    assert is_scalar_key("command[0].t")
    assert not is_scalar_key("interaction.variant")
    assert not is_scalar_key("sim.stride")
    assert not is_scalar_key("edge[0].a")
    assert not is_scalar_key("nonsense")
    assert is_scalar_key("gains.kpos")
    assert not is_scalar_key("command[0].kind")
    assert not is_scalar_key("agent[].vel")
    assert not is_scalar_key("agent[x].vel")
    # one index grammar with the parser: no leading zeros
    assert is_scalar_key("agent[0].vel")
    assert is_scalar_key("agent[10].vel")
    assert not is_scalar_key("agent[01].vel")
    assert not is_scalar_key("agent[00].vel")
    with pytest.raises(ScenarioError, match=r"agent\[01\]\.vel: unknown key"):
        parse_scenario(MINIMAL + "agent[01].vel = 1.0\n")


def readme_key_table():
    """The rows of README's "Scenario files" key table as (key, type,
    default, bound) in KEYS terms, one per key: a row naming several keys
    (`gains.kpos`, `.kvel`, ...) gives one for each, and `agent[i]`,
    `edge[k]` and `command[m]` read as KEYS's `[]`."""
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        names, _, kind, default, bound = (cell.strip() for cell in line.strip("|").split("|"))
        first, *more = re.findall(r"`([^`]+)`", names)
        group = first.rpartition(".")[0]
        kind = {"real": float, "integer": int}.get(kind) or set(re.findall(r"`([^`]+)`", kind))
        if default != REQUIRED:
            try:
                default = float(default)
            except ValueError:
                default = None  # described in words: an absent optional value
        for name in [first] + [group + m if m.startswith(".") else m for m in more]:
            rows.append((re.sub(r"\[[ikm]\]", "[]", name), kind, default, bound or None))
    return rows


def test_readme_key_table_matches_keys():
    rows = readme_key_table()
    assert sorted(key for key, *_ in rows) == sorted(KEYS)  # every key, each once
    for key, kind, default, bound in rows:
        expected, expected_default, expected_bound, _ = KEYS[key]
        if isinstance(kind, set):  # a text key: the values its enum accepts
            expected = {v.value for v in expected}
        assert (kind, default, bound) == (expected, expected_default, expected_bound), key


SHIPPED = sorted(p.stem for p in SCENARIOS.glob("*.cfg"))
HOSTILE = ("0", "-1", "1e-320", "5e-324", "nan", "inf", "word", "9", "1_0")


@st.composite
def one_line_mutations(draw):
    """A shipped scenario with one setting changed: its value to a hostile
    one, or its agent/edge/command index to one past the end."""
    lines = scenario_text(draw(st.sampled_from(SHIPPED))).splitlines()
    i = draw(st.sampled_from([i for i, line in enumerate(lines) if "=" in line]))
    key, value = (part.strip() for part in lines[i].split("=", 1))
    if "[" in key and draw(st.booleans()):
        key = re.sub(r"\[\d+\]", "[9]", key)
    else:
        value = draw(st.sampled_from(HOSTILE))
    lines[i] = f"{key} = {value}"
    return "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(one_line_mutations())
def test_hostile_one_line_mutations_are_named_or_runnable(text):
    try:
        sc = parse_scenario(text)
    except ScenarioError as err:
        assert re.match(r"(line \d+|[a-z]+(\[\d+\])?(\.[a-z_]+)?): ", str(err)), str(err)
        return
    step(build_world(sc))


# --- writers ----------------------------------------------------------------

def short_run(variant="switching_step"):
    text = scenario_text(f"two_agent_{variant}")
    sc = parse_scenario_with(text, {"sim.t_end": 12.0, "command[0].t": 10.0})
    trace, metrics = run(sc)
    return sc, trace, metrics


def test_trace_csv_schema(default_run):
    _, trace, _ = default_run("switching_step")
    csv = write_trace(trace)
    lines = csv.strip().split("\n")
    header = lines[0].split(",")
    assert len(header) == 1 + 2 * 5 + 2 * 2 + 1  # t, 2 agents, edge + range pair, rms
    assert header[0] == "t"
    assert header[1] == "agent0_pos"
    assert header[-1] == "rms"
    assert len(lines) - 1 == 4001  # floor(40 / 0.01) + 1


def test_trace_csv_round_trips_floats_exactly(default_run):
    _, trace, _ = default_run("switching_step")
    csv = write_trace(trace)
    lines = csv.strip().split("\n")
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:1000]])
    assert np.array_equal(parsed, trace.data[:999])


def test_trace_csv_deterministic():
    _, t1, _ = short_run()
    _, t2, _ = short_run()
    assert write_trace(t1) == write_trace(t2)


# The feed: a run hands a trace of at least 2 * FORK_VALUES values to a
# forked child (output.Feed) that formats its rows while the run goes on,
# and write_trace collects that child's text.  FORK_VALUES and the core
# count are patched so that tiny traces get one.  After every call no
# child may be left: waitpid(-1) finds none.
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
           1e308, -1e308, 1 / 3, -1e-300)


def tiny_trace(data):
    """A two-agent trace (14 columns) whose samples are replaced by data."""
    trace, _ = run(parse_scenario(MINIMAL + "sim.t_end = 0.001\n"))
    return dataclasses.replace(trace, data=np.array(data, dtype=float).reshape(-1, 14))


def with_feeds(mp):
    """Every trace of two values or more gets a feed, on two cores."""
    mp.setattr(output, "FORK_VALUES", 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fed(trace, pushes):
    """trace with its data copied into a feed's memory and pushed up to
    each row count of `pushes` in turn, the last one every row."""
    data, feed = output.trace_array(*trace.data.shape)
    assert feed is not None
    data[:] = trace.data
    for rows in pushes:
        feed.push(rows)
    return dataclasses.replace(trace, data=data, feed=feed)


def one_block(trace):
    return write_trace(dataclasses.replace(trace, feed=None))


def stride_7_run():
    """A switching_step run whose last sample comes before its last step."""
    sc = parse_scenario_with(scenario_text("two_agent_switching_step"),
                             {"sim.t_end": 12.0, "command[0].t": 10.0, "sim.stride": 7})
    return run(sc)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 9).flatmap(lambda rows: st.tuples(
           st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=14 * rows,
                    max_size=14 * rows),
           st.lists(st.integers(1, rows), max_size=3).map(lambda cut: sorted({*cut, rows})))))
def test_trace_csv_from_a_feed_equals_one_block(values_and_pushes):
    values, pushes = values_and_pushes  # pushed in 1-4 steps
    trace = tiny_trace(values)
    with pytest.MonkeyPatch.context() as mp:
        with_feeds(mp)
        text = write_trace(fed(trace, pushes))
    no_child_left()
    assert text == one_block(trace)


@pytest.mark.parametrize("fault", ["exits non-zero", "drops its last row"])
def test_trace_csv_rows_of_a_failed_feed_are_formatted_by_the_caller(fault, monkeypatch):
    trace = tiny_trace(np.arange(14 * 6) / 7)
    rows, caller, calls = output._rows, os.getpid(), []

    def faulty(data, fmt):
        if os.getpid() == caller:
            calls.append(len(data))
            return rows(data, fmt)
        if fault == "exits non-zero":
            raise RuntimeError("a failing child")
        return rows(data[:-1], fmt)

    monkeypatch.setattr(output, "_rows", faulty)
    with_feeds(monkeypatch)
    text = write_trace(fed(trace, [2, 4, 6]))
    no_child_left()
    assert text == one_block(trace)
    assert calls == [6, 6]  # every row of the fed trace, then one_block's


def test_a_fed_run_gives_the_data_metrics_and_text_of_an_unfed_one(monkeypatch):
    plain, plain_metrics = stride_7_run()
    assert plain.feed is None
    with_feeds(monkeypatch)
    monkeypatch.setattr(engine, "FILL_VALUES", 14 * 50)  # 50-row blocks, the last one short
    trace, metrics = stride_7_run()
    assert trace.feed is not None and trace.n_rows == 12000 // 7 + 1
    assert metrics == plain_metrics
    assert trace.data.tobytes() == plain.data.tobytes()
    assert write_trace(trace) == write_trace(plain)
    no_child_left()


def test_no_feed_child_outlives_its_dropped_trace(monkeypatch):
    with_feeds(monkeypatch)
    trace, _ = stride_7_run()
    assert trace.feed is not None
    del trace
    gc.collect()
    no_child_left()


@pytest.mark.parametrize("fault", ["non-finite command", "interrupt", "tilt warning"])
def test_no_feed_child_outlives_a_run_that_raises(fault, monkeypatch):
    controls, forks, fork = engine._controls, [], os.fork

    def faulty(world, active_commands):
        us, *rest = controls(world, active_commands)
        if world.k == 300:  # after six pushes
            if fault == "interrupt":
                raise KeyboardInterrupt
            us[-1] = math.nan
        return (us, *rest)

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    with_feeds(monkeypatch)
    monkeypatch.setattr(engine, "FILL_VALUES", 14 * 5)
    monkeypatch.setattr(os, "fork", counted_fork)
    if fault == "tilt warning":
        monkeypatch.setattr(engine, "TILT_LIMIT", 0.0)
    else:
        monkeypatch.setattr(engine, "_controls", faulty)
    error = {"non-finite command": SimulationAbort, "interrupt": KeyboardInterrupt,
             "tilt warning": ModelValidityWarning}[fault]
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelValidityWarning)
        with pytest.raises(error):
            stride_7_run()
    assert len(forks) == 1
    no_child_left()


def test_no_feed_while_another_thread_runs(monkeypatch):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with_feeds(monkeypatch)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a thread running"))
        trace, _ = stride_7_run()
        assert trace.feed is None
        assert write_trace(trace) == one_block(trace)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("feeds", [False, True])
def test_a_run_s_trace_data_is_read_only(feeds, monkeypatch):
    if feeds:
        with_feeds(monkeypatch)
    trace, _ = stride_7_run()
    assert (trace.feed is not None) == feeds
    with pytest.raises(ValueError, match="read-only"):
        trace.data[0, 1] = 1.0
    del trace
    no_child_left()


def test_a_replaced_trace_is_formatted_from_its_own_data(monkeypatch):
    with_feeds(monkeypatch)
    trace, _ = stride_7_run()
    other = trace.data + 1.0
    replaced = dataclasses.replace(trace, data=other)
    assert replaced.feed is trace.feed
    assert write_trace(replaced) == one_block(replaced) != one_block(trace)
    assert trace.feed.close.alive  # the feed is still trace's
    assert write_trace(trace) == one_block(trace)
    no_child_left()


def test_report_schema_fixed_across_variants(default_run):
    keysets = []
    for variant in ("repulsion", "attraction", "switching_step"):
        sc, _, metrics = default_run(variant)
        report = write_report(metrics, sc)
        keys = [line.split(":", 1)[0] for line in report.strip().split("\n")]
        keysets.append(keys)
    assert keysets[0] == keysets[1] == keysets[2]
    assert "delta_rms" in keysets[0]
    assert "velocity_sum_drift" in keysets[0]


def test_report_contents(default_run):
    sc, _, metrics = default_run("attraction")
    report = write_report(metrics, sc)
    assert "coupling_events: none" in report
    sc, _, metrics = default_run("switching_step")
    report = write_report(metrics, sc)
    assert "coupling_events: edge0@" in report
    assert "delta_rms: 0.008" in report


# sha256 of write_report for each shipped two-agent scenario and for the
# explicit-gains scenario (poles.* read none)
REPORT_SHA256 = {
    "repulsion": "de108a6bfab1b3ed0113728f61b7b58497243fbbbc15532bf213a90c262bdc70",
    "attraction": "860941c7d018d40b0f35be5f42ec5b4001329e3db91043aa49e659de417b2a67",
    "switching_step": "6bd00e26b0b73609c6fb99410c4fcf26861d2fc8e8fc7dbf94a60868b5dfd92c",
    "switching_smooth": "18acd432594ddb19303dd759945d87800274fc936c7f1f09a2449a310c1eb60d",
    "explicit_gains": "08c66323a7c5a19760bb9fa2b3c91d9e1c148fa585960f928fb5633fffe370a3",
}


@pytest.mark.parametrize("case", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(default_run, case):
    if case == "explicit_gains":
        sc = parse_scenario(EXPLICIT_GAINS)
        _, metrics = run(sc)
    else:
        sc, _, metrics = default_run(case)
    report = write_report(metrics, sc).encode()
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[case]


# sha256 of the files the run command writes, for each shipped scenario and
# for switching_step sampled on every step (the benchmark's dense trace)
ARTIFACT_SHA256 = {
    "repulsion": ("db83eede71663c780325dccb111637571521d3a75484a162969894d18b0e797c",
                  "d425dd148f359c612c109d88dea74b7e9077d94394302aab747b813ddcbc88c8",
                  "f096dd5841ec31b95553e415cb1ff2255a1a197f9a934cd56ff3b6ba4b82763e"),
    "attraction": ("0da109bb2216ce546c9c40aafe532c5da1a9bce4f8f217079b18e26ab3870dfe",
                   "9a4f0618494bfc79d1d3c14443f3bd688c13507d5c5008150be693740883c739",
                   "b2895ace3ae93bbce7f83ef59b63f39e260d24da9e992e1af9e49612a5921c55"),
    "switching_step": ("3c9b818253bcca32b4c183f0fcb8086cc7a5ac83f8829349de62a80f4a7b1346",
                       "fbbaf1eacd1ee736392c2469ed19147a8a471bf193c49e95638663bf0d2ac075",
                       "4e15c14d365cf67673eec25ed4816998cd1c54b1e4c9d527e47b092de2248b26"),
    "switching_smooth": ("f7c595b103a1e97ac73f4a98836f80d1c1632f1153d531e3f3827e3b72c98420",
                         "4aa3bffa3807eae64c397a691f2c817c37a71fd7591d259050cbcb8e32c3ebff",
                         "8b3f6605957501538acc17d5e7ab043a1e7a3b3c503f0cd9be30f0e86ce68642"),
    "three_agent_chain": ("09c8b16e96cccd280e7e67e831256b80f275ba74e250f63d2fd74a5422241050",
                          "ac793af3e52f4d083b82ce122ee67d7f1927b5b6892fefb7d241a84867c0cfa1",
                          "9f2cce7072e3284ccb00c26f948e44bf3cd6c76ad78f4eabae427dc643e36e1b"),
    "switching_step_stride1": ("60b5191b0d01a4fd955b448c3ca18db7b2af8ad1015bc4b230cdf5037ebc5087",
                               "2744a5a71e3627832a29174ed6655dbe230ed58d913556bda49c15ac18574d3f",
                               "28580b0890bd03f8f064e58659b51091c8b0d2cb1a09fc49dbd11c51a52ab585"),
}


@pytest.mark.parametrize("case", sorted(ARTIFACT_SHA256))
def test_artifact_bytes_are_pinned(default_run, chain_run, tmp_path, case):
    if case == "three_agent_chain":
        sc, trace, metrics = chain_run
    elif case == "switching_step_stride1":
        sc = parse_scenario_with(scenario_text("two_agent_switching_step"), {"sim.stride": 1})
        trace, metrics = run(sc)
    else:
        sc, trace, metrics = default_run(case)
    cli._write_outputs(tmp_path, trace, metrics, sc)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("trace.csv", "velocities.svg", "distances.svg"))
    assert digests == ARTIFACT_SHA256[case]


def test_svg_renders_and_is_deterministic():
    _, t1, _ = short_run()
    _, t2, _ = short_run()
    cols = ["agent0_vel", "agent1_vel", "rms"]
    svg1 = render_svg(t1, cols, title="velocities")
    svg2 = render_svg(t2, cols, title="velocities")
    assert svg1 == svg2
    assert svg1.startswith("<svg ")
    assert svg1.rstrip().endswith("</svg>")
    for c in cols:
        assert f">{c}</text>" in svg1
    # the coupling event marker is drawn
    assert "stroke-dasharray" in svg1


def test_svg_rejects_unknown_or_empty_columns():
    _, trace, _ = short_run()
    with pytest.raises(ConfigurationError) as err:
        render_svg(trace, ["no_such_column"])
    assert "agent0_vel" in str(err.value)  # lists what is available
    with pytest.raises(ConfigurationError):
        render_svg(trace, [])


def far_pair(vel1):
    """Two agents 1e16 m apart, agent 1 moving at vel1, for 0.1 s."""
    text = MINIMAL.replace("agent[0].pos = 50.0", "agent[0].pos = 1e16").replace(
        "agent[0].vel = -1.5", "agent[0].vel = 0.0").replace(
        "agent[1].vel = 3.0", f"agent[1].vel = {vel1}") + "sim.t_end = 0.1\n"
    trace, _ = run(parse_scenario(text))
    return trace


def test_svg_axis_ticks_are_finite_far_from_zero():
    # separations 1e16 .. 1e16 + 4: adding the tick step (1) to 1e16 leaves
    # it unchanged, so ticks built by accumulation would never reach the end
    svg = render_svg(far_pair(40.0), ["pair0_d"])
    ET.fromstring(svg)
    assert svg.count('text-anchor="end"') <= 12  # y tick labels


def test_svg_tick_labels_stay_distinct_far_from_zero():
    # ticks 1 apart at -1e16, where doubles lie 2 apart: .6g labels all read
    # -1e+16, so the ticks are labelled as offsets from a base shown once
    root = ET.fromstring(render_svg(far_pair(40.0), ["pair0_d"]))
    texts = list(root.iter("{http://www.w3.org/2000/svg}text"))
    y_ticks = [el for el in texts if el.get("x") == str(output._ML - 7)]
    assert [el.text for el in y_ticks] == ["0", "1", "2", "3", "4"]
    assert len({el.get("y") for el in y_ticks}) == 5
    assert [el.text for el in texts if el.text.startswith("offset")] == [
        "offset -9999999999999994"]


def test_svg_constant_series_far_from_zero():
    # a constant 1e16 m separation: the +/-1 pad vanishes against 1e16
    svg = render_svg(far_pair(0.0), ["pair0_d"])
    ET.fromstring(svg)


def test_svg_of_a_one_row_trace():
    # t_end = dt at stride 2 samples only t = 0: one point per polyline
    trace, _ = run(parse_scenario(MINIMAL + "sim.t_end = 0.001\nsim.stride = 2\n"))
    assert trace.n_rows == 1
    root = ET.fromstring(render_svg(trace, ["agent0_vel"]))
    lines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
    # the one point sits at the left edge, mid-height (a constant series)
    assert [el.get("points") for el in lines] == ["66.00,209.00"]


def test_svg_escapes_its_title():
    _, trace, _ = short_run()
    root = ET.fromstring(render_svg(trace, ["rms"], title="a < b & c"))
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a < b & c" in texts
