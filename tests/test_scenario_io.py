"""Scenario parsing/serialisation and the CSV/report/SVG writers."""

import hashlib
import itertools
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from swarmform import (AgentInit, Command, ConfigurationError, InteractionVariant,
                       PlantParams, PoleSpec, Scenario, ScenarioError, build_world,
                       parse_scenario, parse_scenario_with, render_svg, run,
                       serialize_scenario, step, write_report, write_trace)
from swarmform.scenario import is_scalar_key

from conftest import SCENARIOS, scenario_text

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


SHIPPED = sorted(p.stem for p in SCENARIOS.glob("*.cfg"))
HOSTILE = ("0", "-1", "1e-320", "5e-324", "nan", "inf", "word", "9")


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


def test_svg_constant_series_far_from_zero():
    # a constant 1e16 m separation: the +/-1 pad vanishes against 1e16
    svg = render_svg(far_pair(0.0), ["pair0_d"])
    ET.fromstring(svg)


def test_svg_escapes_its_title():
    _, trace, _ = short_run()
    root = ET.fromstring(render_svg(trace, ["rms"], title="a < b & c"))
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a < b & c" in texts
