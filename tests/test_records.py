"""Records and run check their values through the key table's one loop.

PlantParams, PoleSpec, Gains and InteractionParams are keys.Record
subclasses: each names its fields' keys once, when the class is made, so a
construction looks no key up by group and reads no key through the index
regex.  build_world, and so run, checks a Scenario with
scenario.check_scenario, the parser's check of its fields and of the
relations between them, gain synthesis included, so a Scenario built in
Python that breaks sim.t_end or sim.stride, an edge, command or gain
field, or a relation, fails with the key named, as one from a scenario
file does: with the parser's ScenarioError and message.  A ScenarioError
is a ConfigurationError, so the tests that expect the latter hold it too.
"""

import math
from dataclasses import fields, replace

import pytest

from swarmform import (ConfigurationError, Gains, InteractionParams, InteractionVariant,
                       PlantParams, PoleSpec, ScenarioError, build_world, keys, parse_scenario,
                       parse_scenario_with, run, serialize_scenario)
from swarmform.scenario import AgentInit, Command, CommandKind, Scenario

from conftest import scenario_text

PLANT = PlantParams(6.0, 25.0, 9.8)
POLES = PoleSpec(12.0, 0.1, 0.55)
SCENARIO = Scenario(plant=PLANT, poles=POLES, explicit_gains=None,
                    agents=(AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                            AgentInit(100.0, -1.0, 0.0, 0.0, 20.0)),
                    variant=InteractionVariant.REPULSION, c_max=0.05, d_t=30.0, eps=0.1,
                    k1=None, edges=(), commands=(), dt=0.001, t_end=0.05, stride=10)


def _refuse(*_):
    raise AssertionError("a record construction looked a key up")


def test_a_record_construction_looks_no_key_up(monkeypatch):
    # re.sub is patched for the whole interpreter, so only while building
    with monkeypatch.context() as m:
        m.setattr(keys, "_keys", _refuse)
        m.setattr(keys.re, "sub", _refuse)
        built = (PlantParams(6.0, 25.0, 9.8), PoleSpec(12.0, 0.1, 0.55),
                 Gains(0.03, 0.4, 1.2, 0.07, 0.5),
                 InteractionParams(0.05, 30.0, 0.1, InteractionVariant.SWITCHING_STEP, 0.5))
    assert [r.__class__ for r in built] == [PlantParams, PoleSpec, Gains, InteractionParams]


@pytest.mark.parametrize("record", [PlantParams, PoleSpec, Gains, InteractionParams])
def test_a_record_names_one_key_per_field(record):
    assert len(record.keys) == len(fields(record))


BAD_RUN_VALUES = [("stride", 0), ("stride", -1), ("stride", 2.5), ("stride", True),
                  ("t_end", math.nan), ("t_end", math.inf), ("t_end", -math.inf)]


@pytest.mark.parametrize("field, value", BAD_RUN_VALUES,
                         ids=[f"{f}={v!r}" for f, v in BAD_RUN_VALUES])
def test_run_names_the_sim_key_it_cannot_use(field, value):
    with pytest.raises(ConfigurationError) as err:
        run(replace(SCENARIO, **{field: value}))
    assert str(err.value).startswith(f"sim.{field}: ")


EDGED = replace(SCENARIO, edges=((0, 1),))
# Scenarios built in Python that break a relation between fields, each
# with the key its error names; before build_world checked them, each ran
# (or failed) as its comment says
BROKEN = {
    "no gain source": ("poles.rl", replace(SCENARIO, poles=None)),  # AttributeError
    "both gain sources": ("gains.kpos",  # the explicit gains won
                          replace(SCENARIO, explicit_gains=(0.03, 0.005, -0.03, -0.006))),
    "command on no edge": ("command[0].edge",  # never fired
                           replace(EDGED, commands=(Command(0.01, CommandKind.UNCOUPLE, 5),))),
    "d_t out of range": ("edge[0].a", replace(EDGED, d_t=100.0)),  # never coupled
    "edge declared twice": ("edge[1].a", replace(SCENARIO, edges=((0, 1), (0, 1)))),  # 2x force
    "t_end below dt": ("sim.t_end", replace(SCENARIO, t_end=0.7 * SCENARIO.dt)),  # one step
    "no agent": ("agent[0].pos", replace(SCENARIO, agents=())),  # NumericDomainError
}


@pytest.mark.parametrize("case", BROKEN)
def test_a_scenario_built_in_python_is_refused_as_its_file_is(case):
    key, scenario = BROKEN[case]
    for entry in (run, build_world):
        with pytest.raises(ConfigurationError) as err:
            entry(scenario)
        assert str(err.value).startswith(f"{key}: ")
    if scenario.poles or scenario.explicit_gains:  # a file gives poles.* when it has neither
        with pytest.raises(ScenarioError) as from_text:
            parse_scenario(serialize_scenario(scenario))
        assert str(err.value) == str(from_text.value)


SHRUNK = (replace(SCENARIO.agents[0], radius=-1.0), SCENARIO.agents[1])


@pytest.mark.parametrize("key, scenario", [("interaction.d_t", replace(EDGED, d_t=math.nan)),
                                           ("agent[0].radius", replace(EDGED, agents=SHRUNK))])
def test_a_value_that_a_relation_reads_is_named_before_the_relation(key, scenario):
    # not reported as a coupling distance outside the edge's range
    with pytest.raises(ConfigurationError) as err:
        build_world(scenario)
    assert str(err.value).startswith(f"{key}: must be ")


def test_run_rejects_a_step_count_that_overflows_as_the_parser_does():
    message = ("sim.dt: too small for sim.t_end=1e+300: "
               "the step count t_end/dt overflows, got 1e-10")
    with pytest.raises(ConfigurationError) as err:
        run(replace(SCENARIO, t_end=1e300, dt=1e-10))
    assert str(err.value) == message
    with pytest.raises(ScenarioError) as err:
        parse_scenario_with(serialize_scenario(SCENARIO), {"sim.t_end": 1e300, "sim.dt": 1e-10})
    assert str(err.value) == message


def test_a_key_named_error_is_a_scenario_error_and_a_configuration_error():
    with pytest.raises(ScenarioError) as err:
        PlantParams(0.0, 25.0, 9.8)
    assert isinstance(err.value, ConfigurationError)
    assert str(err.value) == "plant.kp: must be > 0, got 0.0"


SWITCHING = parse_scenario_with(scenario_text("two_agent_switching_step"),
                                {"sim.t_end": 12.0, "command[0].t": 10.0})
# Scenarios built in Python whose gains cannot be used, with the start of
# each message; before check_scenario synthesised the gains, build_world
# raised the error in the comment, which named no key
NO_GAINS = {
    "no position gain placed": ("poles.rl: k_pos must be nonzero (",  # ConfigurationError
                                replace(SWITCHING, poles=PoleSpec(0.0, 0.0, 0.55))),
    "explicit k_pos = 0": ("gains.kpos: k_pos must be nonzero (",  # ConfigurationError
                           replace(SWITCHING, poles=None,
                                   explicit_gains=(0.0, 0.005, -0.03, -0.006))),
    "plant.g = 5e-324": ("poles.rl: gain synthesis failed: ",  # SynthesisError
                         replace(SWITCHING, plant=PlantParams(6.0, 25.0, 5e-324))),
    "poles.imr = 1e200": ("poles.rl: gain synthesis failed: ",  # SynthesisError
                          replace(SWITCHING, poles=replace(SWITCHING.poles, imr=1e200))),
}


@pytest.mark.parametrize("case", NO_GAINS)
def test_gains_that_cannot_be_used_are_refused_as_in_a_file(case):
    start, scenario = NO_GAINS[case]
    for entry in (run, build_world):
        with pytest.raises(ScenarioError) as err:
            entry(scenario)
        assert str(err.value).startswith(start)
    with pytest.raises(ScenarioError) as from_text:
        parse_scenario(serialize_scenario(scenario))
    assert str(err.value) == str(from_text.value)


def _agent0(**changes):
    return replace(SCENARIO, agents=(replace(SCENARIO.agents[0], **changes), SCENARIO.agents[1]))


# Fields of a Scenario built in Python that a relation reads or the run
# indexes with, an edge that is not a pair, and an agent's initial values,
# each with its message; before check_scenario checked them, each failed or
# ran as its comment says
BAD_FIELDS = {
    "edge agent 0.5": ("edge[0].a: not an integer: 0.5",  # TypeError
                       replace(SCENARIO, edges=((0.5, 1),))),
    "command edge 0.0": ("command[0].edge: not an integer: 0.0",  # ran
                         replace(EDGED, commands=(Command(0.01, CommandKind.UNCOUPLE, 0.0),))),
    "command kind 'explode'": ("command[0].kind: not of type CommandKind: 'explode'",  # uncoupled
                               replace(EDGED, commands=(Command(0.01, "explode", 0),))),
    "three explicit gains": ("gains.krate: gains.* takes 4 values, got 3",  # TypeError
                             replace(SCENARIO, poles=None, explicit_gains=(0.03, 0.005, -0.03))),
    "five explicit gains": ("gains.krate: gains.* takes 4 values, got 5",  # TypeError
                            replace(SCENARIO, poles=None, explicit_gains=(0.03,) * 5)),
    "no explicit gain": ("gains.kpos: gains.* takes 4 values, got 0",  # IndexError
                         replace(SCENARIO, poles=None, explicit_gains=())),
    "edge of one agent": ("edge[0].b: an edge joins 2 agents, got 1",  # ValueError: unpack
                          replace(SCENARIO, edges=((0,),))),
    "edge of three agents": ("edge[0].b: an edge joins 2 agents, got 3",  # ValueError: unpack
                             replace(SCENARIO, edges=((0, 1, 1),))),
    "velocity '1'": ("agent[0].vel: not a number: '1'", _agent0(vel="1")),  # TypeError in a step
    "position nan": ("agent[0].pos: must be finite, got nan", _agent0(pos=math.nan)),  # aborted
    "tilt True": ("agent[0].tilt: not a number: True", _agent0(tilt=True)),  # ran as 1.0 rad
    "rate inf": ("agent[0].rate: must be finite, got inf", _agent0(rate=math.inf)),  # aborted
}


@pytest.mark.parametrize("case", BAD_FIELDS)
def test_an_edge_command_or_gain_field_built_in_python_is_named(case):
    message, scenario = BAD_FIELDS[case]
    for entry in (run, build_world):
        with pytest.raises(ScenarioError) as err:
            entry(scenario)
        assert str(err.value) == message


def test_an_edge_may_name_its_agents_in_either_order():
    flipped = replace(SWITCHING, edges=((1, 0),))
    assert SWITCHING.edges == build_world(flipped).const.edges == ((0, 1),)
    (trace, metrics), (flipped_trace, flipped_metrics) = run(SWITCHING), run(flipped)
    assert metrics.coupling_events and metrics == flipped_metrics
    assert trace.data.tobytes() == flipped_trace.data.tobytes()
    # the parser puts a file's edge in the same order
    assert parse_scenario(serialize_scenario(flipped)) == SWITCHING
