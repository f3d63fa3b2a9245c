"""Records and run check their values through the key table's one loop.

PlantParams, PoleSpec, Gains and InteractionParams are keys.Record
subclasses: each names its fields' keys once, when the class is made, so a
construction looks no key up by group and reads no key through the index
regex.  build_world, and so run, checks a Scenario with
scenario.check_scenario, the parser's check of the relations between
fields, so a Scenario built in Python that breaks sim.t_end or
sim.stride, or a relation, fails with the key named, as one from a
scenario file does, and with the parser's message.
"""

import math
from dataclasses import fields, replace

import pytest

from swarmform import (ConfigurationError, Gains, InteractionParams, InteractionVariant,
                       PlantParams, PoleSpec, ScenarioError, build_world, keys, parse_scenario,
                       parse_scenario_with, run, serialize_scenario)
from swarmform.scenario import AgentInit, Command, Scenario

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
                           replace(EDGED, commands=(Command(0.01, "uncouple", 5),))),
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
