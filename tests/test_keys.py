"""The key table's checks on parameter records built in Python.

PlantParams, PoleSpec, Gains, InteractionParams and WorldConstants check
each of their fields through the KEYS row of the scenario key that sets it,
so a record built directly keeps the bounds a scenario file does, and its
error names that key.
"""

import math
from dataclasses import fields, replace

import pytest

from swarmform import (ConfigurationError, Gains, InteractionParams, InteractionVariant,
                       PlantParams, PoleSpec, ScenarioError, WorldConstants,
                       place_gains, poles_from_spec)
from swarmform.keys import KEYS, _field, _keys, _row, convert

PLANT = PlantParams(6.0, 25.0, 9.8)
SPEC = PoleSpec(12.0, 0.1, 0.55)
PARAMS = InteractionParams(0.05, 30.0, 0.1, InteractionVariant.SWITCHING_STEP, 0.5)
CONST = WorldConstants((20.0, 20.0), ((0, 1),), place_gains(PLANT, poles_from_spec(SPEC)),
                       PLANT, PARAMS, 0.001)

# the record each key's value lives in, and the field it sets
RECORDS = {"plant": PLANT, "poles": SPEC, "interaction": PARAMS, "sim": CONST}
FIELDS = {"plant.kp": "k_p", "plant.kd": "k_d", "plant.g": "g"}
RECORD_KEYS = _keys("plant") + _keys("poles") + _keys("interaction") + ["sim.dt"]

OUT_OF_BOUND = {"> 0": (0.0, -1.0), ">= 0": (-1e-300,), None: ()}
# (key, value, whether the value breaks the key's bound)
CASES = [(key, value, True) for key in RECORD_KEYS for value in OUT_OF_BOUND[KEYS[key][2]]]
CASES += [(key, value, False) for key in RECORD_KEYS
          for value in (math.nan, math.inf, -math.inf, True, False)]


def build(key, value):
    """The record of key, built again with value in the key's field."""
    record = RECORDS[key.partition(".")[0]]
    return replace(record, **{FIELDS.get(key, _field(key)): value})


@pytest.mark.parametrize("key, value, out_of_bound", CASES,
                         ids=[f"{k}={v!r}" for k, v, _ in CASES])
def test_a_record_built_in_python_names_the_key_it_breaks(key, value, out_of_bound):
    with pytest.raises(ConfigurationError) as err:
        build(key, value)
    assert str(err.value).startswith(f"{key}: ")
    if out_of_bound:  # worded as the scenario file's error is
        kind, _, bound, _ = KEYS[key]
        with pytest.raises(ScenarioError) as from_text:
            convert(key, repr(value), kind, bound)
        assert str(err.value) == str(from_text.value)


# Keys that build() cannot reach by group: an agent's radius is one entry of
# WorldConstants.radii, and interaction.k1 is a field of Gains as well as of
# InteractionParams
BUILD_ONE = {"agent[0].radius": lambda v: replace(CONST, radii=(v, 20.0)),
             "agent[1].radius": lambda v: replace(CONST, radii=(20.0, v)),
             **{key: lambda v, name=f.name: replace(CONST.gains, **{name: v})
                for key, f in zip((*_keys("gains"), "interaction.k1"), fields(Gains))}}
ONE_CASES = [(key, value, True) for key in BUILD_ONE for value in OUT_OF_BOUND[_row(key)[2]]]
ONE_CASES += [(key, value, False) for key in BUILD_ONE
              for value in (math.nan, math.inf, -math.inf, True, False)]


@pytest.mark.parametrize("key, value, out_of_bound", ONE_CASES,
                         ids=[f"{k}={v!r}" for k, v, _ in ONE_CASES])
def test_a_radius_or_gain_built_in_python_names_the_key_it_breaks(key, value, out_of_bound):
    with pytest.raises(ConfigurationError) as err:
        BUILD_ONE[key](value)
    assert str(err.value).startswith(f"{key}: ")
    if out_of_bound:  # worded as the scenario file's error is
        kind, _, bound, _ = _row(key)
        with pytest.raises(ScenarioError) as from_text:
            convert(key, repr(value), kind, bound)
        assert str(err.value) == str(from_text.value)


def test_a_record_refuses_a_bool_where_a_number_is_due():
    with pytest.raises(ConfigurationError, match=r"^plant\.kp: not a number: True$"):
        PlantParams(True, True, True)
    with pytest.raises(ConfigurationError, match=r"^sim\.dt: not a number: True$"):
        replace(CONST, dt=True)


def test_an_int_is_a_number():
    assert PlantParams(6, 25, 9.8).k_p == 6
    assert replace(CONST, dt=1).dt == 1


def test_a_variant_given_as_text_is_refused_as_not_of_the_enum_type():
    with pytest.raises(ConfigurationError,
                       match=r"^interaction\.variant: not of type InteractionVariant: 'repulsion'$"):
        replace(PARAMS, variant="repulsion")
    with pytest.raises(ScenarioError, match=r"^interaction\.variant: unknown value 'x' \(one of: "):
        convert("interaction.variant", "x", InteractionVariant)
