"""The scenario key table, and the one check of a parameter value.

Every scenario key is a row of ``KEYS``: its type, default, bound and
meaning.  A text key's type is a string enum whose values are the ones it
accepts (``interaction.variant``, ``command[m].kind``).  ``convert`` reads
a value's text, from a scenario file or the command line, and ``check``
tests a typed value against a row's type and bound.  ``check_fields`` is
the one loop that checks values built in Python under their keys: each
``Record`` (``PlantParams``, ``PoleSpec``, ``Gains``,
``InteractionParams``) names its fields' keys once and hands it every
field, ``WorldConstants`` its ``dt`` and radii, and
``scenario.check_scenario`` the values its relations read.  So each bound
is stated here once and every error names the key.  This module imports
nothing of the package but its errors, so every other module can read it.
"""

import enum
import math
import numbers
import re

from .errors import ConfigurationError, ScenarioError

REQUIRED = "required"


class InteractionVariant(str, enum.Enum):
    REPULSION = "repulsion"
    ATTRACTION = "attraction"
    SWITCHING_STEP = "switching_step"
    SWITCHING_SMOOTH = "switching_smooth"

    def __str__(self):
        return self.value


class CommandKind(str, enum.Enum):
    UNCOUPLE = "uncouple"

    def __str__(self):
        return self.value


# Every scenario key: (type, default or REQUIRED, bound, meaning), the bound
# being "> 0", ">= 0" or None.  "[]" stands for an agent, edge or command
# index.  Within a group the keys are in the order the parser unpacks them
# and the serialiser writes them; a sim.* or interaction.* key sets the
# Scenario field of its last name.  `swarmform gains` takes its options
# from the plant.*, poles.* and interaction.k1 rows.
KEYS = {
    "plant.kp": (float, REQUIRED, "> 0", "angle-loop gain (1/s)"),
    "plant.kd": (float, REQUIRED, "> 0", "rate-loop gain (1/s)"),
    "plant.g": (float, REQUIRED, "> 0", "gravity (m/s^2)"),
    "poles.rl": (float, REQUIRED, ">= 0", "damped pair at -rl +/- i*iml"),
    "poles.iml": (float, REQUIRED, None, "imaginary part of the damped pair"),
    "poles.imr": (float, REQUIRED, "> 0", "undamped pair at +/- i*imr"),
    "gains.kpos": (float, REQUIRED, None, "position gain, instead of poles.*"),
    "gains.kvel": (float, REQUIRED, None, "velocity gain"),
    "gains.ktilt": (float, REQUIRED, None, "tilt gain"),
    "gains.krate": (float, REQUIRED, None, "tilt-rate gain"),
    "sim.dt": (float, 0.001, "> 0", "integration step (s)"),
    "sim.t_end": (float, 40.0, "> 0", "duration (s)"),
    "sim.stride": (int, 10, "> 0", "trace sampling stride"),
    "interaction.variant": (InteractionVariant, REQUIRED, None, "force law"),
    "interaction.c_max": (float, REQUIRED, "> 0", "commanded-tilt saturation (rad)"),
    "interaction.d_t": (float, REQUIRED, "> 0", "coupling distance (m)"),
    "interaction.eps": (float, REQUIRED, "> 0", "switching half-width (m)"),
    "interaction.k1": (float, None, None, "interaction stiffness (rad/m); default k_pos"),
    "agent[].pos": (float, REQUIRED, None, "initial position (m)"),
    "agent[].vel": (float, REQUIRED, None, "initial velocity (m/s)"),
    "agent[].tilt": (float, 0.0, None, "initial tilt (rad)"),
    "agent[].rate": (float, 0.0, None, "initial tilt rate (rad/s)"),
    "agent[].radius": (float, REQUIRED, "> 0", "interaction radius (m)"),
    "edge[].a": (int, REQUIRED, None, "one agent of a coupled pair (formation graph)"),
    "edge[].b": (int, REQUIRED, None, "the other agent of the pair"),
    "command[].t": (float, REQUIRED, None, "scheduled time (s), in [0, t_end]"),
    "command[].kind": (CommandKind, REQUIRED, None, "what the command does"),
    "command[].edge": (int, REQUIRED, None, "edge the command acts on"),
}


# One index grammar for keys: a decimal integer without leading zeros.
_INDEX = r"\[(0|[1-9]\d*)\]"


def _row(key):
    """The KEYS row of a concrete key (indices as digits), or None."""
    if "[]" not in key:
        return KEYS.get(key) or KEYS.get(re.sub(_INDEX, "[]", key))


def _keys(group, index=None):
    """The keys of one group ("plant", "agent", ...) in table order, with
    the index filled in."""
    prefix = group + ("." if index is None else "[].")
    return [k.replace("[]", f"[{index}]") for k in KEYS if k.startswith(prefix)]


def _field(key):
    """The Scenario field a sim.* or interaction.* key sets."""
    return key.rpartition(".")[2]


def is_scalar_key(key):
    """True for keys that hold a single real number (the sweepable ones)."""
    row = _row(key)
    return row is not None and row[0] is float


def convert(name, raw, kind=float, bound=None):
    """The text raw read as kind (float, int or a text key's enum) and
    passed through check, which raises a ScenarioError naming name.  Every
    number from a scenario file or the command line is read here."""
    try:
        # float and int would both read 6_0 as 60; check refuses the text
        value = raw if "_" in raw and kind in (float, int) else kind(raw)
    except ValueError:
        value = raw
    return check(name, value, kind, bound, ScenarioError, raw)


# the values a float or int key takes; bool, though an int, is refused apart
_NUMBERS = {float: numbers.Real, int: numbers.Integral}


def check(name, value, kind, bound, error, raw=None):
    """value, if it is of kind (a number for a float or int, never a bool),
    finite and within bound; else an error of the given type naming name.
    A message shows raw, the text value was read from, when given."""
    shown = repr(value if raw is None else raw)
    if isinstance(value, bool) or not isinstance(value, _NUMBERS.get(kind, kind)):
        if issubclass(kind, enum.Enum):
            names = ", ".join(v.value for v in kind)
            raise error(f"{name}: not of type {kind.__name__}: {shown}" if raw is None
                        else f"{name}: unknown value {shown} (one of: {names})")
        raise error(f"{name}: not {'a number' if kind is float else 'an integer'}: {shown}")
    if kind is float and not math.isfinite(value):
        raise error(f"{name}: must be finite, got {shown}")
    if bound and not (value > 0 if bound == "> 0" else value >= 0):
        raise error(f"{name}: must be {bound}, got {value}")
    return value


def check_fields(items, error=ConfigurationError):
    """check each (key, value) under its KEYS row, raising an `error`; an
    indexed key (agent[0].radius) under its row (agent[].radius).  The one
    check of a value built in Python."""
    for key, value in items:
        kind, _, bound, _ = _row(key)
        check(key, value, kind, bound, error)


def step_count(t_end, dt, error):
    """t_end / dt, the step count before rounding, of a checked sim.t_end
    and sim.dt.  One that overflows (a tiny dt) is an `error` naming
    sim.dt, for the parser and engine.run alike."""
    steps = t_end / dt
    if not math.isfinite(steps):
        raise error(f"sim.dt: too small for sim.t_end={t_end}: "
                    f"the step count t_end/dt overflows, got {dt}")
    return steps


class Record:
    """Base of the parameter records (frozen dataclasses).  A record names
    the scenario key of each of its fields once, in field order, as
    ``class PlantParams(Record, keys=_keys("plant"))``, and every
    construction checks each field under its key (check_fields)."""

    def __init_subclass__(cls, keys):
        cls.keys = tuple(keys)

    def __post_init__(self):
        # each field read as an attribute, with no astuple copy; vars(self)
        # would give the record a dict, and slow every later field read
        check_fields(zip(self.keys, map(self.__getattribute__, self.__dataclass_fields__)))
