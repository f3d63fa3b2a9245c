"""Scenario configuration: parsing, validation and serialisation.

A scenario is flat ``key = value`` text with dotted keys, one setting per
line, ``#`` comments allowed.  Every key is a row of ``keys.KEYS``, which
gives its type, default, bound and meaning; parsing reads every value
through ``keys.convert``, and serialisation and the report read the same
table.  ``KEYS``, ``REQUIRED``, ``CommandKind``, ``InteractionVariant``,
``convert`` and ``is_scalar_key`` are importable from here too.

Either all of ``poles.*`` or all of ``gains.*`` give the feedback gains.
Agent, edge and command indices must each be contiguous from 0.  Every
validation error names the offending key.

``check_scenario`` states every relation between a scenario's fields
once (one gain source, a step count, agents, edges and command edges).
The parser applies it to the scenario it builds, and
``engine.build_world`` to every scenario it is given, so a ``Scenario``
built in Python is refused, with the parser's message, wherever a scenario
file would be.  The parser alone checks command times and synthesises the
gains.
"""

import re
from dataclasses import astuple, dataclass, replace
from itertools import zip_longest

from .errors import ScenarioError, SynthesisError
from .keys import (_INDEX, KEYS, REQUIRED, CommandKind, InteractionVariant,
                   _field, _keys, _row, check_fields, convert, is_scalar_key,
                   step_count)
from .modal import Gains, PoleSpec, place_gains, poles_from_spec
from .plant import PlantParams


def _fmt(value):
    """The text form of a value; floats keep 17 significant digits."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class AgentInit:
    pos: float
    vel: float
    tilt: float
    rate: float
    radius: float


@dataclass(frozen=True)
class Command:
    t: float
    kind: CommandKind
    edge: int


@dataclass(frozen=True)
class Scenario:
    plant: PlantParams
    poles: PoleSpec | None
    explicit_gains: tuple | None  # (k_pos, k_vel, k_tilt, k_rate) overriding pole placement
    agents: tuple
    variant: InteractionVariant
    c_max: float
    d_t: float
    eps: float
    k1: float | None
    edges: tuple
    commands: tuple
    dt: float
    t_end: float
    stride: int

    def resolved_gains(self):
        """Feedback gains actually used: explicit values or pole placement,
        with k1 defaulting to the position gain."""
        if self.explicit_gains is None:
            return place_gains(self.plant, poles_from_spec(self.poles), self.k1)
        k_pos = self.explicit_gains[0]
        return Gains(*self.explicit_gains, k_pos if self.k1 is None else self.k1)


def read_entries(text):
    """Split scenario text into a key -> raw-value mapping."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not (key and sep and value):
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in entries:
            raise ScenarioError(f"{key}: duplicate key")
        entries[key] = value
    return entries


def parse_scenario(text):
    return build_scenario(read_entries(text))


def parse_scenario_with(text, overrides):
    """Parse with key overrides, texts or values, applied on top of the
    file's entries (used for command-line --dt/--t-end style adjustments
    and parameter sweeps)."""
    entries = read_entries(text)
    for key, value in overrides.items():
        entries[key] = _fmt(value)
    return build_scenario(entries)


class _Entries:
    """Consume-and-track view over the raw key/value map."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def take(self, key):
        if key not in self.entries:
            raise ScenarioError(f"{key}: required key missing")
        return self.entries.pop(key)

    def value(self, key):
        """The value of a key, or its default when absent, read by convert
        with its type and bound in KEYS."""
        kind, default, bound, _ = _row(key)
        if key not in self.entries and default is not REQUIRED:
            return default
        return convert(key, self.take(key), kind, bound)

    def group_indices(self, prefix):
        """Contiguous 0..N-1 indices present for agent[i]/edge[i]/command[i]."""
        pat = re.compile(re.escape(prefix) + _INDEX + r"\.")
        found = {int(m.group(1)) for key in self.entries if (m := pat.match(key))}
        if found != set(range(len(found))):
            missing = min(set(range(len(found) + 1)) - found)
            raise ScenarioError(f"{prefix}[{missing}]: indices must be contiguous from 0 "
                                f"(saw {prefix}[{max(found)}])")
        return len(found)

    def reject_leftovers(self):
        if self.entries:
            raise ScenarioError(f"{min(self.entries)}: unknown key")


def check_scenario(s, error):
    """Every relation between the fields of the scenario s, raised as an
    `error` that names a key: first the values the relations read (sim.*,
    interaction.d_t and each agent's radius) under their keys, as a
    scenario file's are; then exactly one gain source; a t_end of at least
    one step and a step count t_end/dt that does not overflow; at least one
    agent; edges that join two distinct existing agents, each once, with
    d_t < R_a + R_b; commands on existing edges.  The parser calls it with
    ScenarioError, build_world with ConfigurationError.  Command times,
    gain synthesis and the invariants of WorldConstants and World are
    checked elsewhere."""
    check_fields([("sim.dt", s.dt), ("sim.t_end", s.t_end), ("sim.stride", s.stride),
                  ("interaction.d_t", s.d_t),
                  *((f"agent[{i}].radius", a.radius) for i, a in enumerate(s.agents))], error)
    if (s.poles is None) == (s.explicit_gains is None):
        raise error("gains.kpos: poles.* and gains.* are mutually exclusive"
                    if s.poles is not None else "poles.rl: one of poles.* and gains.* is required")
    if s.t_end < s.dt:
        raise error(f"sim.t_end: must cover at least one step of sim.dt={s.dt}")
    step_count(s.t_end, s.dt, error)
    if not s.agents:
        raise error("agent[0].pos: at least one agent is required")
    n_agents, seen = len(s.agents), set()
    for k, (a, b) in enumerate(s.edges):
        if not (0 <= a < n_agents and 0 <= b < n_agents):
            raise error(f"edge[{k}].a: endpoints must name existing agents, got ({a}, {b})")
        if a == b:
            raise error(f"edge[{k}].a: endpoints must be distinct, got ({a}, {b})")
        edge = (min(a, b), max(a, b))
        if edge in seen:
            raise error(f"edge[{k}].a: duplicate edge {edge}")
        seen.add(edge)
        rsum = s.agents[a].radius + s.agents[b].radius
        if not s.d_t < rsum:
            raise error(
                f"edge[{k}].a: interaction.d_t={s.d_t} violates d_t < R_a + R_b = {rsum} "
                "(the coupling distance must lie inside the pair's interaction range)")
    for m, command in enumerate(s.commands):
        if not 0 <= command.edge < len(s.edges):
            raise error(f"command[{m}].edge: no such edge {command.edge}")


def build_scenario(entries):
    e = _Entries(entries)

    plant = PlantParams(*map(e.value, _keys("plant")))
    # the gain group whose keys are present, poles.* if neither is
    have_poles = any(k in e.entries for k in _keys("poles"))
    have_gains = any(k in e.entries for k in _keys("gains"))
    poles = PoleSpec(*map(e.value, _keys("poles"))) if have_poles or not have_gains else None
    explicit = tuple(map(e.value, _keys("gains"))) if have_gains else None
    settings = {_field(k): e.value(k) for k in _keys("sim") + _keys("interaction")}
    agents = tuple(AgentInit(*map(e.value, _keys("agent", i)))
                   for i in range(e.group_indices("agent")))
    edges = tuple(tuple(map(e.value, _keys("edge", k))) for k in range(e.group_indices("edge")))
    commands = tuple(Command(*map(e.value, _keys("command", m)))
                     for m in range(e.group_indices("command")))
    scenario = Scenario(plant=plant, poles=poles, explicit_gains=explicit, agents=agents,
                        edges=edges, commands=commands, **settings)
    check_scenario(scenario, ScenarioError)
    for m, command in enumerate(commands):
        if not 0.0 <= command.t <= scenario.t_end:
            raise ScenarioError(f"command[{m}].t: must lie in [0, t_end={scenario.t_end}], "
                                f"got {command.t}")
    e.reject_leftovers()

    # a file may name an edge's agents in either order; the engine takes a < b
    scenario = replace(scenario, edges=tuple((min(edge), max(edge)) for edge in edges))
    # The scenario runs only if synthesis succeeds and leaves k_pos != 0;
    # check both here, with a key attached.
    try:
        gains = scenario.resolved_gains()
    except SynthesisError as err:
        raise ScenarioError(f"poles.rl: gain synthesis failed: {err}")
    if gains.k_pos == 0:
        key = "poles.rl" if explicit is None else "gains.kpos"
        raise ScenarioError(f"{key}: k_pos must be nonzero (corrected coordinates divide by it)")
    return scenario


def _values(s):
    """Every key of a scenario and its value, in KEYS order; an absent
    optional value (interaction.k1, and poles.* or gains.*) is None."""
    settings = _keys("sim") + _keys("interaction")
    groups = [(_keys("plant"), astuple(s.plant)),
              (_keys("poles"), () if s.poles is None else astuple(s.poles)),
              (_keys("gains"), s.explicit_gains or ()),
              (settings, [getattr(s, _field(k)) for k in settings]),
              *((_keys("agent", i), astuple(agent)) for i, agent in enumerate(s.agents)),
              *((_keys("edge", k), edge) for k, edge in enumerate(s.edges)),
              *((_keys("command", m), astuple(c)) for m, c in enumerate(s.commands))]
    return {key: value for keys, values in groups for key, value in zip_longest(keys, values)}


def serialize_scenario(s):
    """Scenario back to its text form (parse round-trips to an equal value)."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in _values(s).items()
                   if value is not None)
