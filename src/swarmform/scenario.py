"""Scenario configuration: parsing, validation and serialisation.

A scenario is flat ``key = value`` text with dotted keys, one setting per
line, ``#`` comments allowed:

    plant.kp = 6.0                  angle-loop gain (1/s)
    plant.kd = 25.0                 rate-loop gain (1/s)
    plant.g = 9.8                   gravity (m/s^2)
    poles.rl = 12.0                 damped-pair real part (>= 0)
    poles.iml = 0.1                 damped-pair imaginary part
    poles.imr = 0.55                undamped-pair imaginary part (> 0)
    gains.kpos/.kvel/.ktilt/.krate  explicit gains instead of poles.*
    sim.dt = 0.001                  integration step (s), default 0.001
    sim.t_end = 40.0                duration (s), default 40
    sim.stride = 10                 trace sampling stride, default 10
    interaction.variant = repulsion | attraction | switching_step | switching_smooth
    interaction.c_max = 0.05        commanded-tilt saturation (rad)
    interaction.d_t = 30.0          required coupling distance (m)
    interaction.eps = 0.1           switching neighbourhood half-width (m)
    interaction.k1 = ...            stiffness override, default k_pos
    agent[i].pos/.vel               initial position (m) / velocity (m/s)
    agent[i].tilt/.rate             initial tilt (rad) / tilt rate (rad/s), default 0
    agent[i].radius                 interaction radius (m)
    edge[k].a / edge[k].b           coupled pair (formation graph)
    command[m].t/.kind/.edge        scheduled command; kind: uncouple

Agent, edge and command indices must each be contiguous from 0.  Every
validation error names the offending key.
"""

import math
import re
from dataclasses import dataclass

from .errors import ConfigurationError, ScenarioError, SynthesisError
from .interaction import InteractionVariant
from .modal import Gains, PoleSpec, place_gains, poles_from_spec
from .plant import PlantParams

_DEFAULT_DT = 0.001
_DEFAULT_T_END = 40.0
_DEFAULT_STRIDE = 10


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
    kind: str
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
        if self.explicit_gains is not None:
            k_pos, k_vel, k_tilt, k_rate = self.explicit_gains
        else:
            g = place_gains(self.plant, poles_from_spec(self.poles))
            k_pos, k_vel, k_tilt, k_rate = g.k_pos, g.k_vel, g.k_tilt, g.k_rate
        return Gains(k_pos, k_vel, k_tilt, k_rate,
                     k_pos if self.k1 is None else self.k1)


def read_entries(text):
    """Split scenario text into a key -> raw-value mapping."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in entries:
            raise ScenarioError(f"{key}: duplicate key")
        entries[key] = value
    return entries


def parse_scenario(text):
    return build_scenario(read_entries(text))


def parse_scenario_with(text, overrides):
    """Parse with key overrides applied on top of the file's entries (used
    for command-line --dt/--t-end style adjustments and parameter sweeps)."""
    entries = read_entries(text)
    for key, value in overrides.items():
        entries[key] = value if isinstance(value, str) else format(value, ".17g")
    return build_scenario(entries)


_FLOAT_KEYS = re.compile(
    r"^(plant\.(kp|kd|g)"
    r"|poles\.(rl|iml|imr)"
    r"|gains\.(kpos|kvel|ktilt|krate)"
    r"|sim\.(dt|t_end)"
    r"|interaction\.(c_max|d_t|eps|k1)"
    r"|agent\[\d+\]\.(pos|vel|tilt|rate|radius)"
    r"|command\[\d+\]\.t)$")


def is_scalar_key(key):
    """True for keys that hold a single real number (the sweepable ones)."""
    return _FLOAT_KEYS.match(key) is not None


class _Entries:
    """Consume-and-track view over the raw key/value map."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def take(self, key, default=None, required=False):
        if key in self.entries:
            return self.entries.pop(key)
        if required:
            raise ScenarioError(f"{key}: required key missing")
        return default

    def take_float(self, key, default=None, required=False):
        raw = self.take(key, required=required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ScenarioError(f"{key}: not a number: {raw!r}")
        if not math.isfinite(value):
            raise ScenarioError(f"{key}: must be finite, got {raw!r}")
        return value

    def take_int(self, key, default=None, required=False):
        raw = self.take(key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ScenarioError(f"{key}: not an integer: {raw!r}")

    def group_indices(self, prefix):
        """Contiguous 0..N-1 indices present for agent[i]/edge[i]/command[i]."""
        pat = re.compile(re.escape(prefix) + r"\[(\d+)\]\.")
        found = {int(m.group(1)) for key in self.entries if (m := pat.match(key))}
        if not found:
            return 0
        top = max(found)
        missing = set(range(top + 1)) - found
        if missing:
            raise ScenarioError(
                f"{prefix}[{min(missing)}]: indices must be contiguous from 0 "
                f"(saw {prefix}[{top}])")
        return top + 1

    def reject_leftovers(self):
        if self.entries:
            key = sorted(self.entries)[0]
            raise ScenarioError(f"{key}: unknown key")


def _positive(value, key):
    if not value > 0:
        raise ScenarioError(f"{key}: must be > 0, got {value}")
    return value


def build_scenario(entries):
    e = _Entries(entries)

    kp = _positive(e.take_float("plant.kp", required=True), "plant.kp")
    kd = _positive(e.take_float("plant.kd", required=True), "plant.kd")
    g = _positive(e.take_float("plant.g", required=True), "plant.g")
    plant = PlantParams(kp, kd, g)

    have_poles = any(f"poles.{k}" in e.entries for k in ("rl", "iml", "imr"))
    have_gains = any(f"gains.{k}" in e.entries for k in ("kpos", "kvel", "ktilt", "krate"))
    if have_poles and have_gains:
        raise ScenarioError("gains.kpos: poles.* and gains.* are mutually exclusive")
    poles = None
    explicit = None
    if have_gains:
        explicit = tuple(e.take_float(f"gains.{k}", required=True)
                         for k in ("kpos", "kvel", "ktilt", "krate"))
        if explicit[0] == 0:
            raise ScenarioError("gains.kpos: must be nonzero (corrected coordinates divide by it)")
    else:
        rl = e.take_float("poles.rl", required=True)
        iml = e.take_float("poles.iml", required=True)
        imr = e.take_float("poles.imr", required=True)
        if rl < 0:
            raise ScenarioError(f"poles.rl: must be >= 0, got {rl}")
        if imr <= 0:
            raise ScenarioError(f"poles.imr: must be > 0, got {imr}")
        poles = PoleSpec(rl, iml, imr)

    dt = _positive(e.take_float("sim.dt", default=_DEFAULT_DT), "sim.dt")
    t_end = _positive(e.take_float("sim.t_end", default=_DEFAULT_T_END), "sim.t_end")
    stride = e.take_int("sim.stride", default=_DEFAULT_STRIDE)
    if stride < 1:
        raise ScenarioError(f"sim.stride: must be >= 1, got {stride}")
    if t_end < dt:
        raise ScenarioError(f"sim.t_end: must cover at least one step of sim.dt={dt}")

    variant_raw = e.take("interaction.variant", required=True)
    try:
        variant = InteractionVariant(variant_raw)
    except ValueError:
        names = ", ".join(v.value for v in InteractionVariant)
        raise ScenarioError(f"interaction.variant: unknown variant {variant_raw!r} (one of: {names})")
    c_max = _positive(e.take_float("interaction.c_max", required=True), "interaction.c_max")
    d_t = _positive(e.take_float("interaction.d_t", required=True), "interaction.d_t")
    eps = _positive(e.take_float("interaction.eps", required=True), "interaction.eps")
    k1 = e.take_float("interaction.k1")

    n_agents = e.group_indices("agent")
    if n_agents == 0:
        raise ScenarioError("agent[0].pos: at least one agent is required")
    agents = []
    for i in range(n_agents):
        pos = e.take_float(f"agent[{i}].pos", required=True)
        vel = e.take_float(f"agent[{i}].vel", required=True)
        tilt = e.take_float(f"agent[{i}].tilt", default=0.0)
        rate = e.take_float(f"agent[{i}].rate", default=0.0)
        radius = _positive(e.take_float(f"agent[{i}].radius", required=True),
                           f"agent[{i}].radius")
        agents.append(AgentInit(pos, vel, tilt, rate, radius))

    n_edges = e.group_indices("edge")
    edges = []
    for k in range(n_edges):
        a = e.take_int(f"edge[{k}].a", required=True)
        b = e.take_int(f"edge[{k}].b", required=True)
        if not (0 <= a < n_agents and 0 <= b < n_agents):
            raise ScenarioError(f"edge[{k}].a: endpoints must name existing agents, got ({a}, {b})")
        if a == b:
            raise ScenarioError(f"edge[{k}].a: endpoints must be distinct, got ({a}, {b})")
        a, b = min(a, b), max(a, b)
        if (a, b) in edges:
            raise ScenarioError(f"edge[{k}].a: duplicate edge ({a}, {b})")
        rsum = agents[a].radius + agents[b].radius
        if not d_t < rsum:
            raise ScenarioError(
                f"edge[{k}].a: interaction.d_t={d_t} violates d_t < R_a + R_b = {rsum} "
                "(the coupling distance must lie inside the pair's interaction range)")
        edges.append((a, b))

    n_cmds = e.group_indices("command")
    commands = []
    for m in range(n_cmds):
        t = e.take_float(f"command[{m}].t", required=True)
        kind = e.take(f"command[{m}].kind", required=True)
        edge = e.take_int(f"command[{m}].edge", required=True)
        if kind != "uncouple":
            raise ScenarioError(f"command[{m}].kind: unknown kind {kind!r} (supported: uncouple)")
        if not 0.0 <= t <= t_end:
            raise ScenarioError(f"command[{m}].t: must lie in [0, t_end={t_end}], got {t}")
        if not 0 <= edge < n_edges:
            raise ScenarioError(f"command[{m}].edge: no such edge {edge}")
        commands.append(Command(t, kind, edge))

    e.reject_leftovers()

    scenario = Scenario(plant, poles, explicit, tuple(agents), variant,
                        c_max, d_t, eps, k1, tuple(edges), tuple(commands),
                        dt, t_end, stride)
    # Synthesis must succeed for the scenario to be runnable; surface the
    # failure at parse time with a key attached.
    try:
        scenario.resolved_gains()
    except (ConfigurationError, SynthesisError) as err:
        raise ScenarioError(f"poles.rl: gain synthesis failed: {err}")
    return scenario


def _fmt(value):
    return format(value, ".17g")


def serialize_scenario(s):
    """Scenario back to its text form (parse round-trips to an equal value)."""
    lines = []
    lines.append(f"plant.kp = {_fmt(s.plant.k_p)}")
    lines.append(f"plant.kd = {_fmt(s.plant.k_d)}")
    lines.append(f"plant.g = {_fmt(s.plant.g)}")
    if s.explicit_gains is not None:
        for name, v in zip(("kpos", "kvel", "ktilt", "krate"), s.explicit_gains):
            lines.append(f"gains.{name} = {_fmt(v)}")
    else:
        lines.append(f"poles.rl = {_fmt(s.poles.rl)}")
        lines.append(f"poles.iml = {_fmt(s.poles.iml)}")
        lines.append(f"poles.imr = {_fmt(s.poles.imr)}")
    lines.append(f"sim.dt = {_fmt(s.dt)}")
    lines.append(f"sim.t_end = {_fmt(s.t_end)}")
    lines.append(f"sim.stride = {s.stride}")
    lines.append(f"interaction.variant = {s.variant.value}")
    lines.append(f"interaction.c_max = {_fmt(s.c_max)}")
    lines.append(f"interaction.d_t = {_fmt(s.d_t)}")
    lines.append(f"interaction.eps = {_fmt(s.eps)}")
    if s.k1 is not None:
        lines.append(f"interaction.k1 = {_fmt(s.k1)}")
    for i, a in enumerate(s.agents):
        lines.append(f"agent[{i}].pos = {_fmt(a.pos)}")
        lines.append(f"agent[{i}].vel = {_fmt(a.vel)}")
        lines.append(f"agent[{i}].tilt = {_fmt(a.tilt)}")
        lines.append(f"agent[{i}].rate = {_fmt(a.rate)}")
        lines.append(f"agent[{i}].radius = {_fmt(a.radius)}")
    for k, (a, b) in enumerate(s.edges):
        lines.append(f"edge[{k}].a = {a}")
        lines.append(f"edge[{k}].b = {b}")
    for m, c in enumerate(s.commands):
        lines.append(f"command[{m}].t = {_fmt(c.t)}")
        lines.append(f"command[{m}].kind = {c.kind}")
        lines.append(f"command[{m}].edge = {c.edge}")
    return "\n".join(lines) + "\n"
