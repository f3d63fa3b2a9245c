"""Closed-loop multi-agent simulation engine.

One step advances the whole world deterministically:

  1. corrected position of every agent
  2. pair geometry of every declared edge, plus every undeclared agent
     couple (the latter interact by plain repulsion when their spheres
     overlap -- collision avoidance between agents that are not part of
     the formation graph)
  3. coupling state machine of every declared edge, with any uncouple
     commands that latched this step
  4. force of each unordered pair evaluated once and applied with opposite
     signs to its two agents, so pair contributions cancel in the sum
  5. per-agent command sum clamped to the tilt saturation (a clipped sum no
     longer cancels, and the swarm's velocity sum drifts: velocity_sum_drift)
  6. one Runge-Kutta step per agent under the held command

A run samples the world every `stride` steps into a Trace (the velocity
columns are the observed model output) and derives Metrics from it.
"""

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .errors import ConfigurationError, ModelValidityWarning, NumericDomainError, SimulationAbort
from .interaction import (InteractionParams, PairState, corrected_position,
                          force_repulsion, pair_force, pair_geometry, saturate,
                          update_pair)
from .plant import AgentState, rk4_step

TILT_LIMIT = 0.5  # rad; beyond this the small-angle model is suspect


@dataclass(frozen=True)
class World:
    """Complete simulation state after k steps of dt.

    edges holds the declared formation edges as (a, b) agent indices with
    a < b, and pairs[k] the coupling state of edges[k].
    """

    k: int
    agents: tuple
    radii: tuple
    edges: tuple
    pairs: tuple
    gains: object
    plant: object
    params: object  # interaction parameters shared by every pair, declared or not
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"world dt must be > 0, got {self.dt}")
        if len(self.radii) != len(self.agents):
            raise ConfigurationError("one interaction radius per agent required")
        if len(self.pairs) != len(self.edges):
            raise ConfigurationError("one coupling state per declared edge required")
        n = len(self.agents)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n and a < b):
                raise ConfigurationError(
                    f"edge ({a}, {b}) must reference distinct agents as a < b, n={n}")

    @property
    def t(self):
        return self.k * self.dt


def pair_slots(n_agents, edges):
    """Trace bookkeeping slots: declared edges first, then every unordered
    agent couple (monitored for range interactions)."""
    slots = [("edge", a, b) for a, b in edges]
    for i in range(n_agents):
        for j in range(i + 1, n_agents):
            slots.append(("range", i, j))
    return tuple(slots)


def _controls(world, active_commands):
    """Stages 1-5 of a step: pair bookkeeping and per-agent commands.

    Returns (commands, updated pair states, slot separations).
    """
    prm = world.params
    pstar = [corrected_position(s, world.gains) for s in world.agents]
    n = len(pstar)
    us = [0.0] * n
    slot_d = []
    new_pairs = []
    for k, ((a, b), pair) in enumerate(zip(world.edges, world.pairs)):
        geom = pair_geometry(pstar[a], pstar[b], world.radii[a], world.radii[b], prm.d_t)
        state = update_pair(pair, geom, prm, k in active_commands)
        f = pair_force(geom, state, prm)
        us[a] += f
        us[b] -= f
        new_pairs.append(state)
        slot_d.append(geom.d)

    declared = set(world.edges)
    for i in range(n):
        for j in range(i + 1, n):
            geom = pair_geometry(pstar[i], pstar[j], world.radii[i], world.radii[j], prm.d_t)
            if (i, j) not in declared and abs(geom.d) < geom.r_sum:
                f = force_repulsion(geom, prm)
                us[i] += f
                us[j] -= f
            slot_d.append(geom.d)

    return [saturate(u, prm.c_max) for u in us], tuple(new_pairs), slot_d


def _integrate(world, us):
    new_agents = []
    for idx, (s, u) in enumerate(zip(world.agents, us)):
        s2 = rk4_step(s, u, world.dt, world.plant)
        if not (math.isfinite(s2.pos) and math.isfinite(s2.vel)
                and math.isfinite(s2.tilt) and math.isfinite(s2.tilt_rate)):
            raise SimulationAbort((world.k + 1) * world.dt, idx, s2)
        new_agents.append(s2)
    return replace(world, k=world.k + 1, agents=tuple(new_agents))


def step(world, active_commands=frozenset()):
    """Advance the world by one step.  `active_commands` holds the indices
    of edges whose uncouple command latches at this instant."""
    us, pairs, _ = _controls(world, active_commands)
    return _integrate(replace(world, pairs=pairs), us)


@dataclass(frozen=True)
class Trace:
    """Sampled time series of a run.

    Columns: t, then AGENT_FIELDS per agent, then SLOT_FIELDS per pair
    slot, then the swarm RMS velocity.
    """

    AGENT_FIELDS = ("pos", "vel", "tilt", "rate", "u")
    SLOT_FIELDS = ("d", "fen")

    data: np.ndarray
    dt: float
    stride: int
    n_agents: int
    slots: tuple
    slot_rsums: tuple

    @cached_property
    def columns(self):
        return ("t",
                *(f"agent{i}_{f}" for i in range(self.n_agents) for f in self.AGENT_FIELDS),
                *(f"pair{k}_{f}" for k in range(len(self.slots)) for f in self.SLOT_FIELDS),
                "rms")

    def block(self, field):
        """(rows, n) view of one field: n_agents columns for an agent field,
        one column per pair slot for a slot field."""
        na, ns = len(self.AGENT_FIELDS), len(self.SLOT_FIELDS)
        base = 1 + na * self.n_agents  # first slot column
        if field in self.AGENT_FIELDS:
            return self.data[:, 1 + self.AGENT_FIELDS.index(field):base:na]
        if field in self.SLOT_FIELDS:
            return self.data[:, base + self.SLOT_FIELDS.index(field):base + ns * len(self.slots):ns]
        raise KeyError(f"unknown trace field {field!r}; available: "
                       + ", ".join(self.AGENT_FIELDS + self.SLOT_FIELDS))

    def column(self, name):
        try:
            return self.data[:, self.columns.index(name)]
        except ValueError:
            raise KeyError(f"unknown trace column {name!r}; available: {', '.join(self.columns)}")

    @property
    def n_rows(self):
        return self.data.shape[0]


@dataclass(frozen=True)
class DeltaRmsResult:
    value: float | None
    rms_before: float
    rms_after: float
    reason: str | None = None


@dataclass(frozen=True)
class Metrics:
    rms_before: float
    rms_after: float
    delta_rms: float | None
    delta_reason: str | None
    coupling_events: tuple
    uncoupling_events: tuple
    velocity_sum_drift: float


def rms_velocity(velocities):
    """Root of the mean squared agent velocity."""
    vals = list(velocities)
    if not vals:
        raise NumericDomainError("RMS velocity of an empty swarm is undefined")
    return math.sqrt(sum(v * v for v in vals) / len(vals))


def build_world(scenario):
    """Materialise a scenario into the initial World."""
    gains = scenario.resolved_gains()
    params = InteractionParams(scenario.c_max, scenario.d_t, scenario.eps,
                               scenario.variant, gains.k1)
    agents = tuple(AgentState(a.pos, a.vel, a.tilt, a.rate) for a in scenario.agents)
    radii = tuple(a.radius for a in scenario.agents)
    pairs = (PairState(),) * len(scenario.edges)
    return World(0, agents, radii, scenario.edges, pairs, gains, scenario.plant,
                 params, scenario.dt)


def run(scenario):
    """Execute a scenario from t = 0 to t_end.  Returns (Trace, Metrics)."""
    world = build_world(scenario)
    dt = scenario.dt
    stride = scenario.stride
    n_steps = int(round(scenario.t_end / dt))
    if n_steps < 1:
        raise ConfigurationError(f"t_end {scenario.t_end} shorter than one step dt={dt}")

    slots = pair_slots(len(world.agents), world.edges)
    slot_rsums = tuple(world.radii[i] + world.radii[j] for _, i, j in slots)

    commands = scenario.commands
    fired = [False] * len(commands)
    rows = []
    coupling_events = []
    uncoupling_events = []
    tilt_warned = False

    for k in range(n_steps + 1):
        t_k = world.t
        active = set()
        for ci, cmd in enumerate(commands):
            if not fired[ci] and t_k >= cmd.t - 1e-9:
                fired[ci] = True
                active.add(cmd.edge)

        us, pairs, slot_d = _controls(world, active)
        for e, (old, new) in enumerate(zip(world.pairs, pairs)):
            if new.f_en != old.f_en:
                (coupling_events if new.f_en else uncoupling_events).append((e, t_k))
        world = replace(world, pairs=pairs)

        if k % stride == 0:
            row = [t_k]
            for s, u in zip(world.agents, us):
                row += [s.pos, s.vel, s.tilt, s.tilt_rate, u]
            # monitored couples carry no coupling state: their indicator is 0
            for d, fen in zip_longest(slot_d, (p.f_en for p in world.pairs), fillvalue=0):
                row += [d, fen]
            row.append(rms_velocity(s.vel for s in world.agents))
            rows.append(row)

        if not tilt_warned and any(abs(s.tilt) > TILT_LIMIT for s in world.agents):
            tilt_warned = True
            warnings.warn(
                f"tilt exceeded {TILT_LIMIT} rad at t={t_k:.3f} s; "
                "small-angle model validity is doubtful", ModelValidityWarning)

        if k < n_steps:
            world = _integrate(world, us)

    trace = Trace(np.asarray(rows, dtype=float), dt, stride,
                  len(world.agents), slots, slot_rsums)
    dres = delta_rms(trace)
    vsums = sum(trace.block("vel").T)  # left to right; .sum(axis=1) rounds differently
    drift = float(np.max(np.abs(vsums - vsums[0])))
    metrics = Metrics(dres.rms_before, dres.rms_after, dres.value, dres.reason,
                      tuple(coupling_events), tuple(uncoupling_events), drift)
    return trace, metrics


SETTLED_TILT = 1e-3  # rad; tilts below this count as settled flight
PRE_WINDOW = 0.5     # s of RMS history averaged right before first overlap
POST_WINDOW = 1.0    # s of settled, command-free flight averaged afterwards


def delta_rms(trace):
    """Relative change of the swarm RMS velocity across the interaction.

    Averages the RMS column over the last PRE_WINDOW seconds before any
    pair's spheres first overlap and over the first POST_WINDOW-second
    stretch afterwards in which every command is zero, every pair is
    uncoupled and every tilt has settled.  A trace without any overlap
    compares its first and last windows instead (zero for free flight).
    """
    sample_dt = trace.dt * trace.stride
    n_pre = max(1, int(round(PRE_WINDOW / sample_dt)))
    n_post = max(1, int(round(POST_WINDOW / sample_dt)))
    rms = trace.column("rms")
    n_rows = trace.n_rows

    overlap = (np.abs(trace.block("d")) < np.asarray(trace.slot_rsums)).any(axis=1)

    if not overlap.any():
        before = float(rms[:n_pre].mean())
        after = float(rms[-n_post:].mean())
        return _finish(before, after)

    first = int(np.argmax(overlap))
    if first < n_pre:
        return DeltaRmsResult(None, math.nan, math.nan,
                              f"only {first} pre-contact samples, need {n_pre}")
    before = float(rms[first - n_pre:first].mean())

    settled = ((trace.block("u") == 0.0).all(axis=1)
               & (np.abs(trace.block("tilt")) < SETTLED_TILT).all(axis=1)
               & (trace.block("fen") == 0.0).all(axis=1))

    start = None
    run_len = 0
    for i in range(first, n_rows):
        run_len = run_len + 1 if settled[i] else 0
        if run_len >= n_post:
            start = i - n_post + 1
            break
    if start is None:
        return DeltaRmsResult(None, before, math.nan,
                              "no settled command-free window after the interaction")
    after = float(rms[start:start + n_post].mean())
    return _finish(before, after)


def _finish(before, after):
    if before <= 0.0:
        return DeltaRmsResult(None, before, after, "pre-interaction RMS velocity is zero")
    return DeltaRmsResult(abs(after - before) / before, before, after)
