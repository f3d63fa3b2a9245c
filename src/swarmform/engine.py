"""Closed-loop multi-agent simulation engine.

One step advances the whole world deterministically:

  1. corrected position of every agent
  2. pair geometry of every declared edge, plus every agent couple i < j
     (the range pass; the undeclared couples interact by plain repulsion
     when their spheres overlap -- collision avoidance between agents that
     are not part of the formation graph).  One cached couple table
     (_couples) lists the couples in trace-slot order.  From ARRAY_COUPLES
     couples on (n >= 5) the range pass is one pair_geometry call on its
     arrays; below that crossover it is a Python loop over its rows.  Either
     side only finds the undeclared couples in contact, and one loop then
     applies their repulsion in (i, j) order, so each agent adds its terms
     in the same order (edges by index, then contacts by (i, j)) and both
     sides give bit-identical commands
  3. coupling state machine of every declared edge, with any uncouple
     commands that latched this step
  4. force of each unordered pair evaluated once and applied with opposite
     signs to its two agents, so pair contributions cancel in the sum
  5. per-agent command sum clamped to the tilt saturation (a clipped sum no
     longer cancels, and the swarm's velocity sum drifts: velocity_sum_drift)
  6. one Runge-Kutta step per agent under the held command.  Below
     ARRAY_AGENTS agents the world holds one AgentState per agent and each
     takes its own rk4_step; from ARRAY_AGENTS on it holds one (n, 4)
     array, one rk4_stack call advances all agents and one np.isfinite
     call checks them.  rk4_stack does per element what rk4_step does, so
     both sides give bit-identical traces

A run samples the world every `stride` steps into a Trace (the velocity
columns are the observed model output) and derives Metrics from it.
"""

import math
import warnings
from array import array
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, ModelValidityWarning, NumericDomainError, SimulationAbort
from .interaction import (InteractionParams, PairState, corrected_position,
                          force_repulsion, pair_force, pair_geometry, saturate,
                          update_pair)
from .plant import AgentState, rk4_stack, rk4_step

TILT_LIMIT = 0.5  # rad; beyond this the small-angle model is suspect


@dataclass(frozen=True)
class WorldConstants:
    """The parts of a world that no step changes, validated once when built.

    edges holds the declared formation edges as (a, b) agent indices with
    a < b; radii holds one interaction radius per agent.
    """

    radii: tuple
    edges: tuple
    gains: object
    plant: object
    params: object  # interaction parameters shared by every pair, declared or not
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"world dt must be > 0, got {self.dt}")
        if self.gains.k_pos == 0:  # corrected positions divide by it
            raise ConfigurationError("corrected coordinates need k_pos != 0")
        n = len(self.radii)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n and a < b):
                raise ConfigurationError(
                    f"edge ({a}, {b}) must reference distinct agents as a < b, n={n}")


@dataclass(frozen=True)
class World:
    """Complete simulation state after k steps of const.dt.

    Only k, agents and pairs change from step to step; pairs[k] is the
    coupling state of const.edges[k].  Each step's dataclasses.replace
    copies these and the reference to const, whose checks ran once.

    agents holds one state per agent: a tuple of AgentState below
    ARRAY_AGENTS agents, and from it on a read-only (n, 4) float array whose
    rows are in AgentState field order (pos, vel, tilt, tilt_rate).
    build_world picks the form from the agent count.
    """

    k: int
    agents: tuple
    pairs: tuple
    const: WorldConstants

    def __post_init__(self):
        if len(self.const.radii) != len(self.agents):
            raise ConfigurationError("one interaction radius per agent required")
        if len(self.pairs) != len(self.const.edges):
            raise ConfigurationError("one coupling state per declared edge required")

    @property
    def edges(self):
        return self.const.edges

    @property
    def t(self):
        return self.k * self.const.dt


# Couples, n(n-1)/2, from which _controls evaluates the range pass as one
# array call per step instead of a Python loop.  engine.run per step on a
# line of n agents 100 m apart (switching_smooth, edges (0, 1), (2, 3), ...,
# 4 s in steps of 2 ms), best of 7, Python 3.11 and numpy 2.4, 2-core x86-64
# (BENCH_6.json):
#   n        2     3     4     5     6     7     8
#   couples  1     3     6     10    15    21    28
#   loop us  9.6   12.2  16.9  20.3  26.1  30.9  37.5
#   array us 14.5  15.7  18.6  19.8  22.8  24.1  26.9
ARRAY_COUPLES = 10

# Agents from which World.agents is one (n, 4) array and _integrate advances
# every agent with one rk4_stack call instead of one rk4_step per agent.
# engine.run per step on perfbench's lattice line of n agents (switching_smooth,
# neighbours closing in pairs, sim.dt 2 ms, 4 s = 2001 steps), per-agent path
# against the array path, same process, alternating, best of 7, CPU time,
# Python 3.11 and numpy 2.4, 2-core x86-64 (BENCH_10.json):
#   n         8     12    14    16    18    20    24    32    48
#   agent us  23.9  31.6  35.6  39.3  43.2  47.2  55.3  72.2  108.5
#   array us  34.6  38.1  39.8  41.3  42.8  44.6  48.0  56.6  76.1
ARRAY_AGENTS = 18


@lru_cache(maxsize=64)
def _couples(edges, radii):
    """The range pass's couple table: every agent couple i < j in the order
    of its trace slots, as rows (i, j, undeclared) and as the arrays
    (ci, cj, radii[ci], radii[cj], undeclared mask)."""
    ci, cj = np.triu_indices(len(radii), 1)
    r = np.asarray(radii, dtype=float)
    rows = tuple((i, j, (i, j) not in edges) for i, j in zip(ci.tolist(), cj.tolist()))
    arrays = (ci, cj, r[ci], r[cj], np.array([free for _, _, free in rows], dtype=bool))
    for a in arrays:
        a.flags.writeable = False  # shared by every step of every world with this key
    return rows, arrays


def _controls(world, active_commands):
    """Stages 1-5 of a step: pair bookkeeping and per-agent commands.

    Returns (commands, updated pair states, edge separations, range-pass
    separations).  The range-pass separations come as computed: a list
    below ARRAY_COUPLES, an array from it on.
    """
    const = world.const
    prm, radii, gains = const.params, const.radii, const.gains
    if isinstance(world.agents, np.ndarray):
        pos, vel, tilt, rate = world.agents.T
        # corrected_position's expression over the columns; WorldConstants
        # has checked k_pos != 0
        p = (gains.k_pos * pos + gains.k_vel * vel + gains.k_tilt * tilt
             + gains.k_rate * rate) / gains.k_pos
        pstar = p.tolist()
    else:
        pstar = p = [corrected_position(s, gains) for s in world.agents]
    us = [0.0] * len(pstar)
    edge_d = []
    new_pairs = []
    for k, ((a, b), pair) in enumerate(zip(const.edges, world.pairs)):
        geom = pair_geometry(pstar[a], pstar[b], radii[a], radii[b], prm.d_t)
        state = update_pair(pair, geom, prm, k in active_commands)
        f = pair_force(geom, state, prm)
        us[a] += f
        us[b] -= f
        new_pairs.append(state)
        edge_d.append(geom.d)

    couples, (ci, cj, r_i, r_j, undeclared) = _couples(const.edges, radii)
    if len(couples) < ARRAY_COUPLES:
        contacts = []
        range_d = []
        for i, j, free in couples:
            geom = pair_geometry(pstar[i], pstar[j], radii[i], radii[j], prm.d_t)
            if free and abs(geom.d) < geom.r_sum:
                contacts.append((i, j))
            range_d.append(geom.d)
    else:
        p = np.asarray(p)
        geom = pair_geometry(p[ci], p[cj], r_i, r_j, prm.d_t)
        hit = np.flatnonzero(undeclared & (np.abs(geom.d) < geom.r_sum))
        contacts = zip(ci[hit].tolist(), cj[hit].tolist())
        range_d = geom.d
    for i, j in contacts:  # undeclared couples in contact, in (i, j) order
        f = force_repulsion(
            pair_geometry(pstar[i], pstar[j], radii[i], radii[j], prm.d_t), prm)
        us[i] += f
        us[j] -= f

    return [saturate(u, prm.c_max) for u in us], tuple(new_pairs), edge_d, range_d


def _integrate(world, us):
    """Stage 6 of a step: advance every agent under its held command.
    Raises SimulationAbort with the first agent whose new state is not
    finite."""
    dt, plant = world.const.dt, world.const.plant
    if isinstance(world.agents, np.ndarray):
        x = rk4_stack(world.agents.T, us, dt, plant)
        finite = np.isfinite(x)
        if not finite.all():
            # a non-finite input gives a non-finite column, so the first bad
            # column is the agent the per-agent loop stops at; rk4_step on
            # it raises or returns what that loop raises or aborts with
            idx = int(finite.all(axis=0).argmin())
            bad = rk4_step(AgentState(*world.agents[idx].tolist()), us[idx], dt, plant)
            raise SimulationAbort((world.k + 1) * dt, idx, bad)
        return replace(world, k=world.k + 1, agents=_stacked(x))
    new_agents = []
    for idx, (s, u) in enumerate(zip(world.agents, us)):
        s2 = rk4_step(s, u, dt, plant)
        if not (math.isfinite(s2.pos) and math.isfinite(s2.vel)
                and math.isfinite(s2.tilt) and math.isfinite(s2.tilt_rate)):
            raise SimulationAbort((world.k + 1) * dt, idx, s2)
        new_agents.append(s2)
    return replace(world, k=world.k + 1, agents=tuple(new_agents))


def _stacked(x):
    """World.agents from a (4, n) stack of state rows: its read-only
    (n, 4) transpose, one row per agent."""
    x.flags.writeable = False
    return x.T


# Python floats overflow to inf and turn invalid operations into nan without a
# warning, and numpy warns.  step() and run() silence numpy here, so the array
# paths behave as the per-agent path does: _integrate's finiteness check
# reports the agent.
_FLOAT_SEMANTICS = {"over": "ignore", "invalid": "ignore"}


@np.errstate(**_FLOAT_SEMANTICS)
def step(world, active_commands=frozenset()):
    """Advance the world by one step.  `active_commands` holds the indices
    of edges whose uncouple command latches at this instant."""
    us, pairs, _, _ = _controls(world, active_commands)
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
    const = WorldConstants(tuple(a.radius for a in scenario.agents), scenario.edges,
                           gains, scenario.plant, params, scenario.dt)
    states = [(a.pos, a.vel, a.tilt, a.rate) for a in scenario.agents]
    if len(states) >= ARRAY_AGENTS:
        agents = _stacked(np.array(states, dtype=float).T)
    else:
        agents = tuple(AgentState(*s) for s in states)
    return World(0, agents, (PairState(),) * len(scenario.edges), const)


@np.errstate(**_FLOAT_SEMANTICS)
def run(scenario):
    """Execute a scenario from t = 0 to t_end.  Returns (Trace, Metrics)."""
    world = build_world(scenario)
    dt = scenario.dt
    stride = scenario.stride
    n_steps = int(round(scenario.t_end / dt))
    if n_steps < 1:
        raise ConfigurationError(f"t_end {scenario.t_end} shorter than one step dt={dt}")

    radii, edges = world.const.radii, world.const.edges
    couples, _ = _couples(edges, radii)
    slots = (*(("edge", a, b) for a, b in edges), *(("range", i, j) for i, j, _ in couples))
    slot_rsums = tuple(radii[i] + radii[j] for _, i, j in slots)
    n_cols = 2 + len(Trace.AGENT_FIELDS) * len(radii) + len(Trace.SLOT_FIELDS) * len(slots)

    firing = _firing_steps(scenario.commands, dt, n_steps)
    stacked = isinstance(world.agents, np.ndarray)
    samples = array("d")  # the sampled rows, one after another
    coupling_events = []
    uncoupling_events = []
    tilt_warned = False

    for k in range(n_steps + 1):
        t_k = world.t
        us, pairs, edge_d, range_d = _controls(world, firing.get(k, ()))
        for e, (old, new) in enumerate(zip(world.pairs, pairs)):
            if new.f_en != old.f_en:
                (coupling_events if new.f_en else uncoupling_events).append((e, t_k))
        world = replace(world, pairs=pairs)

        if k % stride == 0:
            if stacked:
                row = [t_k, *np.vstack((world.agents.T, us)).T.ravel().tolist()]
                vel = world.agents[:, 1].tolist()
            else:
                row = [t_k]
                for s, u in zip(world.agents, us):
                    row += (s.pos, s.vel, s.tilt, s.tilt_rate, u)
                vel = [s.vel for s in world.agents]
            for d, p in zip(edge_d, pairs):
                row += (d, p.f_en)
            # monitored couples carry no coupling state: their indicator is 0
            for d in range_d:
                row += (d, 0)
            row.append(rms_velocity(vel))
            samples.extend(row)

        if not tilt_warned and (
                np.abs(world.agents[:, 2]).max() > TILT_LIMIT if stacked
                else any(abs(s.tilt) > TILT_LIMIT for s in world.agents)):
            tilt_warned = True
            warnings.warn(
                f"tilt exceeded {TILT_LIMIT} rad at t={t_k:.3f} s; "
                "small-angle model validity is doubtful", ModelValidityWarning)

        if k < n_steps:
            world = _integrate(world, us)

    trace = Trace(np.frombuffer(samples).reshape(-1, n_cols), dt, stride,
                  len(world.agents), slots, slot_rsums)
    dres = delta_rms(trace)
    vsums = sum(trace.block("vel").T)  # left to right; .sum(axis=1) rounds differently
    drift = float(np.max(np.abs(vsums - vsums[0])))
    metrics = Metrics(dres.rms_before, dres.rms_after, dres.value, dres.reason,
                      tuple(coupling_events), tuple(uncoupling_events), drift)
    return trace, metrics


def _firing_steps(commands, dt, n_steps):
    """{step k: edges whose uncouple command fires at k}.  A command fires
    at the first k up to n_steps with k * dt >= t - 1e-9, the test a step()
    caller makes on World.t."""
    firing = {}
    for cmd in commands:
        due = cmd.t - 1e-9
        if not n_steps * dt >= due:  # never due, or NaN
            continue
        k = math.ceil(max(due, 0.0) / dt)
        while k > 0 and (k - 1) * dt >= due:
            k -= 1
        while k * dt < due:
            k += 1
        firing.setdefault(k, set()).add(cmd.edge)
    return firing


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
