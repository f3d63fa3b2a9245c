"""Closed-loop multi-agent simulation engine.

One step advances the whole world deterministically:

  1. corrected position of every agent, in one corrected_positions call
     (unchecked: WorldConstants has rejected k_pos = 0)
  2. pair geometry of every declared edge, plus every agent couple i < j
     (the range pass; the undeclared couples interact by plain repulsion
     when their spheres overlap -- collision avoidance between agents that
     are not part of the formation graph).  One couple table, built once
     per WorldConstants (WorldConstants.couples), lists the couples in
     trace-slot order, each with its contact distance r_contact (-inf for
     a declared couple).  Both sides of the pass find the contacts by one
     rule, abs(d) < r_contact, which no declared couple passes.  From
     ARRAY_COUPLES couples on (n >= 5) the pass works on the table's
     arrays: the separations are one subtraction (the d of pair_geometry,
     bit for bit) and the rule one comparison; it builds no PairGeometry
     and evaluates no declared edge again.  Below that crossover it is a
     pair_geometry loop over the table's rows that reads d and applies the
     rule per couple.  Either side only finds the undeclared couples in
     contact, and one loop then
     applies their repulsion in (i, j) order, so each agent adds its terms
     in the same order (edges by index, then contacts by (i, j)) and both
     sides give bit-identical commands
  3. coupling state machine of every declared edge, with any uncouple
     commands that latched this step
  4. force of each unordered pair evaluated once and applied with opposite
     signs to its two agents, so pair contributions cancel in the sum
  5. per-agent command sum clamped to the tilt saturation (a clipped sum no
     longer cancels, and the swarm's velocity sum drifts: velocity_sum_drift)
  6. one Runge-Kutta step per agent under the held command, through the
     plant's unchecked body (bound here as rk4_step), with k_p * k_d, k_d
     and g read once per step; the first agent whose command or state is
     not finite, or whose new state is not, aborts the run.  One test of
     the sum of each new state's components finds such an agent, and
     only when it trips are the components and the agent's inputs tested
     one by one

The state after k steps is a World, an immutable named tuple that a step
rebuilds twice through replace (World._replace, one pass over its four
fields): once with the new pair states, once with the new agents.  Each
rebuild checks that the state matches the world's constant parts, whose
own checks (dt, k_pos, edges) ran once, when WorldConstants was built.
build_world first checks the scenario with scenario.check_scenario, the
parser's check of the relations between its fields, so a run states no
rule of its own: a Scenario built in Python is refused, with a
ConfigurationError worded as the parser's error, wherever a scenario file
would be.

A run samples the world every `stride` steps into a Trace (the velocity
columns are the observed model output) and derives Metrics from it.  Each
sampled step appends to one array('d') buffer per field (agent states,
commands, slot separations, edge indicators) with one bulk call each.
Every FILL_VALUES values or so the run moves the buffered rows into
Trace.data as one block, derives their t and rms columns in numpy, leaves
their range-slot indicators at 0 and pushes the block to the trace's
output.Feed, if it has one: a forked child that formats the rows while
the run goes on.  The run returns Trace.data read-only, so the feed's text
cannot go stale.  It warns once, at the first state (the initial one
included) whose tilt exceeds TILT_LIMIT; step() never warns.
"""

import math
import warnings
from array import array
from itertools import chain
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ModelValidityWarning, NumericDomainError, SimulationAbort
from .interaction import (InteractionParams, PairState, corrected_positions,
                          force_repulsion, pair_force, pair_geometry, saturate,
                          update_pair)
from . import output
from .keys import check_fields
from .plant import AgentState, _rk4, check_dt
from .scenario import check_scenario

TILT_LIMIT = 0.5  # rad; beyond this the small-angle model is suspect


@dataclass(frozen=True)
class WorldConstants:
    """The parts of a world that no step changes, validated once when built.

    edges holds the declared formation edges as (a, b) agent indices with
    a < b; radii holds one interaction radius per agent.  dt and each
    radius are checked under their scenario keys, sim.dt and
    agent[i].radius.
    """

    radii: tuple
    edges: tuple
    gains: object
    plant: object
    params: object  # interaction parameters shared by every pair, declared or not
    dt: float

    def __post_init__(self):
        check_fields([("sim.dt", self.dt),
                      *((f"agent[{i}].radius", r) for i, r in enumerate(self.radii))])
        check_dt(self.dt)  # the plant's contract for dt, which rk4_step's body assumes
        if self.gains.k_pos == 0:  # corrected positions divide by it
            raise ConfigurationError("corrected coordinates need k_pos != 0")
        n = len(self.radii)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n and a < b):
                raise ConfigurationError(
                    f"edge ({a}, {b}) must reference distinct agents as a < b, n={n}")

    @cached_property
    def couples(self):
        """The range pass's couple table: every agent couple i < j in the
        order of its trace slots, as the arrays (ci, cj, r_contact) and as
        the rows (i, j, r_contact) built from them.  r_contact is the
        contact distance radii[i] + radii[j] of an undeclared couple and
        -inf for a declared one, so that abs(d) < r_contact, the range
        pass's one contact rule on either side, holds for no declared
        couple (nor for a NaN d).  Built on first use and kept, so each
        step reads it without hashing the edges and radii."""
        ci, cj = np.triu_indices(len(self.radii), 1)
        r = np.asarray(self.radii, dtype=float)
        declared = set(self.edges)
        arrays = (ci, cj, np.where([c in declared for c in zip(ci.tolist(), cj.tolist())],
                                   -np.inf, r[ci] + r[cj]))
        for a in arrays:
            a.flags.writeable = False  # shared by every step of every world with these constants
        return tuple(zip(*(a.tolist() for a in arrays))), arrays


_KEEP = object()  # World._replace's default: keep the field as it is


# World's fields.  typing.NamedTuple rejects __new__ and _make in the class
# body, so World adds its checks in a subclass.
class _WorldFields(NamedTuple):
    k: int
    agents: tuple
    pairs: tuple
    const: WorldConstants


class World(_WorldFields):
    """Complete simulation state after k steps of const.dt.

    Only k, agents and pairs change from step to step; pairs[k] is the
    coupling state of const.edges[k], and agents holds one AgentState per
    agent.  A named tuple, because every step rebuilds it twice: a rebuild
    copies these and the reference to const, whose checks ran once, and
    checks only that agents and pairs match const.  Rebuild a World with
    world._replace(...) (or engine.replace); dataclasses.replace does not
    apply to it.
    """

    __slots__ = ()

    def __new__(cls, k, agents, pairs, const):
        return cls._make((k, agents, pairs, const))

    @classmethod
    def _make(cls, fields):
        # every World is built here: World(...), pickle and copy through
        # __new__, and _replace directly
        world = tuple.__new__(cls, fields)
        _, agents, pairs, const = world
        if len(const.radii) != len(agents):
            raise ConfigurationError("one interaction radius per agent required")
        if len(pairs) != len(const.edges):
            raise ConfigurationError("one coupling state per declared edge required")
        return world

    def _replace(self, /, *, k=_KEEP, agents=_KEEP, pairs=_KEEP, const=_KEEP, **unknown):
        # the named tuple's _replace in one pass: the fields are unpacked
        # once, and an unknown name raises ValueError as it does there
        if unknown:
            raise ValueError(f"Got unexpected field names: {list(unknown)!r}")
        k0, agents0, pairs0, const0 = self
        return self._make((k0 if k is _KEEP else k, agents0 if agents is _KEEP else agents,
                           pairs0 if pairs is _KEEP else pairs,
                           const0 if const is _KEEP else const))

    @property
    def edges(self):
        return self.const.edges

    @property
    def t(self):
        return self.k * self.const.dt


# The one function that rebuilds a World.  perfbench's tracer wraps this
# module attribute and counts its calls as engine.world_rebuilds.
replace = World._replace

# The plant's RK4 body, unchecked: WorldConstants checked dt and PlantParams
# k_p, k_d and g once, and _integrate tests each new state.  perfbench's
# tracer wraps this module attribute and counts its calls as plant.rk4_calls.
rk4_step = _rk4


# Couples, n(n-1)/2, from which _controls evaluates the range pass as one
# array subtraction and one contact comparison per step instead of a Python
# loop.  engine.run per step on a line of n agents 100 m apart
# (switching_smooth, edges (0, 1), (2, 3), ..., 4 s in steps of 2 ms), same
# process, alternating, best of 7, CPU time, Python 3.11 and numpy 2.4,
# 2-core x86-64 (tools/range_crossover.py, BENCH_20.json):
#   n        3     4     5     6     7     8
#   couples  3     6     10    15    21    28
#   loop us  13.3  18.1  21.5  26.9  36.3  41.7
#   array us 16.4  19.1  21.1  23.5  28.1  29.6
ARRAY_COUPLES = 10


def _controls(world, active_commands):
    """Stages 1-5 of a step: pair bookkeeping and per-agent commands.

    Returns (commands, updated pair states, edge separations, range-pass
    separations).  The range-pass separations come as computed: a list
    below ARRAY_COUPLES, an array from it on.
    """
    _, agents, pairs, const = world
    prm, radii, gains = const.params, const.radii, const.gains
    d_t, c_max = prm.d_t, prm.c_max
    pstar = corrected_positions(agents, gains)
    us = [0.0] * len(pstar)
    edge_d = []
    new_pairs = []
    for k, ((a, b), pair) in enumerate(zip(const.edges, pairs)):
        geom = pair_geometry(pstar[a], pstar[b], radii[a], radii[b], d_t)
        state = update_pair(pair, geom, prm, k in active_commands)
        f = pair_force(geom, state, prm)
        us[a] += f
        us[b] -= f
        new_pairs.append(state)
        edge_d.append(geom.d)

    couples, (ci, cj, r_contact) = const.couples
    if len(couples) < ARRAY_COUPLES:
        contacts = []
        range_d = []
        for i, j, r_ij in couples:
            d = pair_geometry(pstar[i], pstar[j], radii[i], radii[j], d_t).d
            if abs(d) < r_ij:  # the contact rule of the array side, per couple
                contacts.append((i, j))
            range_d.append(d)
    else:
        # pair_geometry's d, elementwise, and the contact rule in one comparison
        p = np.asarray(pstar)
        range_d = p[cj] - p[ci]
        hit = np.flatnonzero(np.abs(range_d) < r_contact)
        contacts = zip(ci[hit].tolist(), cj[hit].tolist()) if hit.size else ()
    for i, j in contacts:  # undeclared couples in contact, in (i, j) order
        f = force_repulsion(pair_geometry(pstar[i], pstar[j], radii[i], radii[j], d_t), prm)
        us[i] += f
        us[j] -= f

    return [saturate(u, c_max) for u in us], tuple(new_pairs), edge_d, range_d


def _integrate(world, us):
    """Stage 6 of a step: advance every agent under its held command.
    Returns (the new world, whether a new tilt exceeds TILT_LIMIT).
    Raises SimulationAbort with the first agent whose command or state is
    not finite, or whose new state is not.  One test of each new state's
    sum finds them all, since a non-finite input gives a non-finite new
    state; the components and inputs are tested only when it trips (a
    finite state whose sum overflows goes on)."""
    k, agents, _, const = world
    dt, plant = const.dt, const.plant
    kpkd, kd, g = plant.k_p * plant.k_d, plant.k_d, plant.g
    isfinite = math.isfinite
    new_agents = []
    tilted = False
    for s, u in zip(agents, us):
        s2 = rk4_step(s, u, dt, kpkd, kd, g)
        p, v, tilt, rate = s2
        if not isfinite(p + v + tilt + rate) and not all(map(isfinite, s2)):
            if not (isfinite(u) and all(map(isfinite, s))):
                raise SimulationAbort(world.t, len(new_agents), s, f"non-finite plant input u={u}")
            raise SimulationAbort((k + 1) * dt, len(new_agents), s2)
        tilted = tilted or abs(tilt) > TILT_LIMIT
        new_agents.append(s2)
    return replace(world, k=k + 1, agents=tuple(new_agents)), tilted


# Python floats overflow to inf and turn invalid operations into nan without a
# warning, and numpy warns.  step() and run() silence numpy here, so the array
# range pass behaves as the loop does: _integrate reports the agent whose
# command or new state is not finite.
_FLOAT_SEMANTICS = {"over": "ignore", "invalid": "ignore"}


@np.errstate(**_FLOAT_SEMANTICS)
def step(world, active_commands=frozenset()):
    """Advance the world by one step.  `active_commands` holds the indices
    of edges whose uncouple command latches at this instant."""
    us, pairs, _, _ = _controls(world, active_commands)
    return _integrate(replace(world, pairs=pairs), us)[0]


@dataclass(frozen=True)
class Trace:
    """Sampled time series of a run.

    Columns: t, then AGENT_FIELDS per agent, then SLOT_FIELDS per pair
    slot, then the swarm RMS velocity.  feed is the output.Feed that
    formats data's rows in a forked child while run fills them, or None;
    write_trace collects its text.
    """

    AGENT_FIELDS = ("pos", "vel", "tilt", "rate", "u")
    SLOT_FIELDS = ("d", "fen")

    data: np.ndarray
    dt: float
    stride: int
    n_agents: int
    slots: tuple
    slot_rsums: tuple
    feed: object = field(default=None, repr=False, compare=False)

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
class Metrics:
    rms_before: float
    rms_after: float
    delta_rms: float | None
    delta_reason: str | None
    coupling_events: tuple
    uncoupling_events: tuple
    velocity_sum_drift: float


def rms_velocity(velocities):
    """Root of the mean squared agent velocity, the squares summed left to
    right as run sums them (from Python 3.12 on, sum() of floats is
    compensated and rounds differently)."""
    vals = list(velocities)
    if not vals:
        raise NumericDomainError("RMS velocity of an empty swarm is undefined")
    total = 0.0
    for v in vals:
        total += v * v
    return math.sqrt(total / len(vals))


def build_world(scenario):
    """Materialise a scenario into the initial World, once check_scenario
    has found every relation between its fields to hold (else a
    ConfigurationError naming the key, worded as the parser's error)."""
    check_scenario(scenario, ConfigurationError)
    gains = scenario.resolved_gains()
    params = InteractionParams(scenario.c_max, scenario.d_t, scenario.eps,
                               scenario.variant, gains.k1)
    const = WorldConstants(tuple(a.radius for a in scenario.agents), scenario.edges,
                           gains, scenario.plant, params, scenario.dt)
    agents = tuple(AgentState(a.pos, a.vel, a.tilt, a.rate) for a in scenario.agents)
    return World(0, agents, (PairState(),) * len(scenario.edges), const)


# Values (rows x columns) Trace.data receives at a time while a run samples:
# at each block the run fills its rows from the sample buffers, which it
# empties, and pushes them to the trace's Feed, if any.  Counted in values,
# not rows: a push every 512 rows left the 501-row lattice_swarm trace
# (694 columns) to be formatted after the run.
FILL_VALUES = 16_384


@np.errstate(**_FLOAT_SEMANTICS)
def run(scenario):
    """Execute a scenario from t = 0 to t_end.  Returns (Trace, Metrics),
    the trace's data read-only.  The scenario is checked by build_world,
    so a run has at least one agent and one step."""
    world = build_world(scenario)
    dt, stride = scenario.dt, scenario.stride
    n_steps = int(round(scenario.t_end / dt))

    radii, edges = world.const.radii, world.const.edges
    couples, _ = world.const.couples
    slots = (*(("edge", a, b) for a, b in edges), *(("range", i, j) for i, j, _ in couples))
    slot_rsums = tuple(radii[i] + radii[j] for _, i, j in slots)

    # (due time, edge) of each uncouple command, the latest due first.  A
    # command fires at the first step with t_k >= t - 1e-9, the test a step()
    # caller makes on World.t; one never due by the last step (or at a NaN
    # time) is dropped here, before it could upset the sort.
    due = [(cmd.t - 1e-9, cmd.edge) for cmd in scenario.commands]
    queue = sorted((c for c in due if n_steps * dt >= c[0]), reverse=True)
    # the rows sampled since the last block, by field: agent states (4 per
    # agent), commands, slot separations and edge indicators; t and rms are
    # derived block by block
    states, commands, seps, fens = array("d"), array("d"), array("d"), array("d")
    # range separations come as a list below ARRAY_COUPLES, as a float64 array from it
    # on, appended as its bytes without a copy (frombytes refuses the array itself)
    add_range_seps = (seps.extend if len(couples) < ARRAY_COUPLES
                      else lambda range_d: seps.frombytes(range_d.data.cast("B")))
    coupling_events = []
    uncoupling_events = []
    tilt_warned = False
    tilted = any(abs(s.tilt) > TILT_LIMIT for s in world.agents)  # the initial state

    n_rows, n, na = n_steps // stride + 1, len(radii), len(Trace.AGENT_FIELDS)
    n_cols = 2 + na * n + len(Trace.SLOT_FIELDS) * len(slots)
    block = max(1, FILL_VALUES // n_cols)  # rows per block
    # zeros: monitored couples carry no coupling state, so their indicator stays 0
    data, feed = output.trace_array(n_rows, n_cols)
    trace = Trace(data, dt, stride, n, slots, slot_rsums, feed)

    def fill(r0, r1):
        # rows r0 to r1 of data from the sample buffers, which it empties;
        # each value is computed per row, so the blocks do not change a bit
        rows = data[r0:r1]
        m = r1 - r0
        rows[:, 0] = np.arange(r0 * stride, r1 * stride, stride) * dt  # k * dt, as t_k
        agent_cols = rows[:, 1:1 + na * n].reshape(m, n, na)  # a view, (row, agent, field)
        agent_cols[..., :-1] = np.frombuffer(states).reshape(m, n, -1)  # pos, vel, tilt, rate
        agent_cols[..., -1] = np.frombuffer(commands).reshape(m, n)  # u
        trace.block("d")[r0:r1] = np.frombuffer(seps).reshape(m, len(slots))
        trace.block("fen")[r0:r1, :len(edges)] = np.frombuffer(fens).reshape(m, len(edges))
        # sums over the agents run left to right, as rms_velocity's; .sum(axis=1) rounds differently
        vel = trace.block("vel")[r0:r1]
        rows[:, -1] = np.sqrt(sum((vel * vel).T) / n)  # rms_velocity of each row
        for buf in (states, commands, seps, fens):
            del buf[:]
        if feed is not None:
            feed.push(r1)

    r0 = 0  # the first row not yet in data
    try:
        for k in range(n_steps + 1):
            t_k = k * dt  # world.t
            if tilted and not tilt_warned:  # the state at t_k is the first past the limit
                tilt_warned = True
                warnings.warn(
                    f"tilt exceeded {TILT_LIMIT} rad at t={t_k:.3f} s; "
                    "small-angle model validity is doubtful", ModelValidityWarning)
            fired = ()
            while queue and t_k >= queue[-1][0]:
                fired += (queue.pop()[1],)
            us, pairs, edge_d, range_d = _controls(world, fired)
            for e, (old, new) in enumerate(zip(world.pairs, pairs)):
                if new.f_en != old.f_en:
                    (coupling_events if new.f_en else uncoupling_events).append((e, t_k))
            world = replace(world, pairs=pairs)

            if k % stride == 0:
                states.extend(chain.from_iterable(world.agents))
                commands.extend(us)
                seps.extend(edge_d)
                add_range_seps(range_d)
                fens.extend([p.f_en for p in pairs])
                sampled = k // stride + 1
                if sampled - r0 == block or sampled == n_rows:
                    fill(r0, sampled)
                    r0 = sampled

            if k < n_steps:
                world, tilted = _integrate(world, us)

        vsums = sum(trace.block("vel").T)
        drift = float(np.max(np.abs(vsums - vsums[0])))
        metrics = Metrics(*delta_rms(trace), tuple(coupling_events), tuple(uncoupling_events),
                          drift)
    except BaseException:  # a warning made an error or an interrupt too: stop the child now
        if feed is not None:
            feed.close()
        raise
    data.flags.writeable = False
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

    Returns (rms_before, rms_after, delta_rms, delta_reason), the first
    four fields of Metrics in their order: each window's mean RMS
    velocity, their relative change and None.  The change is undefined
    (None), with a reason, when fewer than a window of samples precede the
    first overlap (both means NaN), when no settled window follows it
    (rms_after NaN), when a window's RMS velocity is not finite, or when
    the first window's is zero.
    """
    sample_dt = trace.dt * trace.stride
    n_pre = max(1, int(round(PRE_WINDOW / sample_dt)))
    n_post = max(1, int(round(POST_WINDOW / sample_dt)))
    rms = trace.column("rms")

    overlap = (np.abs(trace.block("d")) < np.asarray(trace.slot_rsums)).any(axis=1)

    if not overlap.any():
        before = float(rms[:n_pre].mean())
        after = float(rms[-n_post:].mean())
    else:
        first = int(np.argmax(overlap))
        if first < n_pre:
            return math.nan, math.nan, None, f"only {first} pre-contact samples, need {n_pre}"
        before = float(rms[first - n_pre:first].mean())

        settled = ((trace.block("u") == 0.0).all(axis=1)
                   & (np.abs(trace.block("tilt")) < SETTLED_TILT).all(axis=1)
                   & (trace.block("fen") == 0.0).all(axis=1))
        run_len = 0
        for end in range(first, trace.n_rows):
            run_len = run_len + 1 if settled[end] else 0
            if run_len >= n_post:
                break
        else:
            return before, math.nan, None, "no settled command-free window after the interaction"
        after = float(rms[end - n_post + 1:end + 1].mean())

    if not (math.isfinite(before) and math.isfinite(after)):
        return before, after, None, "RMS velocity of a window is not finite"
    if before <= 0.0:
        return before, after, None, "pre-interaction RMS velocity is zero"
    return before, after, abs(after - before) / before, None
