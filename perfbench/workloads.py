"""Workload inputs and the swarmform calls each workload iteration makes.

Every workload is a closed loop: one scenario run starts after the previous
one has finished, and one iteration is the fixed list of runs below.

  pair_encounter  the five shipped scenarios through `swarmform run`
  lattice_swarm   a generated N = 24 line through engine.run + write_trace
  dense_trace     switching_step at sim.stride = 1 through `swarmform run`
  param_sweep     `swarmform sweep` of interaction.c_max over four values

A plan (the runs of one iteration) is made from the workload seed alone.
The seed selects one of a fixed number of input variants, each of which
has reference outcomes recorded in reference.json, so every run can be
checked against the commit the references came from.
"""

import contextlib
import functools
import io
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gate import outcome_from_csv, outcome_from_metrics, outcome_from_report, sweep_outcome

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

SHIPPED = ("two_agent_repulsion", "two_agent_attraction", "two_agent_switching_step",
           "two_agent_switching_smooth", "three_agent_chain")

LATTICE_N = 24
LATTICE_SPACING = 45.0     # m; spheres of radius 20 start 5 m apart
LATTICE_SPEED = 2.25       # m/s, alternating sign so neighbours close
LATTICE_JITTER = 0.15      # m/s, uniform, drawn from the variant seed
LATTICE_DT = 0.002
LATTICE_T_END = 10.0
LATTICE_UNCOUPLE_T = 5.0   # s; uncouple commands on every third edge
LATTICE_FREE_PAIRS = (3, 8)  # approaching pairs left without a declared edge
LATTICE_VARIANTS = 16

SWEEP_PARAM = "interaction.c_max"
SWEEP_STEPS = 4
SWEEP_GRIDS = 8
SWEEP_FROM, SWEEP_TO, SWEEP_SHIFT = 0.03, 0.06, 0.0025

WORKLOADS = ("pair_encounter", "lattice_swarm", "dense_trace", "param_sweep")

_HEADER = """\
plant.kp = 6.0
plant.kd = 25.0
plant.g = 9.8
poles.rl = 12.0
poles.iml = 0.1
poles.imr = 0.55
interaction.variant = switching_smooth
interaction.c_max = 0.05
interaction.d_t = 30.0
interaction.eps = 0.1
"""


@dataclass(frozen=True)
class RunSpec:
    """One scenario run of an iteration.  `overrides` are the key overrides
    swarmform applies on top of `text` (only the sweep uses them)."""

    key: str
    text: str
    overrides: tuple
    n_agents: int
    n_steps: int


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    runs: tuple
    sweep_range: tuple = ()  # (from, to) of the sweep command

    @property
    def agent_steps(self):
        return sum(r.n_agents * r.n_steps for r in self.runs)


def shipped_text(name):
    return (SCENARIOS / f"{name}.cfg").read_text()


def _sim_setting(text, key, default):
    m = re.search(rf"^\s*{re.escape(key)}\s*=\s*(\S+)", text, re.M)
    return float(m.group(1)) if m else default


def _spec(key, text, overrides=()):
    dt = _sim_setting(text, "sim.dt", 0.001)
    t_end = _sim_setting(text, "sim.t_end", 40.0)
    n_agents = len(set(re.findall(r"^\s*agent\[(\d+)\]\.", text, re.M)))
    return RunSpec(key, text, tuple(overrides), n_agents, int(round(t_end / dt)))


def with_stride(text, stride):
    """Scenario text with sim.stride set to `stride`."""
    line = f"sim.stride = {stride}"
    new, n = re.subn(r"^\s*sim\.stride\s*=.*$", line, text, flags=re.M)
    return new if n else text + line + "\n"


def lattice_text(n_agents, variant, t_end=LATTICE_T_END, uncouple_t=LATTICE_UNCOUPLE_T):
    """A line of agents 45 m apart with alternating +/-2.25 m/s velocities
    plus a jitter drawn from `variant`, so that the neighbour pairs
    (0,1), (2,3), ... close on each other.  Those pairs carry declared
    edges, except the LATTICE_FREE_PAIRS, which meet by the plain
    repulsion of undeclared pairs (the range contacts).  Every third edge
    gets an uncouple command at `uncouple_t`."""
    rng = random.Random(variant)
    lines = [_HEADER, f"sim.dt = {LATTICE_DT!r}", f"sim.t_end = {t_end!r}", "sim.stride = 10"]
    for i in range(n_agents):
        vel = (LATTICE_SPEED if i % 2 == 0 else -LATTICE_SPEED) \
            + rng.uniform(-LATTICE_JITTER, LATTICE_JITTER)
        lines += [f"agent[{i}].pos = {LATTICE_SPACING * i!r}", f"agent[{i}].vel = {vel!r}",
                  f"agent[{i}].radius = 20.0"]
    edges = [(i, i + 1) for i in range(0, n_agents - 1, 2) if i // 2 not in LATTICE_FREE_PAIRS]
    for k, (a, b) in enumerate(edges):
        lines += [f"edge[{k}].a = {a}", f"edge[{k}].b = {b}"]
    for m, k in enumerate(range(0, len(edges), 3)):
        lines += [f"command[{m}].t = {uncouple_t!r}", f"command[{m}].kind = uncouple",
                  f"command[{m}].edge = {k}"]
    return "\n".join(lines) + "\n"


def sweep_range(grid):
    lo = SWEEP_FROM + SWEEP_SHIFT * grid
    return lo, SWEEP_TO + SWEEP_SHIFT * grid


def plan(workload, seed):
    """The runs of one iteration of `workload` for `seed`."""
    if workload == "pair_encounter":
        names = list(SHIPPED)
        random.Random(seed).shuffle(names)
        runs = tuple(_spec(f"pair_encounter/{n}", shipped_text(n)) for n in names)
        return Plan(workload, seed, runs)
    if workload == "lattice_swarm":
        variant = seed % LATTICE_VARIANTS
        text = lattice_text(LATTICE_N, variant)
        return Plan(workload, seed, (_spec(f"lattice_swarm/v{variant}", text),))
    if workload == "dense_trace":
        text = with_stride(shipped_text("two_agent_switching_step"), 1)
        return Plan(workload, seed, (_spec("dense_trace/two_agent_switching_step", text),))
    if workload == "param_sweep":
        grid = seed % SWEEP_GRIDS
        lo, hi = sweep_range(grid)
        values = tuple(float(v) for v in np.linspace(lo, hi, SWEEP_STEPS))
        text = shipped_text("two_agent_switching_smooth")
        runs = tuple(_spec(f"param_sweep/g{grid}/{SWEEP_PARAM}={v:.12g}", text, ((SWEEP_PARAM, v),))
                     for v in values)
        return Plan(workload, seed, runs, (lo, hi))
    raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")


class Runner:
    """Executes iterations of one plan inside a work directory.

    `steps()` (or `execute()`, which runs all of them) is the timed part:
    only the swarmform calls a user would make.  `collect()` reads the
    results back afterwards, untimed, into outcomes for the correctness
    gate.
    """

    def __init__(self, plan, workdir):
        self.plan = plan
        self.workdir = Path(workdir)
        self.index = {r.key: i for i, r in enumerate(plan.runs)}
        for r in plan.runs:
            self.scenario_path(r.key).write_text(r.text)
        self.sweep_csv = self.workdir / "sweep.csv"

    def scenario_path(self, key):
        return self.workdir / f"run{self.index[key]}.cfg"

    def out_dir(self, key):
        return self.workdir / f"out{self.index[key]}"

    def steps(self):
        """The swarmform calls of one iteration, in order: one per scenario
        run, or the one sweep command.  Each is a function of no arguments
        that returns {key: raw result or Exception} for its runs."""
        if self.plan.workload == "param_sweep":
            return [self._sweep]
        return [functools.partial(self._run, r) for r in self.plan.runs]

    def execute(self):
        """Run one iteration.  Returns {key: raw result or Exception}."""
        raw = {}
        for step in self.steps():
            raw.update(step())
        return raw

    def _run(self, r):
        from swarmform import cli, engine, output, scenario

        try:
            if self.plan.workload == "lattice_swarm":
                trace, metrics = engine.run(scenario.parse_scenario(r.text))
                result = (output.write_trace(trace), metrics)
            else:
                with contextlib.redirect_stdout(io.StringIO()):
                    result = cli.main(["run", str(self.scenario_path(r.key)),
                                       "--out", str(self.out_dir(r.key))])
        except Exception as err:  # a failed run is counted, not fatal
            result = err
        return {r.key: result}

    def _sweep(self):
        from swarmform import cli

        lo, hi = self.plan.sweep_range
        path = self.scenario_path(self.plan.runs[0].key)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["sweep", str(path), "--param", SWEEP_PARAM,
                                 "--from", repr(lo), "--to", repr(hi),
                                 "--steps", str(SWEEP_STEPS), "--out", str(self.sweep_csv)])
        except Exception as err:
            code = err
        return {r.key: code for r in self.plan.runs}

    def replay_sweep(self):
        """The sweep's tasks run one after another in this process through
        cli._sweep_worker, as the pool would run them.  Returns
        {key: worker result tuple or Exception}."""
        from swarmform import cli

        raw = {}
        for r in self.plan.runs:
            (key, value), = r.overrides
            try:
                raw[r.key] = cli._sweep_worker((r.text, key, value))
            except Exception as err:
                raw[r.key] = err
        return raw

    def collect(self, raw):
        """Outcomes of an iteration: {key: outcome dict or Exception}.
        Removes the files it read, so that the next iteration has to write
        them again."""
        out = {}
        w = self.plan.workload
        rows = None
        for r in self.plan.runs:
            res = raw[r.key]
            try:
                if isinstance(res, Exception):
                    raise res
                if w in ("pair_encounter", "dense_trace"):
                    if res != 0:
                        raise RuntimeError(f"swarmform run exited {res}")
                    d = self.out_dir(r.key)
                    o = outcome_from_report((d / "report.txt").read_text())
                    o.update(outcome_from_csv((d / "trace.csv").read_text()))
                    for svg in ("velocities.svg", "distances.svg"):
                        if not (d / svg).read_text().rstrip().endswith("</svg>"):
                            raise RuntimeError(f"{svg} is incomplete")
                elif w == "lattice_swarm":
                    csv_text, metrics = res
                    o = outcome_from_metrics(metrics)
                    o.update(outcome_from_csv(csv_text))
                elif isinstance(res, tuple):  # replayed sweep worker result
                    o = sweep_outcome(*res)
                else:
                    if res != 0:
                        raise RuntimeError(f"swarmform sweep exited {res}")
                    rows = rows or _read_sweep(self.sweep_csv)
                    (_, value), = r.overrides
                    o = rows[format(value, ".12g")]
                out[r.key] = o
            except Exception as err:
                out[r.key] = err
            shutil.rmtree(self.out_dir(r.key), ignore_errors=True)
        self.sweep_csv.unlink(missing_ok=True)
        return out


def _number(field):
    return None if field in ("undefined", "none") else float(field)


def _read_sweep(path):
    """Sweep CSV rows keyed by their value column, as outcome dicts."""
    lines = path.read_text().splitlines()
    if lines[0] != "value,status,coupled,delta_rms,first_coupling_t,first_uncoupling_t":
        raise RuntimeError(f"unexpected sweep header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        value, status, coupled, delta, t_c, t_u = line.split(",")
        rows[value] = sweep_outcome(float(value), status, int(coupled), _number(delta),
                                    _number(t_c), _number(t_u))
    return rows
