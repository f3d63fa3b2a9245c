"""Spans around the calls swarmform's layers make into each other.

The benchmark traces swarmform from outside: it rebinds the module
attributes through which engine, scenario and cli call the other layers
to wrappers that record a span per call, and puts the originals back
afterwards.  A span has a name, a start, an end and the index of the span
that was open when it began (its parent).  Spans are kept in flat arrays
in memory and reduced at the end of the traced iteration.

Self time is a span's duration minus the part of it that its child spans
cover.  Spans come from one thread, so the children of a span follow one
another without overlapping and the covered part is the sum of their
durations clipped to the parent's interval.
"""

import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name).  Each attribute is looked up at call time
# by the module that calls through it, so rebinding it sees every call.
WRAPPED = (
    ("swarmform.engine", "run", "engine.run"),
    ("swarmform.engine", "build_world", "engine.build_world"),
    ("swarmform.engine", "_controls", "engine.controls"),
    ("swarmform.engine", "_integrate", "engine.integrate"),
    ("swarmform.engine", "replace", "engine.replace"),
    ("swarmform.engine", "delta_rms", "engine.delta_rms"),
    ("swarmform.engine", "rk4_step", "plant.rk4_step"),
    ("swarmform.engine", "pair_geometry", "interaction.pair_geometry"),
    ("swarmform.engine", "update_pair", "interaction.update_pair"),
    ("swarmform.engine", "pair_force", "interaction.pair_force"),
    ("swarmform.engine", "force_repulsion", "interaction.force_repulsion"),
    ("swarmform.scenario", "parse_scenario", "scenario.parse"),
    ("swarmform.scenario", "parse_scenario_with", "scenario.parse"),
    ("swarmform.scenario", "place_gains", "modal.place_gains"),
    ("swarmform.output", "write_trace", "output.write_trace"),
    ("swarmform.output", "render_svg", "output.render_svg"),
    ("swarmform.output", "write_report", "output.write_report"),
    ("swarmform.cli", "_write_outputs", "cli.write_outputs"),
    ("swarmform.cli", "_sweep_worker", "cli.sweep_worker"),
)


class Patch:
    """Rebinds module attributes and restores every original on exit."""

    def __init__(self, replacements):
        self.replacements = replacements  # [(module name, attribute, factory(original))]
        self.saved = []

    def __enter__(self):
        try:
            for mod_name, attr, factory in self.replacements:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self.saved.append((mod, attr, original))
                setattr(mod, attr, factory(original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self.saved:
            mod, attr, original = self.saved.pop()
            setattr(mod, attr, original)
        return False


class Tracer:
    """Span recorder plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names = []            # span name per name id
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.undeclared_evals = 0  # pair evaluations of couples with no declared edge
        self.trace_shapes = []     # (rows, cols) of every engine.run
        self.transitions = 0
        self.csv_bytes = 0
        self.svg_bytes = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None):
        """fn wrapped to record one span per call; observe(args, result) is
        called after the span closes."""
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_controls(self, args, result):
        world = args[0]
        n = len(world.agents)
        self.undeclared_evals += n * (n - 1) // 2 - len(world.edges)

    def _observe_run(self, args, result):
        trace, metrics = result
        self.trace_shapes.append(trace.data.shape)
        self.transitions += len(metrics.coupling_events) + len(metrics.uncoupling_events)

    def _observe_csv(self, args, result):
        self.csv_bytes += len(result)

    def _observe_svg(self, args, result):
        self.svg_bytes += len(result)

    def patch(self):
        """A Patch that installs a wrapper on every attribute in WRAPPED."""
        observers = {"engine.controls": self._observe_controls, "engine.run": self._observe_run,
                     "output.write_trace": self._observe_csv, "output.render_svg": self._observe_svg}

        def factory(name):
            return lambda fn: self.wrap(name, fn, observers.get(name))

        return Patch([(mod, attr, factory(name)) for mod, attr, name in WRAPPED])

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64), np.frombuffer(self.end, dtype=np.float64))

    def profile(self):
        """{span name: (count, total seconds, self seconds)}."""
        return profile(self.names, *self.arrays())


def self_times(parent, start, end):
    """Self time of every span: duration minus the part of it covered by
    its children (sequential children, clipped to the parent)."""
    dur = end - start
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    covered = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    cover = np.bincount(p, weights=np.clip(covered, 0.0, None), minlength=len(dur))
    return dur - cover


def profile(names, name_id, parent, start, end):
    """Per-name span count, total duration and total self time."""
    k = len(names)
    dur = end - start
    count = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    own = np.bincount(name_id, weights=self_times(parent, start, end), minlength=k)
    return {n: (int(count[i]), float(total[i]), float(own[i])) for i, n in enumerate(names)}


# Per-layer metrics: name -> unit.  Values are per workload iteration.
LAYER_METRICS = {
    "plant.rk4_calls": "count",
    "plant.rk4_s": "s",
    "engine.integrate_s": "s",
    "engine.integrate_self_s": "s",
    "engine.world_rebuilds": "count",
    "interaction.pair_evals": "count",
    "interaction.pair_geometry_s": "s",
    "interaction.update_pair_s": "s",
    "interaction.pair_force_s": "s",
    "interaction.range_contacts": "count",
    "interaction.contact_ratio": "ratio",
    "interaction.transitions": "count",
    "engine.controls_s": "s",
    "engine.controls_self_s": "s",
    "engine.steps": "count",
    "engine.run_self_s": "s",
    "engine.delta_rms_s": "s",
    "engine.trace_rows": "count",
    "engine.trace_cols": "count",
    "engine.trace_bytes": "B",
    "output.write_trace_s": "s",
    "output.csv_bytes": "B",
    "output.render_svg_s": "s",
    "output.svg_bytes": "B",
    "output.write_report_s": "s",
    "scenario.parse_calls": "count",
    "scenario.parse_s": "s",
    "modal.place_gains_calls": "count",
    "modal.place_gains_s": "s",
    "modal.syntheses_per_run": "ratio",
    "cli.write_outputs_s": "s",
    "cli.sweep_s": "s",
    "cli.pool_workers": "count",
    "cli.pool_speedup": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# Exact work counts: they must repeat from one traced iteration to the next.
COUNTS = ("plant.rk4_calls", "engine.world_rebuilds", "interaction.pair_evals",
          "interaction.range_contacts", "interaction.transitions", "engine.steps",
          "engine.trace_rows", "engine.trace_cols", "engine.trace_bytes", "output.csv_bytes",
          "output.svg_bytes", "scenario.parse_calls", "modal.place_gains_calls")


def layer_metrics(tracer):
    """Per-layer metrics of one traced iteration (the cli.* pool figures,
    trace.wall_s and trace.overhead_frac are filled in by the caller)."""
    prof = tracer.profile()

    def count(n):
        return prof.get(n, (0, 0.0, 0.0))[0]

    def total(n):
        return prof.get(n, (0, 0.0, 0.0))[1]

    def own(n):
        return prof.get(n, (0, 0.0, 0.0))[2]

    runs = count("engine.run")
    contacts = count("interaction.force_repulsion")
    rows = sum(r for r, _ in tracer.trace_shapes)
    return {
        "plant.rk4_calls": count("plant.rk4_step"),
        "plant.rk4_s": total("plant.rk4_step"),
        "engine.integrate_s": total("engine.integrate"),
        "engine.integrate_self_s": own("engine.integrate"),
        "engine.world_rebuilds": count("engine.replace"),
        "interaction.pair_evals": count("interaction.pair_geometry"),
        "interaction.pair_geometry_s": total("interaction.pair_geometry"),
        "interaction.update_pair_s": total("interaction.update_pair"),
        "interaction.pair_force_s": total("interaction.pair_force"),
        "interaction.range_contacts": contacts,
        "interaction.contact_ratio": contacts / tracer.undeclared_evals if tracer.undeclared_evals else 0.0,
        "interaction.transitions": tracer.transitions,
        "engine.controls_s": total("engine.controls"),
        "engine.controls_self_s": own("engine.controls"),
        "engine.steps": count("engine.controls"),
        "engine.run_self_s": own("engine.run"),
        "engine.delta_rms_s": total("engine.delta_rms"),
        "engine.trace_rows": rows,
        "engine.trace_cols": max((c for _, c in tracer.trace_shapes), default=0),
        "engine.trace_bytes": sum(r * c * 8 for r, c in tracer.trace_shapes),
        "output.write_trace_s": total("output.write_trace"),
        "output.csv_bytes": tracer.csv_bytes,
        "output.render_svg_s": total("output.render_svg"),
        "output.svg_bytes": tracer.svg_bytes,
        "output.write_report_s": total("output.write_report"),
        "scenario.parse_calls": count("scenario.parse"),
        "scenario.parse_s": total("scenario.parse"),
        "modal.place_gains_calls": count("modal.place_gains"),
        "modal.place_gains_s": total("modal.place_gains"),
        "modal.syntheses_per_run": count("modal.place_gains") / runs if runs else 0.0,
        "cli.write_outputs_s": total("cli.write_outputs"),
    }
