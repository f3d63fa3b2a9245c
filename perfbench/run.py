"""swarmform benchmark: end-to-end metrics, a traced per-layer profile and
the correctness gate, for the workloads in workloads.py.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      NAME is pair_encounter, lattice_swarm, dense_trace, param_sweep, or
      all (every workload, one after another, in this one process).  With
      --trace 0 it prints the end-to-end metrics, with --trace 1 the
      per-layer metrics.  The last line of standard output is one JSON
      object {"correct", "attempted", "failed", "metrics"}.  The exit code
      is 1 when any run failed or disagreed with its reference outcome.

  python3 perfbench/run.py --record        re-record reference.json
  python3 perfbench/run.py --scaling       record the lattice scaling curve
  python3 perfbench/run.py --convergence   record the delta_rms convergence table

The last three write into this directory and are meant to be run once per
baseline, not by the gated runs.  See README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import calibrate
import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
RECORDED = HERE / "recorded.json"
SPANS_DIR = ROOT / ".perfbench-out"

MIN_ITERATIONS = 2   # per untraced run, even when --seconds is shorter
SETUP_PROBES = 15    # fresh-interpreter set-ups per run; the scaled median is reported

END_TO_END = {"setup_s": "s", "scaled_wall_s": "s", "scaled_agent_steps_per_s": "1/s",
              "scaled_runs_per_s": "1/s", "peak_rss_mb": "MB"}


def _fail_early(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_checkout(*extra):
    for need in (ROOT / "src" / "swarmform", ROOT / "scenarios") + extra:
        if not need.exists():
            _fail_early(f"{need.relative_to(ROOT)} not found; run from a full swarmform checkout")
    sys.path.insert(0, str(ROOT / "src"))


class Session:
    """One workload run: plan, work directory, references and tallies."""

    def __init__(self, workload, seed, references):
        self.plan = workloads.plan(workload, seed)
        self.refs = references
        self.workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.runner = workloads.Runner(self.plan, self.workdir)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self, raw):
        """Checks one iteration's results; returns the number of runs that passed."""
        outcomes = self.runner.collect(raw)
        passed = 0
        for key, got in outcomes.items():
            self.attempted += 1
            problems = gate.check(self.refs.get(key), got)
            if problems:
                self.failed += 1
                self.problems += [f"{key}: {p}" for p in problems]
            else:
                passed += 1
        return passed

    def iterate(self, execute=None):
        """One timed iteration, then its check.  Returns (wall, runs passed)."""
        execute = execute or self.runner.execute
        t0 = time.perf_counter()
        raw = execute()
        wall = time.perf_counter() - t0
        return wall, self.check(raw)

    def iterate_scaled(self, scaler):
        """One untraced iteration with each of its steps timed and scaled
        by `scaler`, then its check.  Returns (wall, scaled wall, runs passed)."""
        sample = self.plan.workload != "param_sweep"  # its steps run in pool workers
        raw, wall, scaled = {}, 0.0, 0.0
        for step in self.runner.steps():
            out, w, scale = scaler.time(step, sample)
            raw.update(out)
            wall += w
            scaled += w * scale
        return wall, scaled, self.check(raw)

    @staticmethod
    def loop(until, minimum, iterate):
        """Samples of iterate() until `until` (perf_counter), at least `minimum`."""
        samples = []
        while len(samples) < minimum or time.perf_counter() < until:
            samples.append(iterate())
        return samples

    def setup_times(self):
        """Set-up times of fresh interpreters that import swarmform, parse
        and synthesise every scenario of the iteration and build its World."""
        spec = self.workdir / "setup.json"
        spec.write_text(json.dumps([[str(self.runner.scenario_path(r.key)), list(r.overrides)]
                                    for r in self.plan.runs]))
        cmd = [sys.executable, str(HERE / "probe.py"), "setup", str(spec)]
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)  # fills bytecode caches
        return [json.loads(subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True,
                                          text=True).stdout)["setup_s"]
                for _ in range(SETUP_PROBES)]


def measure(session, seconds):
    """End-to-end metrics from untraced iterations.  Every timing is scaled
    to the reference host speed by calibration kernel chunks (calibrate.py)."""
    with calibrate.Scaler() as scaler:
        setup, _, setup_scale = scaler.time(session.setup_times, sample=False)
        samples = session.loop(time.perf_counter() + seconds, MIN_ITERATIONS,
                               lambda: session.iterate_scaled(scaler))
    scaled = [s for _, s, _ in samples]
    wall = statistics.median(scaled)
    metrics = {
        "setup_s": statistics.median(setup) * setup_scale,
        "scaled_wall_s": wall,
        "scaled_agent_steps_per_s": session.plan.agent_steps / wall,
        "scaled_runs_per_s": statistics.median(p / s for _, s, p in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters, scaled; "
                        f"{statistics.median(setup):.4g} s as measured",
             "scaled_wall_s": f"median of {len(samples)} iterations, quartiles {_quartiles(scaled)}, "
                              f"{len(session.plan.runs)} runs each; host wall median "
                              f"{statistics.median(w for w, _, _ in samples):.4g} s"}
    return metrics, END_TO_END, notes


def _quartiles(values):
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g}..{q3:.4g} s"


def _pool_observer(seen):
    """Stands in for cli's `concurrent` module and records the worker count
    of every process pool the sweep opens."""
    import concurrent.futures

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    return types.SimpleNamespace(futures=types.SimpleNamespace(ProcessPoolExecutor=Pool))


def measure_traced(session, seconds):
    """Per-layer metrics: untraced iterations first (the base of the
    tracing overhead), then traced iterations.  param_sweep's pool workers
    are forked and their spans never come back, so it traces the same
    tasks replayed in-process through cli._sweep_worker, and its overhead
    base is that replay untraced."""
    sweep = session.plan.workload == "param_sweep"
    start = time.perf_counter()
    pool_sizes = []
    if sweep:
        with tracer.Patch([("swarmform.cli", "concurrent", lambda _: _pool_observer(pool_sizes))]):
            pooled = [w for w, _ in session.loop(start + 0.3 * seconds, 1, session.iterate)]
        base = [w for w, _ in session.loop(start + 0.5 * seconds, 1,
                                            lambda: session.iterate(session.runner.replay_sweep))]
        execute = session.runner.replay_sweep
    else:
        base = [w for w, _ in session.loop(start + 0.4 * seconds, 1, session.iterate)]
        execute = session.runner.execute

    per_iter, walls, spans = [], [], None
    while not per_iter or time.perf_counter() < start + seconds:
        spans = tracer.Tracer()
        with spans.patch():
            t0 = time.perf_counter()
            raw = execute()
            walls.append(time.perf_counter() - t0)
        session.check(raw)
        per_iter.append(tracer.layer_metrics(spans))

    for name in tracer.COUNTS:
        if len({m[name] for m in per_iter}) != 1:
            session.problems.append(f"count {name} changed between traced iterations: "
                                    f"{[m[name] for m in per_iter]}")
    metrics = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    metrics.update({
        "cli.sweep_s": statistics.median(pooled) if sweep else 0.0,
        "cli.pool_workers": max(pool_sizes, default=0),
        "cli.pool_speedup": statistics.median(base) / statistics.median(pooled) if sweep else 0.0,
        "trace.wall_s": statistics.median(walls),
        "trace.overhead_frac": statistics.median(walls) / statistics.median(base) - 1.0,
    })
    _write_spans(session.plan, spans)
    notes = {"trace.wall_s": f"median of {len(walls)} traced iterations",
             "trace.overhead_frac": f"base: median of {len(base)} untraced "
                                    + ("in-process replays" if sweep else "iterations")}
    return metrics, tracer.LAYER_METRICS, notes


def _write_spans(plan, spans):
    """The span profile of the last traced iteration, per span name."""
    SPANS_DIR.mkdir(exist_ok=True)
    prof = {n: {"count": c, "total_s": t, "self_s": s} for n, (c, t, s) in spans.profile().items()}
    path = SPANS_DIR / f"spans-{plan.workload}-seed{plan.seed}.json"
    path.write_text(json.dumps({"workload": plan.workload, "seed": plan.seed,
                                "spans": len(spans.name_id), "profile": prof}, indent=1) + "\n")


def run_workload(workload, seed, seconds, traced, references):
    session = Session(workload, seed, references)
    try:
        if traced:
            metrics, units, notes = measure_traced(session, seconds)
        else:
            metrics, units, notes = measure(session, seconds)
    finally:
        session.close()
    failed_frac = session.failed / session.attempted
    print(f"== {workload}  seed {seed}  {'traced' if traced else 'untraced'}  "
          f"runs attempted {session.attempted}, failed {session.failed}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30s} {metrics[name]:>16.6g} {unit}{note}")
    print(f"  {'failed_frac':30s} {failed_frac:>16.6g} ratio")
    for p in list(dict.fromkeys(session.problems))[:20]:
        print(f"  FAILED {p}")
    return session, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def cmd_measure(args):
    _check_checkout(REFERENCE)
    references = json.loads(REFERENCE.read_text())["outcomes"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    ok = True
    result = {}
    for name in names:
        session, metrics = run_workload(name, args.seed, args.seconds, args.trace == 1, references)
        attempted += session.attempted
        failed += session.failed
        ok = ok and not session.problems
        if args.workload == "all":
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        result.update(metrics)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if ok and failed == 0 else 1


def cmd_record(_args):
    """Run every input variant of every workload once at this commit and
    store its outcome as the reference."""
    _check_checkout()
    variants = {"pair_encounter": 1, "lattice_swarm": workloads.LATTICE_VARIANTS,
                "dense_trace": 1, "param_sweep": workloads.SWEEP_GRIDS}
    outcomes = {}
    for w in workloads.WORKLOADS:
        for seed in range(variants[w]):
            session = Session(w, seed, {})
            try:
                for key, got in session.runner.collect(session.runner.execute()).items():
                    problems = gate.run_problems(got)
                    if problems:
                        _fail_early(f"cannot record {key}: {problems}")
                    got.pop("velocity_sum_drift", None)
                    outcomes[key] = got
                    print(f"recorded {key}", flush=True)
            finally:
                session.close()
    REFERENCE.write_text(json.dumps({
        "note": "reference outcomes; re-record with `python3 perfbench/run.py --record` "
                "only when a change to the model is meant to change them",
        "outcomes": outcomes}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outcomes)} outcomes to {REFERENCE.relative_to(ROOT)}")
    return 0


def _machine():
    return {"python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "system": platform.system()}


def _update_recorded(section, value):
    data = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    data[section] = value
    RECORDED.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {section} to {RECORDED.relative_to(ROOT)}")


SCALING_N = (2, 8, 32, 128, 512, 2048)
SCALING_STEPS = 1000            # 2 s of simulated time per point
SCALING_WALL_CAP = 600.0        # s; a point projected to take longer is not run
SCALING_TRACE_CAP = 2 * 2**30   # bytes of the full-length trace, as Python row lists


def cmd_scaling(_args):
    """Lattice series at growing N until the O(n^2) trace is infeasible.

    Each point runs in a fresh process (for its own peak RSS).  Before a
    point runs, its wall time is projected from the previous point by the
    pair count, and its trace size for the full lattice_swarm horizon by
    the column count; the series stops at the first N over either cap."""
    _check_checkout()
    full_rows = int(round(workloads.LATTICE_T_END / workloads.LATTICE_DT)) // 10 + 1
    points, cap = [], None
    for n in SCALING_N:
        edges = len([k for k in range(n // 2) if k not in workloads.LATTICE_FREE_PAIRS])
        pairs = n * (n - 1) // 2 + edges
        cols = 1 + 5 * n + 2 * pairs
        trace_bytes = full_rows * cols * 40  # 8-byte float plus its list slot and object
        projected = (points[-1]["wall_s"] / points[-1]["pair_evals_per_step"] * pairs
                     if points else 0.0)
        if projected > SCALING_WALL_CAP or trace_bytes > SCALING_TRACE_CAP:
            cap = {"n": points[-1]["n"], "first_infeasible_n": n,
                   "projected_wall_s": projected, "projected_full_trace_bytes": trace_bytes,
                   "trace_cols": cols,
                   "reason": f"N={n}: projected {projected:.0f} s for {SCALING_STEPS} steps "
                             f"(cap {SCALING_WALL_CAP:.0f} s) and a {trace_bytes / 2**30:.1f} GiB "
                             f"trace over the {workloads.LATTICE_T_END:g} s lattice horizon "
                             f"(cap {SCALING_TRACE_CAP / 2**30:.0f} GiB)"}
            break
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), "scale", str(n),
                              str(SCALING_STEPS)], check=True, cwd=ROOT, capture_output=True,
                             text=True).stdout
        p = json.loads(out.strip().splitlines()[-1])
        p["pair_evals_per_step"] = pairs
        p["us_per_agent_step"] = p["wall_s"] / (n * SCALING_STEPS) * 1e6
        p["full_trace_bytes"] = full_rows * p["trace_cols"] * 8
        points.append(p)
        print(json.dumps(p), flush=True)
    _update_recorded("scaling", {"machine": _machine(), "steps": SCALING_STEPS,
                                 "dt": workloads.LATTICE_DT,
                                 "points": points, "cap": cap})
    return 0


CONVERGENCE_DT = (0.002, 0.001, 0.0005, 0.00025)


def cmd_convergence(_args):
    """delta_rms of the shipped switching scenarios against sim.dt, with the
    observed order and the Richardson-extrapolated limit."""
    _check_checkout()
    from swarmform import engine, scenario

    table = {}
    for variant in ("switching_step", "switching_smooth"):
        text = workloads.shipped_text(f"two_agent_{variant}")
        values = []
        for dt in CONVERGENCE_DT:
            _, m = engine.run(scenario.parse_scenario_with(text, {"sim.dt": dt}))
            values.append(m.delta_rms)
            print(f"{variant} dt={dt:g}: delta_rms {m.delta_rms!r}", flush=True)
        diffs = [a - b for a, b in zip(values, values[1:])]
        orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
        p = orders[-1]
        table[variant] = {"dt": list(CONVERGENCE_DT), "delta_rms": values,
                          "observed_order": orders,
                          "extrapolated_limit": values[-1] - diffs[-1] / (2.0 ** p - 1.0)}
    _update_recorded("convergence", {"machine": _machine(), **table})
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--scaling", action="store_true")
    mode.add_argument("--convergence", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.record:
        return cmd_record(args)
    if args.scaling:
        return cmd_scaling(args)
    if args.convergence:
        return cmd_convergence(args)
    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}, all")
    return cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
