"""Where the range pass's array side overtakes its loop, and what the range
pass costs on large lines.

    python3 tools/range_crossover.py [--tree DIR] [--out FILE]

Imports swarmform from DIR/src (default: this checkout) and prints three
tables, all in CPU time (time.process_time) of one process:

  crossover     engine.run per step on a line of n = 3 ... 8 agents 100 m
                apart at +-0.5 m/s, radius 20 (switching_smooth, edges
                (0, 1), (2, 3), ..., 4 s in steps of 2 ms, no contact),
                with the range pass forced to its loop (ARRAY_COUPLES above
                n(n-1)/2) and to its array side (ARRAY_COUPLES = 0), the
                two sides alternating, best of REPEATS (7)
  lattice       engine.run per agent-step on the lattice line of perfbench's
                lattice_swarm (workloads.lattice_text, variant 3, 10 s in
                steps of 2 ms) at n = 8, 16, 24, 48 and 128, at the tree's
                own ARRAY_COUPLES, best of REPEATS
  couple table  building WorldConstants.couples for that lattice line at
                n = 512, best of REPEATS

A step is one call of engine._controls: t_end / dt + 1 per run.  With
--out, the same numbers are written as JSON.
"""

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CROSSOVER_N = (3, 4, 5, 6, 7, 8)
CROSSOVER_T_END = 4.0
LATTICE_N = (8, 16, 24, 48, 128)
LATTICE_T_END = 10.0
LATTICE_VARIANT = 3
TABLE_N = 512
REPEATS = 7

SIDES = {"loop": 10 ** 9, "array": 0}  # ARRAY_COUPLES that forces each side


def line_text(n, t_end):
    """The crossover's line: n agents 100 m apart, never in contact."""
    lines = ["plant.kp = 6.0", "plant.kd = 25.0", "plant.g = 9.8", "poles.rl = 12.0",
             "poles.iml = 0.1", "poles.imr = 0.55", "interaction.variant = switching_smooth",
             "interaction.c_max = 0.05", "interaction.d_t = 30.0", "interaction.eps = 0.1",
             "sim.dt = 0.002", f"sim.t_end = {t_end!r}", "sim.stride = 10"]
    for i in range(n):
        lines += [f"agent[{i}].pos = {100.0 * i!r}", f"agent[{i}].vel = {0.5 * (-1) ** i!r}",
                  f"agent[{i}].radius = 20.0"]
    for k, a in enumerate(range(0, n - 1, 2)):
        lines += [f"edge[{k}].a = {a}", f"edge[{k}].b = {a + 1}"]
    return "\n".join(lines) + "\n"


def _run_s(scenario):
    """CPU seconds of one engine.run and its step count."""
    from swarmform import engine

    t0 = time.process_time()
    engine.run(scenario)
    return time.process_time() - t0, int(round(scenario.t_end / scenario.dt)) + 1


def crossover(ns, repeats, t_end):
    """{"n", "couples", "loop_us", "array_us"}: best per-step time of each
    side, the sides alternating within a repetition and swapping their
    order from one repetition to the next."""
    from swarmform import engine, parse_scenario

    scenarios = [parse_scenario(line_text(n, t_end)) for n in ns]
    best = {side: [float("inf")] * len(ns) for side in SIDES}
    saved = engine.ARRAY_COUPLES
    try:
        for rep in range(repeats):
            for k, sc in enumerate(scenarios):
                for side in (SIDES if rep % 2 == 0 else list(SIDES)[::-1]):
                    engine.ARRAY_COUPLES = SIDES[side]
                    cpu, steps = _run_s(sc)
                    best[side][k] = min(best[side][k], 1e6 * cpu / steps)
    finally:
        engine.ARRAY_COUPLES = saved
    return {"n": list(ns), "couples": [n * (n - 1) // 2 for n in ns],
            "loop_us": [round(v, 2) for v in best["loop"]],
            "array_us": [round(v, 2) for v in best["array"]]}


def lattice_curve(ns, repeats, t_end):
    """{"n", "us_per_agent_step"} of the lattice line at each size."""
    from swarmform import parse_scenario
    from workloads import LATTICE_UNCOUPLE_T, lattice_text

    out = []
    for n in ns:
        # a short run keeps its uncouple commands inside t_end
        text = lattice_text(n, LATTICE_VARIANT, t_end, min(t_end, LATTICE_UNCOUPLE_T))
        sc = parse_scenario(text)
        cpu, steps = min(_run_s(sc) for _ in range(repeats))
        out.append(round(1e6 * cpu / (steps * n), 3))
    return {"n": list(ns), "us_per_agent_step": out}


def couple_table_s(n, repeats):
    """{"n", "edges", "build_s"}: the best time of building the couple
    table of the n-agent lattice line's WorldConstants."""
    from swarmform import build_world, parse_scenario
    from workloads import lattice_text

    const = build_world(parse_scenario(lattice_text(n, LATTICE_VARIANT))).const
    times = []
    for _ in range(repeats):
        fresh = dataclasses.replace(const)  # a new instance: its couples are not cached yet
        t0 = time.process_time()
        fresh.couples
        times.append(time.process_time() - t0)
    return {"n": n, "edges": len(const.edges), "build_s": min(times)}


def measure():
    import numpy as np
    from swarmform import engine

    return {
        "array_couples": engine.ARRAY_COUPLES,
        "python": platform.python_version(), "numpy": np.__version__,
        "repeats": REPEATS,
        "crossover": crossover(CROSSOVER_N, REPEATS, CROSSOVER_T_END),
        "lattice": lattice_curve(LATTICE_N, REPEATS, LATTICE_T_END),
        "couple_table": couple_table_s(TABLE_N, REPEATS),
    }


def print_tables(result):
    cross = result["crossover"]
    print(f"crossover, us per step (ARRAY_COUPLES = {result['array_couples']}):")
    for label, key in (("n", "n"), ("couples", "couples"), ("loop us", "loop_us"),
                       ("array us", "array_us")):
        print(f"  {label:9s}" + "".join(f"{v:>8}" for v in cross[key]))
    lat = result["lattice"]
    print("lattice line, us per agent-step:")
    print("  n        " + "".join(f"{v:>8}" for v in lat["n"]))
    print("  us       " + "".join(f"{v:>8}" for v in lat["us_per_agent_step"]))
    table = result["couple_table"]
    print(f"couple table at n = {table['n']} ({table['edges']} edges): "
          f"{1e3 * table['build_s']:.2f} ms")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="checkout whose src/swarmform is measured (default: this one)")
    ap.add_argument("--out", type=Path, help="JSON file to write the tables to")
    args = ap.parse_args(argv)
    # the tree's swarmform, and perfbench's workloads for the lattice line
    sys.path[:0] = [str(args.tree.resolve() / "src"), str(ROOT / "perfbench")]
    result = measure()
    print_tables(result)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
