"""Measurements that need a fresh interpreter, run as a child process.

  python3 perfbench/probe.py setup SPEC.json
      import swarmform, then for every [scenario path, overrides] pair in
      SPEC.json parse the scenario (which synthesises its gains) and build
      its first World.  Prints one JSON line with the time all of that
      took.  numpy is imported before the clock starts, and interpreter
      start-up and exit fall outside it: they are fixed by the environment,
      not by swarmform, and the numpy import alone, two thirds of the
      process's time, moves by up to 70 % between batches of interpreters.

  python3 perfbench/probe.py scale N STEPS
      run the N-agent lattice for STEPS steps and print one JSON line with
      the run's wall time, trace shape and the process's peak RSS.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(spec_path):
    import numpy  # noqa: F401  (see the module docstring)

    specs = [(Path(path).read_text(), dict(overrides))
             for path, overrides in json.loads(Path(spec_path).read_text())]
    t0 = time.perf_counter()
    from swarmform import engine, scenario

    for text, overrides in specs:
        engine.build_world(scenario.parse_scenario_with(text, overrides))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def scale(n_agents, steps):
    from swarmform import engine, scenario
    from workloads import LATTICE_DT, lattice_text

    t_end = steps * LATTICE_DT
    text = lattice_text(n_agents, 0, t_end=t_end, uncouple_t=t_end / 2)
    sc = scenario.parse_scenario(text)
    t0 = time.perf_counter()
    trace, _ = engine.run(sc)
    wall = time.perf_counter() - t0
    print(json.dumps({"n": n_agents, "steps": steps, "wall_s": wall,
                      "trace_rows": trace.data.shape[0], "trace_cols": trace.data.shape[1],
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif sys.argv[1:2] == ["scale"] and len(sys.argv) == 4:
        scale(int(sys.argv[2]), int(sys.argv[3]))
    else:
        sys.exit(__doc__)
