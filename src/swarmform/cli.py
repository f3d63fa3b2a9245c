"""Command-line interface.

Subcommands:
  gains     synthesise feedback gains for a plant / pole set and print the
            polynomial cross-checks
  run       execute one scenario file and write trace.csv, report.txt and
            SVG plots into an output directory
  compare   run the same scenario under several interaction variants and
            print their RMS-velocity changes side by side
  sweep     re-run a scenario over a range of one scalar parameter
            (runs execute concurrently; rows stay ordered by value)

Exit codes: 0 success, 2 usage, validation or file error, 3 simulation abort.
"""

import argparse
import concurrent.futures
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import engine, keys, output, scenario as scen
from .errors import ScenarioError, SimulationAbort, SwarmformError
from .modal import (PoleSpec, closed_loop_polynomial, desired_polynomial,
                    direct_gain_formula, place_gains, poles_from_spec)
from .output import format_short
from .plant import PlantParams


# the keys `gains` takes as options, each named by the key's last segment
GAINS_KEYS = keys._keys("plant") + keys._keys("poles") + ["interaction.k1"]


def cmd_gains(args):
    e = scen._Entries({k: v for k in GAINS_KEYS if (v := getattr(args, k)) is not None})
    plant = PlantParams(*map(e.value, keys._keys("plant")))
    poles = poles_from_spec(PoleSpec(*map(e.value, keys._keys("poles"))))
    gains = place_gains(plant, poles, k1=e.value("interaction.k1"))
    desired = desired_polynomial(poles)
    closed = closed_loop_polynomial(plant, gains)
    residual = max(abs(c - d) / max(1.0, abs(d)) for c, d in zip(closed, desired))
    direct = direct_gain_formula(plant, poles)

    for f in fields(gains):
        print(f"{f.name}: {format_short(getattr(gains, f.name))}")
    print("desired_polynomial:", " ".join(format_short(c) for c in desired))
    print("closed_loop_polynomial:", " ".join(format_short(c) for c in closed))
    print(f"residual: {format_short(residual)}")
    print("direct_formula:", " ".join(format_short(v) for v in direct))
    print("direct_formula_note: entries 1/2 are k_vel/k_pos (transposed); "
          "entry 3 = 1 + k_tilt; entry 4 = k_rate")
    return 0


def _load_scenario(path):
    """Text of a scenario file.  A file that is missing, unreadable or not
    UTF-8 is a ScenarioError naming the path."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(f"scenario file {path}: {err}") from None


def _write_outputs(out_dir, trace, metrics, scenario):
    """Write the run's files into the existing directory out_dir and return
    their names.

    Both plots are rendered before any file is written, so a run that
    render_svg refuses leaves the directory empty; report.txt is written
    last, so its presence means a complete run.
    """
    out = Path(out_dir)
    vel_cols = [f"agent{i}_vel" for i in range(trace.n_agents)] + ["rms"]
    plots = {"velocities.svg": output.render_svg(trace, vel_cols,
                                                 title="agent velocities and swarm RMS")}
    # declared edges, else the first monitored couple; a lone agent has no pair slot
    n_dist = len(scenario.edges) or min(1, len(trace.slots))
    if n_dist:
        dist_cols = [f"pair{k}_d" for k in range(n_dist)]
        plots["distances.svg"] = output.render_svg(trace, dist_cols, title="pair separations")
    names = list(plots)
    for name in names:  # popped, so no SVG text is held while the trace is formatted
        (out / name).write_text(plots.pop(name))
    (out / "trace.csv").write_text(output.write_trace(trace))
    (out / "report.txt").write_text(output.write_report(metrics, scenario))
    return ["trace.csv", "report.txt", *names]


def _print_outcome(metrics, indent=""):
    """Print a run's delta_rms, with the reason when it is undefined, and
    its coupling and uncoupling events."""
    delta = (f"undefined ({metrics.delta_reason})" if metrics.delta_rms is None
             else format_short(metrics.delta_rms))
    print(f"{indent}delta_rms: {delta}")
    print(f"{indent}coupling_events: {output.format_events(metrics.coupling_events)}")
    print(f"{indent}uncoupling_events: {output.format_events(metrics.uncoupling_events)}")


def cmd_run(args):
    overrides = {k: v for k, v in (("sim.dt", args.dt), ("sim.t_end", args.t_end))
                 if v is not None}
    scenario = scen.parse_scenario_with(_load_scenario(args.scenario), overrides)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the run
    trace, metrics = engine.run(scenario)
    written = _write_outputs(args.out, trace, metrics, scenario)
    print(f"wrote {', '.join(written)} to {args.out}")
    _print_outcome(metrics)
    return 0


def cmd_compare(args):
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ScenarioError("interaction.variant: no variants given")
    text = _load_scenario(args.scenario)
    scenarios = [scen.parse_scenario_with(text, {"interaction.variant": v}) for v in variants]
    deltas = []
    for v, scenario in zip(variants, scenarios):
        _, metrics = engine.run(scenario)
        deltas.append(metrics.delta_rms)
        print(f"variant: {v}")
        _print_outcome(metrics, indent="  ")
    for i in range(len(variants) - 1):
        a, b = deltas[i], deltas[i + 1]
        if a is None or b is None or b == 0:
            ratio = "n/a"
        else:
            ratio = format_short(a / b)
        print(f"ratio delta_rms({variants[i]})/delta_rms({variants[i + 1]}): {ratio}")
    return 0


def _sweep_worker(task):
    text, key, value = task
    try:
        scenario = scen.parse_scenario_with(text, {key: value})
        _, metrics = engine.run(scenario)
    except ScenarioError as err:
        return (value, f"error: {err}", 0, None, None, None)
    except SimulationAbort as err:
        return (value, f"abort: {err}", 0, None, None, None)
    coupled = 1 if metrics.coupling_events else 0
    t_c = metrics.coupling_events[0][1] if metrics.coupling_events else None
    t_u = metrics.uncoupling_events[0][1] if metrics.uncoupling_events else None
    return (value, "ok", coupled, metrics.delta_rms, t_c, t_u)


def cmd_sweep(args):
    if not keys.is_scalar_key(args.param):
        raise SwarmformError(f"parameter {args.param!r} is not sweepable "
                             "(must be a scalar scenario key, e.g. interaction.c_max)")
    start, stop = keys.convert("--from", args.start), keys.convert("--to", args.stop)
    steps = keys.convert("--steps", args.steps, int, "> 0")
    text = _load_scenario(args.scenario)
    if args.out:  # an unusable --out fails before the runs
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        open(args.out, "a").close()
    values = [float(v) for v in np.linspace(start, stop, steps)]
    tasks = [(text, args.param, v) for v in values]

    workers = min(len(tasks), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_sweep_worker, tasks))

    lines = ["value,status,coupled,delta_rms,first_coupling_t,first_uncoupling_t"]
    for value, status, coupled, delta, t_c, t_u in results:
        status = status.replace(",", ";").replace("\n", " ")
        lines.append(",".join([
            format_short(value),
            status,
            str(coupled),
            "undefined" if delta is None else format_short(delta),
            "none" if t_c is None else format_short(t_c),
            "none" if t_u is None else format_short(t_u),
        ]))
    csv = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv)
        print(f"wrote {len(results)} rows to {args.out}")
    else:
        sys.stdout.write(csv)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes an argument starting with "-" and a
    digit, "-." and a digit, or "-" and inf or nan in any case (-Infinity
    too), for a value, not an option, so that "--iml -1e-1" reaches
    keys.convert as "--iml -0.1" does, and "--iml -inf" as "--iml inf"
    (argparse's own test takes only -1 and -0.1 forms for negative
    numbers).  It replaces argparse's private _negative_number_matcher,
    which _parse_optional reads through .match; checked on Python 3.11."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser():
    parser = _Parser(
        prog="swarmform",
        description="deterministic 1-D swarm-formation coupling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gains", help="synthesise feedback gains")
    for key in GAINS_KEYS:
        _, default, _, meaning = keys.KEYS[key]
        p.add_argument("--" + keys._field(key), dest=key, metavar=key,
                       required=default is keys.REQUIRED, help=meaning)
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("run", help="run one scenario file")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dt", help="override sim.dt")
    p.add_argument("--t-end", dest="t_end", help="override sim.t_end")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run a scenario under several variants")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--variants", required=True,
                   help="comma-separated variant names (repulsion, attraction, "
                        "switching_step, switching_smooth)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="sweep one scalar scenario parameter")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--param", required=True, help="dotted scenario key, e.g. interaction.c_max")
    p.add_argument("--from", required=True, dest="start", help="first value")
    p.add_argument("--to", required=True, dest="stop", help="last value")
    p.add_argument("--steps", required=True, help="number of values")
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimulationAbort as err:
        print(f"simulation aborted: {err}", file=sys.stderr)
        return 3
    except (SwarmformError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
