"""Interleaved A/B runs of perfbench between two swarmform trees.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR [--pairs 10] [--out BENCH_N.json]

PARENT_DIR and CHANGE_DIR are full checkouts, each in a fresh directory,
for example made with `git archive <commit> | tar -x -C DIR`.  Pair k runs
`perfbench/run.py --workload W --seed k --trace 0` on both trees, for every
workload in WORKLOADS; the parent runs first in odd pairs and the change
first in even pairs.  Each run uses its own tree's perfbench at that
perfbench's own run length.

For every workload and end-to-end metric (names, directions and bounds
from the parent's BENCHMARK.json) it prints the quartiles and median of
each side, the relative change of the medians, the pairs each side won
(ties count for neither) and the parent's quartile distance.  A metric
meets the claim rule when at least MIN_PAIRS pairs ran, the change wins
at least nine tenths of them, the medians differ, in the better direction,
by more than the parent's quartile distance, and the change failed no more
operations on that workload than the parent.  A metric breaks its bound
when the change's median is worse than the parent's by more than the
bound.  The exit code is 1 when a bound is broken, a run disagreed with
its reference, or the change failed more operations than the parent on
some workload.

With --out, the `end_to_end` and `method` sections of that JSON file are
written (other sections are kept) after every pair, so an interrupted
series leaves the pairs it finished.  Uses the standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pair_encounter", "lattice_swarm", "dense_trace", "param_sweep")
SIDES = ("parent", "change")
MIN_PAIRS = 10  # the claim rule's pair count: nine wins in ten


def run_once(tree, workload, seed):
    """One untraced perfbench run in `tree`: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} printed nothing (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) with linear interpolation between the order
    statistics, as numpy's default percentiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent_runs, change_runs, better, bound, fails_more):
    """Statistics of one metric over paired runs of both sides; `fails_more`
    says that the change failed more operations than the parent."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent_runs), quartiles(change_runs)
    gains = [sign * (b - a) for a, b in zip(parent_runs, change_runs)]
    change_wins = sum(g > 0 for g in gains)
    parent_iqr = p[2] - p[0]
    rel = c[1] / p[1] - 1.0 if p[1] else float("nan")
    return {
        "better": better, "bound": bound,
        "parent": dict(zip(("q1", "median", "q3"), p)),
        "change": dict(zip(("q1", "median", "q3"), c)),
        "median_change_rel": rel,
        "change_wins": change_wins,
        "parent_wins": sum(g < 0 for g in gains),
        "parent_iqr": parent_iqr,
        "claim_rule_met": (len(gains) >= MIN_PAIRS and change_wins >= 0.9 * len(gains)
                           and sign * (c[1] - p[1]) > parent_iqr and not fails_more),
        "bound_broken": -sign * rel > bound,
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
    }


def summarise(runs, metrics_spec):
    """The end_to_end section: per workload, per metric statistics."""
    section = {}
    for workload, sides in runs.items():
        n = min(len(sides["parent"]), len(sides["change"]))
        paired = {s: sides[s][:n] for s in SIDES}
        entry = {
            "pairs": n,
            "seeds": list(range(1, n + 1)),
            "correct": all(r["correct"] for s in SIDES for r in paired[s]),
            "failed": {s: sum(r["failed"] for r in paired[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in paired[s]) for s in SIDES},
            "metrics": {},
        }
        fails_more = entry["failed"]["change"] > entry["failed"]["parent"]
        for m in metrics_spec:
            name = m["name"]
            entry["metrics"][name] = compare(
                [r["metrics"][name]["value"] for r in paired["parent"]],
                [r["metrics"][name]["value"] for r in paired["change"]],
                m["better"], m["bound"], fails_more)
        section[workload] = entry
    return section


def print_table(section):
    for workload, entry in section.items():
        print(f"== {workload}: {entry['pairs']} pairs, correct {entry['correct']}, "
              f"failed parent {entry['failed']['parent']} change {entry['failed']['change']}")
        print(f"  {'metric':26s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
              f"{'rel':>8s} {'wins c/p':>9s} {'parent IQR':>11s}  verdict")
        for name, st in entry["metrics"].items():
            p, c = st["parent"], st["change"]
            verdict = ("claim rule met" if st["claim_rule_met"] else "") + \
                      (" BOUND BROKEN" if st["bound_broken"] else "")
            print(f"  {name:26s} {p['q1']:10.4g} {p['median']:10.4g} {p['q3']:10.4g} "
                  f"{c['q1']:10.4g} {c['median']:10.4g} {c['q3']:10.4g} "
                  f"{st['median_change_rel']:+8.2%} {st['change_wins']:4d}/{st['parent_wins']:<4d} "
                  f"{st['parent_iqr']:11.4g}  {verdict}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS,
                    help=f"pairs per workload; the claim rule needs at least {MIN_PAIRS}")
    ap.add_argument("--out", type=Path, help="JSON file whose end_to_end section is written")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").exists():
            ap.error(f"{tree} has no perfbench/run.py")
    metrics_spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    method = {
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "pairs": f"{args.pairs} pairs per workload; pair k runs seed S = k on both trees; the "
                 "parent runs first in odd pairs and the change first in even pairs; each pair "
                 f"round runs the workloads in the order {', '.join(WORKLOADS)}",
        "statistics": "median and quartiles (linear interpolation) over the runs of each side; "
                      "change_wins counts pairs where the change reads better; the claim rule "
                      "needs at least 10 pairs, 9/10 wins, a median difference above parent_iqr "
                      "and no more failed operations than the parent",
        "harness": "tools/ab_bench.py",
    }

    runs = {w: {s: [] for s in SIDES} for w in WORKLOADS}
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        for workload in WORKLOADS:
            for side in order:
                t0 = time.perf_counter()
                result = run_once(trees[side], workload, k)
                runs[workload][side].append(result)
                value = result["metrics"].get("scaled_agent_steps_per_s", {}).get("value", 0.0)
                print(f"pair {k} {workload:15s} {side:6s} "
                      f"correct={result['correct']} steps/s={value:.4g} "
                      f"({time.perf_counter() - t0:.0f} s)", flush=True)
        section = summarise(runs, metrics_spec)
        if args.out:
            data = json.loads(args.out.read_text()) if args.out.exists() else {}
            data["method"] = method
            data["end_to_end"] = section
            args.out.write_text(json.dumps(data, indent=1) + "\n")

    print_table(section)
    broken = [f"{w}/{m}" for w, e in section.items() for m, st in e["metrics"].items()
              if st["bound_broken"]]
    if broken:
        print("bounds broken: " + ", ".join(broken))
    fails_more = [w for w, e in section.items() if e["failed"]["change"] > e["failed"]["parent"]]
    if fails_more:
        print("the change failed more operations on: " + ", ".join(fails_more))
    return 1 if broken or fails_more or not all(e["correct"] for e in section.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
