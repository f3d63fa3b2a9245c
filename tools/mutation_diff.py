"""Compare how two swarmform trees answer every one-line mutation of the
shipped scenarios.

    python3 tools/mutation_diff.py OLD_SRC NEW_SRC [--scenarios NAME[,NAME...]]

OLD_SRC and NEW_SRC are the `src` directories of two trees.  Each
key = value line of each scenario under scenarios/ (all of them by
default) is mutated one way at a time: the line deleted, the line doubled,
the key's last character dropped, an agent/edge/command index set to [9],
or the value set to each of HOSTILE.  One subprocess per tree parses every
mutated text and takes one step of its first World, and records the
outcome: "ok", or the exception's type and message.  The tool prints the
mutation count and every mutation whose outcome differs between the trees,
and exits 1 if any differs.  Uses the standard library only.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

HOSTILE = ("0", "-0.0", "-1", "0.5", "2", "9", "1e-320", "5e-324", "1e300", "-1e300",
           "nan", "inf", "-inf", "word", "1_0", "0x10", "", "1 2", "uncouple", "repulsion")

# Run in a fresh interpreter with the tree's src directory as argv[1]: the
# texts come on stdin as a JSON list, the outcomes go to stdout as one.
WORKER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from swarmform import build_world, parse_scenario, step
outcomes = []
for text in json.load(sys.stdin):
    try:
        step(build_world(parse_scenario(text)))
        outcomes.append("ok")
    except Exception as err:
        outcomes.append(f"{type(err).__name__}: {err}")
json.dump(outcomes, sys.stdout)
"""


def mutations(names):
    """(label, text) of every one-line mutation of each named scenario."""
    for name in names:
        lines = (SCENARIOS / f"{name}.cfg").read_text().splitlines()
        for i, line in enumerate(lines):
            if "=" not in line.split("#", 1)[0]:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            changed = {"deleted": [], "doubled": [line, line],
                       "key misspelt": [f"{key[:-1]} = {value}"]}
            if "[" in key:
                changed["index [9]"] = [re.sub(r"\[\d+\]", "[9]", key) + f" = {value}"]
            changed.update({f"value {v!r}": [f"{key} = {v}"] for v in HOSTILE if v != value})
            for what, new in changed.items():
                yield f"{name}:{i + 1} {what}", "\n".join(lines[:i] + new + lines[i + 1:]) + "\n"


def outcomes(src, texts):
    """The outcome of each text in the tree whose src directory is src."""
    done = subprocess.run([sys.executable, "-c", WORKER, str(src)], input=json.dumps(texts),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def diff(old_src, new_src, names):
    """(mutation count, [(label, old outcome, new outcome)] of those that differ)."""
    labels, texts = zip(*mutations(names))
    pairs = zip(labels, outcomes(old_src, texts), outcomes(new_src, texts))
    return len(texts), [(label, a, b) for label, a, b in pairs if a != b]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--scenarios", help="comma-separated scenario names (default: all)")
    args = ap.parse_args(argv)
    names = (args.scenarios.split(",") if args.scenarios
             else sorted(p.stem for p in SCENARIOS.glob("*.cfg")))
    count, differing = diff(args.old_src, args.new_src, names)
    print(f"{count} mutations, {len(differing)} differ")
    for label, a, b in differing:
        print(f"{label}\n  old: {a}\n  new: {b}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
