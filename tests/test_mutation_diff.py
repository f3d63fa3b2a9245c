"""tools/mutation_diff.py on one shipped scenario: a tree against itself,
and against a copy with one message edited."""

import importlib.util
import shutil
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_PATH = _REPO / "tools" / "mutation_diff.py"
_SPEC = importlib.util.spec_from_file_location("mutation_diff", _PATH)
mutation_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_diff)

SRC = _REPO / "src"
NAMES = ["two_agent_switching_step"]


def test_a_tree_against_itself_differs_nowhere(capsys):
    assert mutation_diff.main([str(SRC), str(SRC), "--scenarios", NAMES[0]]) == 0
    count, = (int(line.split()[0]) for line in capsys.readouterr().out.splitlines())
    assert count == len(list(mutation_diff.mutations(NAMES))) > 500


def test_an_edited_message_differs_at_exactly_the_mutations_that_reach_it(tmp_path):
    edited = tmp_path / "src"
    shutil.copytree(SRC, edited, ignore=shutil.ignore_patterns("__pycache__"))
    module = edited / "swarmform" / "scenario.py"
    module.write_text(module.read_text().replace(": duplicate key", ": key given twice"))
    labels, texts = zip(*mutation_diff.mutations(NAMES))
    reached = {label for label, outcome in zip(labels, mutation_diff.outcomes(SRC, texts))
               if outcome.endswith(": duplicate key")}
    count, differing = mutation_diff.diff(SRC, edited, NAMES)
    assert count == len(texts) and reached
    assert {label for label, _, _ in differing} == reached
    assert all(new == old.replace("duplicate key", "key given twice")
               for _, old, new in differing)
