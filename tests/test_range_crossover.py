"""tools/range_crossover.py: its tables on tiny lines and few steps."""

import importlib.util
import json
import sys
from pathlib import Path

from swarmform import engine

_PATH = Path(__file__).resolve().parents[1] / "tools" / "range_crossover.py"
_SPEC = importlib.util.spec_from_file_location("range_crossover", _PATH)
range_crossover = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(range_crossover)


def test_crossover_times_both_sides_and_restores_the_constant():
    saved = engine.ARRAY_COUPLES
    table = range_crossover.crossover((2, 3), 2, 0.02)
    assert engine.ARRAY_COUPLES == saved
    assert table["n"] == [2, 3] and table["couples"] == [1, 3]
    assert all(v > 0 for v in table["loop_us"] + table["array_us"])


def test_main_writes_the_three_tables(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(range_crossover, "CROSSOVER_N", (2,))
    monkeypatch.setattr(range_crossover, "CROSSOVER_T_END", 0.02)
    monkeypatch.setattr(range_crossover, "LATTICE_N", (2, 4))
    monkeypatch.setattr(range_crossover, "LATTICE_T_END", 0.02)
    monkeypatch.setattr(range_crossover, "TABLE_N", 8)
    monkeypatch.setattr(range_crossover, "REPEATS", 1)
    monkeypatch.setattr(sys, "path", sys.path[:])  # main puts the tree's src and perfbench first
    out = tmp_path / "crossover.json"
    assert range_crossover.main(["--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["array_couples"] == engine.ARRAY_COUPLES
    assert result["crossover"]["n"] == [2]
    assert result["lattice"]["n"] == [2, 4] and len(result["lattice"]["us_per_agent_step"]) == 2
    # the 8-agent lattice line leaves its pair 3, (6, 7), without an edge
    assert result["couple_table"]["n"] == 8 and result["couple_table"]["edges"] == 3
    assert "couple table at n = 8 (3 edges)" in capsys.readouterr().out
