"""tools/ab_bench.py: the claim rule and the bound check on hand-made runs."""

import importlib.util
import os
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

SPEC = [{"name": "steps_per_s", "better": "higher", "bound": 0.25}]
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def result(value, failed=0):
    """One perfbench run's final JSON line, reduced to what summarise reads."""
    return {"correct": True, "failed": failed, "attempted": 10,
            "metrics": {"steps_per_s": {"value": value}}}


def claim(parent, change, change_failed=0):
    runs = {"w": {"parent": [result(v) for v in parent],
                  "change": [result(v, change_failed) for v in change]}}
    return ab_bench.summarise(runs, SPEC)["w"]["metrics"]["steps_per_s"]["claim_rule_met"]


def nine_wins(parent):
    # +10 on every pair but the last, which the change loses
    return [v + 10.0 for v in parent[:-1]] + [parent[-1] - 1.0]


def test_nine_wins_in_ten_with_a_median_gap_above_the_parent_iqr_meet_the_claim():
    assert claim(PARENT, nine_wins(PARENT))


def test_fewer_than_ten_pairs_never_meet_the_claim():
    for n in range(1, ab_bench.MIN_PAIRS):
        assert not claim(PARENT[:n], [v + 10.0 for v in PARENT[:n]]), n


def test_more_failed_operations_for_the_change_void_the_claim():
    assert not claim(PARENT, nine_wins(PARENT), change_failed=1)


def test_eight_wins_in_ten_do_not_meet_the_claim():
    change = [v + 10.0 for v in PARENT[:-2]] + [v - 1.0 for v in PARENT[-2:]]
    assert not claim(PARENT, change)


def test_a_median_gap_inside_the_parent_iqr_does_not_meet_the_claim():
    parent = [90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0, 100.0, 100.0]
    assert not claim(parent, [v + 1.0 for v in parent])  # ten wins, IQR ~ 11
    assert claim(parent, [v + 20.0 for v in parent])


@pytest.mark.parametrize("better, worse", [("lower", 1.3), ("higher", 0.7)])
def test_bound_broken_follows_the_metric_direction(better, worse):
    parent = [1.0] * 10

    def broken(factor):
        return ab_bench.compare(parent, [factor] * 10, better, 0.25, False)["bound_broken"]

    assert broken(worse)  # 30 % worse than the parent, past the 25 % bound
    assert not broken(2.0 - worse)  # 30 % better
    assert not broken(1.0 + (worse - 1.0) / 3)  # 10 % worse, inside the bound


def test_host_parallelism_times_forked_busy_loops_and_leaves_no_child():
    result = ab_bench.host_parallelism(iterations=20_000, reps=2)
    assert result["loop_iterations"] == 20_000
    assert len(result["speedups"]) == 2 and all(s > 0 for s in result["speedups"])
    assert result["median"] == statistics.median(result["speedups"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def traced(values, correct=True):
    """One traced perfbench run's final JSON line: {name: (value, unit)}."""
    return {"correct": correct, "failed": 0, "attempted": 1,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def test_the_traced_reducer_takes_each_side_s_median_and_compares_the_counts():
    def run(rk4_s, wall, correct=True):
        return traced({"plant.rk4_calls": (120, "count"), "plant.rk4_s": (rk4_s, "s"),
                       "trace.wall_s": (wall, "s")}, correct)

    # the change's host ran 1.5 times slower in its second run: the times
    # spread, their shares of the run's wall time do not
    runs = {"parent": [run(0.30, 1.2), run(0.20, 0.8), run(0.25, 1.0)],
            "change": [run(0.10, 1.0), run(0.15, 1.5, correct=False), run(0.12, 1.2)]}
    section = ab_bench.summarise_traced(runs, "cmd")
    assert section["command"] == "cmd"
    assert section["median"] == {
        "parent": {"plant.rk4_calls": 120, "plant.rk4_s": 0.25, "trace.wall_s": 1.0},
        "change": {"plant.rk4_calls": 120, "plant.rk4_s": 0.12, "trace.wall_s": 1.2}}
    assert section["median_change_rel"]["plant.rk4_calls"] == 0.0
    assert section["median_change_rel"]["plant.rk4_s"] == pytest.approx(0.12 / 0.25 - 1.0)
    assert section["share_of_wall"] == {"parent": {"plant.rk4_s": 0.25},
                                        "change": {"plant.rk4_s": 0.1}}
    assert section["runs"]["change"][1] == {"plant.rk4_calls": 120, "plant.rk4_s": 0.15,
                                            "trace.wall_s": 1.5}
    assert section["correct"] == {"parent": [True] * 3, "change": [True, False, True]}
    assert section["counts_equal"]

    # a count that differs in one run, on either side, is reported; a time never is
    runs["change"][2]["metrics"]["plant.rk4_calls"]["value"] = 121
    assert not ab_bench.summarise_traced(runs, "cmd")["counts_equal"]


def test_a_zero_parent_median_has_no_relative_change():
    runs = {s: [traced({"output.svg_bytes": (0, "B"), "engine.steps": (5, "count"),
                        "trace.wall_s": (1.0, "s")})] for s in ab_bench.SIDES}
    assert ab_bench.summarise_traced(runs, "cmd")["median_change_rel"] == {
        "engine.steps": 0.0, "trace.wall_s": 0.0}
