"""Self-tests of the benchmark: input generation, the correctness gate, the
span arithmetic, the restoring of wrapped module attributes and the
host-speed scaling.

    python3 -m pytest perfbench/tests -q
"""

import copy
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["outcomes"]

SHORT = workloads.with_stride(workloads.shipped_text("two_agent_switching_step"), 10).replace(
    "sim.t_end = 40.0", "sim.t_end = 0.5").replace("command[0].t = 29.0", "command[0].t = 0.4")


def test_lattice_is_deterministic_per_seed_and_differs_across_seeds():
    a = workloads.plan("lattice_swarm", 5)
    assert a == workloads.plan("lattice_swarm", 5)
    assert a.runs[0].text == workloads.lattice_text(workloads.LATTICE_N, 5)
    texts = {workloads.plan("lattice_swarm", s).runs[0].text for s in range(workloads.LATTICE_VARIANTS)}
    assert len(texts) == workloads.LATTICE_VARIANTS
    assert a.runs[0].n_agents == workloads.LATTICE_N


def test_every_seed_variant_has_a_reference():
    for w in workloads.WORKLOADS:
        for seed in range(max(workloads.LATTICE_VARIANTS, workloads.SWEEP_GRIDS)):
            for r in workloads.plan(w, seed).runs:
                assert r.key in REFERENCE


def test_gate_flags_a_perturbed_event_time():
    ref = REFERENCE["pair_encounter/two_agent_switching_step"]
    got = copy.deepcopy(ref)
    got["velocity_sum_drift"] = 1e-13
    assert gate.check(ref, got) == []
    got["coupling"][0][1] += 0.001  # one step later
    problems = gate.check(ref, got)
    assert len(problems) == 1 and problems[0].startswith("coupling[0][1]")


def test_gate_digest_tolerance_and_drift_bound():
    ref = REFERENCE["pair_encounter/two_agent_switching_step"]
    got = copy.deepcopy(ref)
    s, a, w = got["digest"]["vel"]
    got["digest"]["vel"] = [s + 0.1 * gate.DIGEST_RTOL * a, a, w]
    assert gate.check(ref, got) == []
    got["digest"]["vel"] = [s + 10 * gate.DIGEST_RTOL * a, a, w]
    assert gate.check(ref, got)[0].startswith("digest.vel")
    got = dict(copy.deepcopy(ref), velocity_sum_drift=2e-6)
    assert "velocity_sum_drift" in gate.check(ref, got)[0]
    assert gate.check(ref, RuntimeError("boom")) == ["run failed: RuntimeError: boom"]


def test_self_time_on_a_hand_built_span_tree():
    # Spans a..e; profile() groups a, d, e as "x" and b, c as "y".
    #   a [0, 10]
    #   +- b [1, 4]
    #   |  +- d [2, 3]
    #   +- c [5, 9]
    #      +- e [8, 9.5]   (reaches past its parent; only [8, 9] is covered)
    parent = np.array([-1, 0, 0, 1, 2])
    start = np.array([0.0, 1.0, 5.0, 2.0, 8.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 9.5])
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 2.0, 3.0, 1.0, 1.5]
    prof = tracer.profile(["x", "y"], np.array([0, 1, 1, 0, 0]), parent, start, end)
    assert prof == {"x": (3, 12.5, 5.5), "y": (2, 7.0, 5.0)}


def _attributes():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracer.WRAPPED}


def test_traced_run_counts_exactly_and_restores_every_attribute(tmp_path):
    from swarmform import cli

    before = _attributes()
    path = tmp_path / "short.cfg"
    path.write_text(SHORT)
    t = tracer.Tracer()
    with t.patch():
        during = _attributes()
        assert all(during[k] is not before[k] for k in before)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert _attributes() == before and all(_attributes()[k] is before[k] for k in before)

    m = tracer.layer_metrics(t)
    steps = 500
    assert m["engine.steps"] == steps + 1
    assert m["plant.rk4_calls"] == 2 * steps
    assert m["engine.world_rebuilds"] == 2 * steps + 1
    assert m["interaction.pair_evals"] == 2 * (steps + 1)  # the edge plus the all-pairs slot
    assert m["scenario.parse_calls"] == 1
    assert m["modal.place_gains_calls"] == 3  # parse, build_world, write_report
    assert m["engine.trace_rows"] == steps // 10 + 1
    assert m["output.csv_bytes"] == len((tmp_path / "out" / "trace.csv").read_text())
    assert 0 < m["engine.controls_self_s"] < m["engine.controls_s"]


def test_attributes_are_restored_when_the_traced_call_raises():
    from swarmform import engine

    before = _attributes()
    with pytest.raises(Exception):
        with tracer.Tracer().patch():
            engine.run(None)
    assert all(_attributes()[k] is before[k] for k in before)


def test_scaler_brackets_an_unsampled_step_with_chunks(monkeypatch):
    chunk_times = iter([0.2] * calibrate.BRACKET_CHUNKS + [0.4] * calibrate.BRACKET_CHUNKS
                       + [0.6] * calibrate.BRACKET_CHUNKS)
    monkeypatch.setattr(calibrate, "chunk_time", lambda: next(chunk_times))
    with calibrate.Scaler() as scaler:
        first, wall, scale = scaler.time(lambda: "first", sample=False)
        assert first == "first" and wall >= 0 and scale == pytest.approx(calibrate.REFERENCE_S / 0.3)
        second, _, scale = scaler.time(lambda: "second", sample=False)
        assert second == "second" and scale == pytest.approx(calibrate.REFERENCE_S / 0.5)


def test_scaler_samples_inside_a_step_and_leaves_the_chunks_out(monkeypatch):
    import signal
    import time

    monkeypatch.setattr(calibrate, "PERIOD_S", 0.05)
    handler = signal.getsignal(signal.SIGALRM)

    def busy():
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
        return "done"

    with calibrate.Scaler() as scaler:
        t0 = time.perf_counter()
        result, wall, scale = scaler.time(busy, sample=True)
        elapsed = time.perf_counter() - t0
    assert result == "done" and scale > 0
    assert 0 < wall < elapsed - 0.02  # chunks were taken and left out
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_calibration_kernel_is_fixed_work_and_leaves_the_gc_as_it_was():
    import gc

    assert calibrate.kernel(steps=50) == calibrate.kernel(steps=50)
    assert gc.isenabled()
    assert calibrate.chunk_time() > 0 and gc.isenabled()
    gc.disable()
    try:
        calibrate.chunk_time()
        assert not gc.isenabled()
    finally:
        gc.enable()
