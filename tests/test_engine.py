"""Engine: step ordering, conservation, events, metrics and determinism."""

import copy
import hashlib
import math
import pickle
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from swarmform import (AgentState, ConfigurationError, InteractionVariant,
                       ModelValidityWarning, NumericDomainError, PairState,
                       PlantParams, PoleSpec, SimulationAbort, World,
                       WorldConstants, build_world, delta_rms, engine, rk4_step,
                       rms_velocity, run, step, write_trace)
from swarmform.scenario import AgentInit, Command, Scenario

PLANT = PlantParams(6.0, 25.0, 9.8)
POLES = PoleSpec(12.0, 0.1, 0.55)


def make_scenario(agents, edges=(), commands=(), variant=InteractionVariant.SWITCHING_SMOOTH,
                  dt=0.001, t_end=2.0, stride=10, c_max=0.05, d_t=30.0, eps=0.1):
    return Scenario(plant=PLANT, poles=POLES, explicit_gains=None,
                    agents=tuple(agents), variant=variant, c_max=c_max,
                    d_t=d_t, eps=eps, k1=None, edges=tuple(edges),
                    commands=tuple(commands), dt=dt, t_end=t_end, stride=stride)


def test_symmetric_pair_velocity_sum_preserved_per_step():
    sc = make_scenario([AgentInit(0.0, 2.0, 0.0, 0.0, 20.0),
                        AgentInit(35.0, -2.0, 0.0, 0.0, 20.0)],
                       edges=[(0, 1)])
    w = build_world(sc)
    before = sum(a.vel for a in w.agents)
    w2 = step(w)
    after = sum(a.vel for a in w2.agents)
    assert abs(after - before) < 1e-12
    # the pair overlaps, so individual velocities did change
    assert w2.agents[0].vel != 2.0


def test_free_flight_outside_radius():
    sc = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                        AgentInit(100.0, -1.0, 0.0, 0.0, 20.0)])
    w = build_world(sc)
    w2 = step(w)
    assert w2.agents[0].vel == 1.0
    assert w2.agents[1].vel == -1.0
    assert w2.agents[0].pos == pytest.approx(0.001, abs=1e-15)


def test_single_agent_world_is_plain_integration():
    sc = make_scenario([AgentInit(3.0, -1.0, 0.02, 0.1, 20.0)])
    w = build_world(sc)
    w2 = step(w)
    direct = rk4_step(AgentState(3.0, -1.0, 0.02, 0.1), 0.0, 0.001, PLANT)
    assert w2.agents[0] == direct


def test_undeclared_pair_uses_repulsion():
    # no edge declared: overlapping agents still push each other apart
    sc = make_scenario([AgentInit(0.0, 0.0, 0.0, 0.0, 20.0),
                        AgentInit(35.0, 0.0, 0.0, 0.0, 20.0)],
                       variant=InteractionVariant.SWITCHING_SMOOTH)
    w = build_world(sc)
    w2 = step(w)
    # agent 0 is pushed to negative x: tilt command was negative
    assert w2.agents[0].tilt_rate < 0
    assert w2.agents[1].tilt_rate > 0


def test_rms_velocity_values():
    assert rms_velocity([-1.5, 3.0]) == pytest.approx(2.37171, abs=1e-5)
    assert rms_velocity([0.0, 0.0, 0.0]) == 0.0
    assert rms_velocity([-4.0]) == 4.0
    with pytest.raises(NumericDomainError):
        rms_velocity([])


def test_run_of_an_empty_swarm_raises_the_rms_error():
    # the parser requires an agent; a Scenario built directly may have none
    with pytest.raises(NumericDomainError, match="RMS velocity of an empty swarm"):
        run(make_scenario([]))


def test_run_trace_shape_and_grid():
    sc = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                        AgentInit(100.0, -1.0, 0.0, 0.0, 20.0)],
                       t_end=2.0, dt=0.001, stride=10)
    trace, metrics = run(sc)
    assert trace.n_rows == 201  # floor(2 / 0.01) + 1
    t = trace.column("t")
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(2.0, abs=1e-12)
    steps = np.diff(t)
    assert np.allclose(steps, 0.01, atol=1e-12)


def test_run_constant_velocity_delta_zero():
    sc = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                        AgentInit(200.0, 1.0, 0.0, 0.0, 20.0)], t_end=3.0)
    trace, metrics = run(sc)
    assert metrics.delta_rms == 0.0
    assert metrics.coupling_events == ()
    assert metrics.velocity_sum_drift < 1e-12


def test_run_is_deterministic():
    sc = make_scenario([AgentInit(0.0, 2.0, 0.0, 0.0, 20.0),
                        AgentInit(45.0, -2.0, 0.0, 0.0, 20.0)],
                       edges=[(0, 1)], t_end=4.0)
    t1, m1 = run(sc)
    t2, m2 = run(sc)
    assert np.array_equal(t1.data, t2.data)
    assert m1 == m2


def closing_line(n, free):
    """n agents 45 m apart (radius 20) whose neighbour pairs (0, 1), (2, 3),
    ... close on each other.  The pairs listed in `free` carry no edge and
    meet by the repulsion of undeclared couples."""
    rng = random.Random(n)
    agents = [AgentInit(45.0 * i, (2.25 if i % 2 == 0 else -2.25) + rng.uniform(-0.15, 0.15),
                        0.0, 0.0, 20.0) for i in range(n)]
    edges = [(i, i + 1) for i in range(0, n - 1, 2) if i // 2 not in free]
    return make_scenario(agents, edges, dt=0.002, t_end=5.0)


def packed_cluster(n):
    """n agents 12 m apart, each overlapping several others at once, so an
    agent's command sums more than two terms and their order shows."""
    rng = random.Random(n)
    agents = [AgentInit(12.0 * i, rng.uniform(-1.0, 1.0), 0.0, 0.0, 20.0) for i in range(n)]
    return make_scenario(agents, [(0, 1), (2, 4)], c_max=0.3, dt=0.002, t_end=1.0)


# digest: sha256 of the recorded trace.data.tobytes().  Both sides of the range
# pass share one contact loop, so their equality cannot show a change in an
# agent's summation order (edges by index, then undeclared contacts by
# (i, j)); the recorded trace does.  Each case runs on both sides of the
# crossover: range loop, then array pass.
@pytest.mark.parametrize("sc, digest", [
    (closing_line(4, (1,)), "bd6c10c563aea4613128dab2c9ea793ffaffc9e55f63f8a393f99c0ece2f8dc5"),
    (closing_line(5, (1,)), "c823f5748de386f786e80d5077e5afd8cb27143abd4019ffc29e02d1acef3e20"),
    (closing_line(6, (0, 2)), "00a8069e6f2734be1d1897c74c11f8f32a8a354a6701480f8da9969475e6e0c1"),
    (closing_line(24, (3, 8)), "fcbe897a1a24e1e53716af75e689c7c307fa724dce58fa987dd7ceae885626d2"),
    (packed_cluster(6), "510acdd5fe969cede905299a3a893646e41317262c3563f0f24b9c0058815f4a")],
    ids=["line4", "line5", "line6", "lattice24", "cluster6"])
def test_array_range_pass_is_bit_identical_to_the_loop(monkeypatch, sc, digest):
    results = []
    for couples in (10 ** 9, 0):  # the scalar loop, then the array pass
        monkeypatch.setattr(engine, "ARRAY_COUPLES", couples)
        results.append(run(sc))
    (t_loop, m_loop), (t_arr, m_arr) = results
    assert np.array_equal(t_loop.data, t_arr.data)
    assert m_loop == m_arr
    assert hashlib.sha256(t_arr.data.tobytes()).hexdigest() == digest
    # the run exercises what the array pass must reproduce
    undeclared = [k for k, (kind, i, j) in enumerate(t_arr.slots)
                  if kind == "range" and (i, j) not in sc.edges]
    contact = np.abs(t_arr.block("d")[:, undeclared]) < np.asarray(t_arr.slot_rsums)[undeclared]
    assert contact.any()


@pytest.mark.parametrize("sc, array_side", [
    (replace(closing_line(24, (3, 8)), t_end=1.5), True),
    (replace(closing_line(4, (1,)), t_end=1.5), False)], ids=["lattice24", "line4"])
def test_pair_geometry_calls_per_step(monkeypatch, sc, array_side):
    # the array side evaluates each declared edge once, in the edge loop, and
    # each undeclared contact once more for its repulsion; the loop side also
    # evaluates every couple, declared ones included, in the range pass
    calls = {"geometry": 0, "contacts": 0}
    per_step = []

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def controls(*args, _controls=engine._controls):
        before = dict(calls)
        out = _controls(*args)
        per_step.append({name: calls[name] - before[name] for name in calls})
        return out

    monkeypatch.setattr(engine, "pair_geometry", counting("geometry", engine.pair_geometry))
    monkeypatch.setattr(engine, "force_repulsion", counting("contacts", engine.force_repulsion))
    monkeypatch.setattr(engine, "_controls", controls)
    run(sc)
    n = len(sc.agents)
    couples = n * (n - 1) // 2
    assert (couples >= engine.ARRAY_COUPLES) == array_side
    assert len(per_step) == int(round(sc.t_end / sc.dt)) + 1
    range_pass = 0 if array_side else couples
    assert [c["geometry"] for c in per_step] == [
        len(sc.edges) + range_pass + c["contacts"] for c in per_step]
    assert any(c["contacts"] for c in per_step)


def test_lattice_trace_csv_is_pinned():
    # 24 agents: the range pass runs on its arrays
    trace, _ = run(closing_line(24, (3, 8)))
    assert hashlib.sha256(write_trace(trace).encode()).hexdigest() == (
        "55fc4ffac2b25eaaadb7bb5e0636f0a3837ae5c9920ab40861ad5e938aac7495")


def test_run_aborts_on_divergence():
    # dt far beyond the RK4 stability limit of the fast poles; in the trio,
    # only agent 1 leaves its rest state (agent 2 rests at 1e6 m)
    sc = make_scenario([AgentInit(0.0, 0.0, 0.3, 0.0, 20.0)],
                       dt=1.0, t_end=2000.0, stride=100)
    trio = make_scenario([AgentInit(0.0, 0.0, 0.0, 0.0, 20.0),
                          AgentInit(1e3, 0.0, 0.3, 0.0, 20.0),
                          AgentInit(1e6, 0.0, 0.0, 0.0, 20.0)],
                         dt=1.0, t_end=2000.0, stride=100)
    for scenario, agent in ((sc, 0), (trio, 1)):
        with pytest.warns(ModelValidityWarning) as record:
            with pytest.raises(SimulationAbort) as err:
                run(scenario)
        # one warning, for the first state past the limit (the step after
        # the initial 0.3 rad), and none for the state that aborts
        assert [str(w.message) for w in record] == [
            "tilt exceeded 0.5 rad at t=1.000 s; small-angle model validity is doubtful"]
        assert err.value.agent == agent and err.value.t == 96.0
        assert str(err.value) == (
            f"non-finite state at t=96.000000 s (agent {agent}): AgentState("
            "pos=-1.5087756318877146e+307, vel=nan, tilt=nan, tilt_rate=nan)")


@pytest.mark.parametrize("n", [2, 5])
def test_non_finite_command_raises_the_same_error_on_both_sides(monkeypatch, n):
    # corrected positions overflow to inf, so the edge separation is nan and
    # so is agent 0's command: the plant rejects it before any state
    # diverges, the run aborts naming the agent and the time, and numpy warns
    # nowhere on the way, on either side of the range-pass crossover
    sc = make_scenario([AgentInit(1.7e308, 1.7e308, 0.0, 0.0, 20.0)] * n, edges=[(0, 1)])
    for couples in (10 ** 9, 0):  # the scalar loop, then the array pass
        monkeypatch.setattr(engine, "ARRAY_COUPLES", couples)
        with pytest.raises(SimulationAbort) as err:
            run(sc)
        assert err.value.agent == 0 and err.value.t == 0.0
        assert str(err.value) == (
            "non-finite plant input u=nan at t=0.000000 s (agent 0): "
            "AgentState(pos=1.7e+308, vel=1.7e+308, tilt=0.0, tilt_rate=0.0)")


def test_aborts_name_the_last_agent_and_the_step_time(monkeypatch):
    # three agents, the last one at fault: 1.7e308 m plus 2e305 m per step
    # overflows after 48 steps of 10 ms, and its corrected position is inf,
    # so no pair involving it ever contributes a command
    trio = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                          AgentInit(50.0, -1.0, 0.0, 0.0, 20.0),
                          AgentInit(1.7e308, 2e307, 0.0, 0.0, 20.0)],
                         edges=[(0, 1)], dt=0.01, t_end=2.0)
    # a new state that overflows reports the time of that state, (k + 1) * dt
    with pytest.raises(SimulationAbort) as err:
        run(trio)
    assert err.value.agent == 2 and err.value.t == 49 * 0.01
    assert str(err.value) == ("non-finite state at t=0.490000 s (agent 2): "
                              "AgentState(pos=inf, vel=2e+307, tilt=0.0, tilt_rate=0.0)")

    # a non-finite command reports the time of the step that computed it,
    # world.t, and the agent's state before it
    controls = engine._controls

    def nan_for_the_last_agent_at_step_5(world, active_commands):
        us, *rest = controls(world, active_commands)
        if world.k == 5:
            us[-1] = float("nan")
        return (us, *rest)

    monkeypatch.setattr(engine, "_controls", nan_for_the_last_agent_at_step_5)
    with pytest.raises(SimulationAbort) as err:
        run(trio)
    assert err.value.agent == 2 and err.value.t == 5 * 0.01
    assert err.value.state == AgentState(1.71e308, 2e307, 0.0, 0.0)
    assert str(err.value) == ("non-finite plant input u=nan at t=0.050000 s (agent 2): "
                              "AgentState(pos=1.71e+308, vel=2e+307, tilt=0.0, tilt_rate=0.0)")


def _world_of(states, dt=0.001):
    """A World built in Python from agent states: no edges, radius 20 m."""
    sc = make_scenario([AgentInit(0.0, 0.0, 0.0, 0.0, 20.0)] * len(states), dt=dt, t_end=2 * dt)
    w = build_world(sc)
    return engine.replace(w, agents=tuple(AgentState(*s) for s in states)), sc


def test_a_non_finite_old_state_aborts_as_a_plant_input(monkeypatch):
    # agent 1's velocity is nan from the start: its corrected position is
    # nan, so no couple is in contact and its command is a finite 0.0; the
    # abort names it at the time of the old state, with the plant-input
    # message, on step() and on run()
    w, sc = _world_of([(0.0, 1.0, 0.0, 0.0), (500.0, math.nan, 0.0, 0.0)])
    message = ("non-finite plant input u=0.0 at t=0.000000 s (agent 1): "
               "AgentState(pos=500.0, vel=nan, tilt=0.0, tilt_rate=0.0)")
    with pytest.raises(SimulationAbort) as err:
        step(w)
    assert (err.value.agent, err.value.t, str(err.value)) == (1, 0.0, message)
    monkeypatch.setattr(engine, "build_world", lambda scenario: w)
    with pytest.raises(SimulationAbort) as err:
        run(sc)
    assert (err.value.agent, err.value.t, str(err.value)) == (1, 0.0, message)


def test_a_state_whose_sum_overflows_goes_on():
    # every component is finite, before and after the step, but pos + vel
    # passes the largest float
    states = [(1.7e308, 1e307, 0.0, 0.0), (-1.7e308, -1e307, 0.0, 0.0)]
    w, sc = _world_of(states)
    w2 = step(w)
    assert w2.k == 1
    assert w2.agents == tuple(rk4_step(AgentState(*s), 0.0, sc.dt, PLANT) for s in states)
    assert all(math.isinf(sum(s)) for s in (*states, *w2.agents))


def test_an_overflowing_state_aborts_before_a_later_agent_s_non_finite_command(monkeypatch):
    # agent 0's new position overflows and agent 1's command is nan in the
    # same step: agents are visited in order, so agent 0's new state aborts
    w, _ = _world_of([(1.79e308, 1e308, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)], dt=0.01)
    controls = engine._controls

    def nan_for_agent_1(world, active_commands):
        us, *rest = controls(world, active_commands)
        us[1] = math.nan
        return (us, *rest)

    monkeypatch.setattr(engine, "_controls", nan_for_agent_1)
    with pytest.raises(SimulationAbort) as err:
        step(w)
    assert err.value.agent == 0 and err.value.t == 0.01
    assert str(err.value) == ("non-finite state at t=0.010000 s (agent 0): "
                              "AgentState(pos=inf, vel=1e+308, tilt=0.0, tilt_rate=0.0)")


def test_a_world_takes_the_plant_s_dt_contract():
    # a dt that sim.dt's check takes but the plant does not (not an int or
    # float) is refused with the plant's error before any state advances
    sc = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0)])
    with pytest.raises(ConfigurationError, match="integration step dt must be > 0"):
        step(build_world(replace(sc, dt=np.float32(0.001))))


def test_simulation_abort_survives_pickle_and_copy():
    # a pool worker's abort reaches the parent through pickle
    err = SimulationAbort(0.05, 2, AgentState(1.71e308, 2e307, 0.0, 0.0),
                          "non-finite plant input u=nan")
    for clone in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(clone) is SimulationAbort
        assert (clone.t, clone.agent, clone.state, clone.message) == (
            err.t, err.agent, err.state, err.message)
        assert str(clone) == str(err) == (
            "non-finite plant input u=nan at t=0.050000 s (agent 2): "
            "AgentState(pos=1.71e+308, vel=2e+307, tilt=0.0, tilt_rate=0.0)")
    default = pickle.loads(pickle.dumps(SimulationAbort(1.0, 0, "s")))
    assert str(default) == "non-finite state at t=1.000000 s (agent 0): s"


def test_tilt_warning_on_large_tilt():
    sc = make_scenario([AgentInit(0.0, 0.0, 0.6, 0.0, 20.0)], t_end=0.05)
    # the initial state is past the limit: one warning at t = 0
    with pytest.warns(ModelValidityWarning) as record:
        run(sc)
    assert [str(w.message) for w in record] == [
        "tilt exceeded 0.5 rad at t=0.000 s; small-angle model validity is doubtful"]
    # step() never warns
    w = build_world(sc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(50):
            w = step(w)
    assert abs(w.agents[0].tilt) > engine.TILT_LIMIT


def test_default_runs_conserve_velocity_sum(default_run):
    for variant in ("repulsion", "attraction", "switching_step", "switching_smooth"):
        _, _, metrics = default_run(variant)
        assert metrics.velocity_sum_drift < 1e-6


def test_repulsion_encounter_is_quasi_elastic(default_run):
    _, _, metrics = default_run("repulsion")
    assert metrics.coupling_events == ()
    assert metrics.delta_rms is not None
    assert metrics.delta_rms < 0.02


def test_attraction_never_couples(default_run):
    _, trace, metrics = default_run("attraction")
    assert metrics.coupling_events == ()
    assert not np.any(trace.column("pair0_fen"))


def test_switching_step_couples_and_uncouples_after_command(default_run):
    sc, _, metrics = default_run("switching_step")
    assert len(metrics.coupling_events) == 1
    assert len(metrics.uncoupling_events) == 1
    t_couple = metrics.coupling_events[0][1]
    t_uncouple = metrics.uncoupling_events[0][1]
    assert t_couple < t_uncouple
    assert t_uncouple > sc.commands[0].t  # strictly after the scripted command


def test_switching_smooth_oscillates_about_target(default_run):
    sc, trace, _ = default_run("switching_smooth")
    d = np.abs(trace.column("pair0_d"))
    coupled = trace.column("pair0_fen") > 0
    assert coupled.any()
    assert d[coupled].min() < sc.d_t - 0.5
    assert d[coupled].max() > sc.d_t + 0.5


def test_separation_beyond_radius_by_end(default_run):
    for variant in ("switching_step", "switching_smooth"):
        _, trace, _ = default_run(variant)
        d = np.abs(trace.column("pair0_d"))
        assert d[-1] > 40.0


def test_chain_couples_both_edges_at_target_distance(chain_run):
    sc, trace, metrics = chain_run
    assert len(metrics.coupling_events) == 2
    for k in range(2):
        fen = trace.column(f"pair{k}_fen") > 0
        assert fen.any()
        avg = np.abs(trace.column(f"pair{k}_d"))[fen].mean()
        assert sc.d_t - 2.0 < avg < sc.d_t + 2.0


def test_event_ordering(default_run):
    _, _, metrics = default_run("switching_step")
    (_, t_c), = metrics.coupling_events
    (_, t_u), = metrics.uncoupling_events
    assert t_c < t_u


def test_step_latches_uncouple_command():
    sc = make_scenario([AgentInit(0.0, 2.25, 0.0, 0.0, 20.0),
                        AgentInit(50.0, -2.25, 0.0, 0.0, 20.0)],
                       edges=[(0, 1)])
    w = build_world(sc)
    assert w.pairs[0].f_en == 0
    for _ in range(12000):
        w = step(w)
        if w.pairs[0].f_en:
            break
    assert w.pairs[0].f_en == 1
    # command while outside the switching window: latched, not yet released
    w2 = step(w, active_commands={0})
    assert w2.pairs[0].uncouple_pending or w2.pairs[0].f_en == 0
    # the latched command eventually releases the pair
    for _ in range(12000):
        w2 = step(w2)
        if w2.pairs[0].f_en == 0:
            break
    assert w2.pairs[0].f_en == 0
    assert not w2.pairs[0].uncouple_pending


def test_step_loop_matches_run():
    # the pair couples at t = 3.401 s and stays coupled to the end
    sc = make_scenario([AgentInit(0.0, 3.0, 0.0, 0.0, 20.0),
                        AgentInit(50.0, -3.0, 0.0, 0.0, 20.0)],
                       edges=[(0, 1)], t_end=4.0)
    trace, metrics = run(sc)
    assert len(metrics.coupling_events) == 1
    w = build_world(sc)
    n_steps = int(round(sc.t_end / sc.dt))
    for _ in range(n_steps):
        w = step(w)
    last = dict(zip(trace.columns, trace.data[-1]))
    for i, s in enumerate(w.agents):
        assert (s.pos, s.vel, s.tilt, s.tilt_rate) == (
            last[f"agent{i}_pos"], last[f"agent{i}_vel"],
            last[f"agent{i}_tilt"], last[f"agent{i}_rate"])
    assert w.pairs[0].f_en == last["pair0_fen"] == 1.0
    assert w.k == n_steps
    assert w.t == last["t"] == 4.0  # step() keeps run()'s clock, with no drift


def test_run_with_explicit_gains():
    sc = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                        AgentInit(100.0, -1.0, 0.0, 0.0, 20.0)], t_end=1.0)
    g = sc.resolved_gains()
    explicit = Scenario(plant=sc.plant, poles=None,
                        explicit_gains=(g.k_pos, g.k_vel, g.k_tilt, g.k_rate),
                        agents=sc.agents, variant=sc.variant, c_max=sc.c_max,
                        d_t=sc.d_t, eps=sc.eps, k1=None, edges=(), commands=(),
                        dt=sc.dt, t_end=sc.t_end, stride=sc.stride)
    t1, _ = run(sc)
    t2, _ = run(explicit)
    assert np.array_equal(t1.data, t2.data)


@st.composite
def small_swarms(draw):
    """1-8 agents within reach of each other, random edges and uncouple
    commands: 0-28 couples, so both sides of ARRAY_COUPLES (10) are drawn.

    Each edge may get a command shortly after its pair, flying freely,
    would reach the coupling distance, and the switching neighbourhood is
    0.5-3 m wide, so that a pair that couples is often still in it when
    the command fires and releases there."""
    n = draw(st.sampled_from(range(1, 9)))
    # neighbours close on each other, some from just beyond the coupling distance
    gaps = [0.0] + [draw(st.floats(30.5, 36.0) | st.floats(10.0, 45.0)) for _ in range(n - 1)]
    agents = [AgentInit(sum(gaps[:i + 1]), (-1) ** i * draw(st.floats(0.0, 8.0)), 0.0, 0.0,
                        draw(st.floats(16.0, 30.0))) for i in range(n)]
    couples = [(i, j) for i in range(n) for j in range(i + 1, n)]
    closing = [(i, i + 1) for i in range(0, n - 1, 2)]
    edges = draw(st.lists(st.sampled_from(closing) | st.sampled_from(couples),
                          min_size=1, unique=True)) if couples else []
    t_end = draw(st.floats(0.3, 1.5))
    commands = []
    for e, (a, b) in enumerate(edges):
        if draw(st.booleans()):
            speed = agents[a].vel - agents[b].vel
            reach = max(agents[b].pos - agents[a].pos - 30.0, 0.0) / speed if speed > 0 else 0.0
            commands.append(Command(min(reach + draw(st.floats(0.0, 0.2)), t_end), "uncouple", e))
    return make_scenario(agents, edges, commands,
                         # the switching variants first: they are drawn more often
                         variant=draw(st.sampled_from(list(InteractionVariant)[::-1])),
                         dt=0.005, t_end=t_end, stride=draw(st.integers(1, 7)),
                         eps=draw(st.floats(0.5, 3.0)))


def released_at(*times, pairs=1):
    """A switching_step pair that enters its switching neighbourhood at
    8.49 s and is still in it at RELEASE_STEP, with uncouple commands on
    its edge at `times`: the pair releases on the step its command fires.
    With pairs > 1, copies of the pair fly 1 km apart, as edges 0, 1, ...,
    each with its own commands at `times`."""
    agents, edges, commands = [], [], []
    for e in range(pairs):
        agents += [AgentInit(1000.0 * e, 2.25, 0.0, 0.0, 20.0),
                   AgentInit(1000.0 * e + 45.0, -2.25, 0.0, 0.0, 20.0)]
        edges.append((2 * e, 2 * e + 1))
        commands += [Command(t, "uncouple", e) for t in times]
    return make_scenario(agents, edges, commands,
                         variant=InteractionVariant.SWITCHING_STEP, dt=0.005, t_end=9.0, stride=5)


RELEASE_STEP = 1699
ON_GRID = RELEASE_STEP * 0.005  # 8.495000000000001


@settings(derandomize=True, deadline=None)
@given(small_swarms())
@example(released_at(ON_GRID))
@example(released_at(ON_GRID - 1e-10))
@example(released_at(ON_GRID + 1e-10))
@example(released_at(ON_GRID - 1e-9))
@example(released_at(ON_GRID + 1e-9))
@example(released_at(ON_GRID + 2e-9))  # due after the grid step: fires one step late
@example(released_at(ON_GRID, ON_GRID + 1e-10))  # two commands on one edge
@example(released_at(ON_GRID, pairs=2))  # two edges fire in one step
@example(released_at(math.nan, ON_GRID))  # a NaN time is never due and, in either order,
@example(released_at(ON_GRID, math.nan))  # blocks no other command
def test_runs_and_step_loops_are_deterministic(sc):
    trace, metrics = run(sc)
    again, metrics_again = run(sc)
    assert write_trace(trace) == write_trace(again) and metrics == metrics_again

    # step() with run()'s command timing, up to the last sampled step
    w = build_world(sc)
    fired = [False] * len(sc.commands)
    last_k = int(round(sc.t_end / sc.dt)) // sc.stride * sc.stride
    while w.k < last_k:
        active = set()
        for c, cmd in enumerate(sc.commands):
            if not fired[c] and w.t >= cmd.t - 1e-9:
                fired[c] = True
                active.add(cmd.edge)
        w = step(w, active)
    assert w.k == last_k and w.t == trace.data[-1, 0]
    last = np.stack([trace.block(f)[-1] for f in ("pos", "vel", "tilt", "rate")], axis=1)
    assert np.array_equal([[s.pos, s.vel, s.tilt, s.tilt_rate] for s in w.agents], last)


def test_small_swarms_draw_a_release():
    # the property above reaches uncoupling through drawn swarms, not only
    # through its fixed examples
    sc = find(small_swarms(), lambda sc: run(sc)[1].uncoupling_events,
              settings=settings(derandomize=True, database=None, phases=[Phase.generate]))
    assert run(sc)[1].coupling_events


@st.composite
def sampled_swarms(draw):
    """small_swarms at stride 1, 3 or 7, over a step count that 7 does not
    divide, so that the last step is not sampled at stride 7."""
    n_steps = draw(st.integers(60, 300).filter(lambda k: k % 7))
    return replace(draw(small_swarms()), t_end=n_steps * 0.005,
                   stride=draw(st.sampled_from((1, 3, 7))))


def line_of(n, stride):
    """n agents 35 m apart, neighbours closing on each other, with edges
    (0, 1), (2, 3), ...; from n = 5 the range pass is the array side."""
    agents = [AgentInit(35.0 * i, (-1) ** i * 2.0, 0.0, 0.0, 20.0) for i in range(n)]
    return make_scenario(agents, [(i, i + 1) for i in range(0, n - 1, 2)],
                         dt=0.005, t_end=1.0, stride=stride)


@settings(derandomize=True, deadline=None)
@given(sampled_swarms())
@example(line_of(1, 7))  # a lone agent: no pair slot
@example(line_of(5, 3))  # ARRAY_COUPLES couples
def test_run_derives_t_rms_and_range_indicators_after_the_loop(sc):
    trace, _ = run(sc)
    n_steps = int(round(sc.t_end / sc.dt))
    assert trace.n_rows == n_steps // sc.stride + 1
    assert trace.data[:, 0].tolist() == [k * sc.stride * sc.dt for k in range(trace.n_rows)]
    assert trace.column("rms").tolist() == [rms_velocity(v) for v in trace.block("vel").tolist()]
    assert not trace.block("fen")[:, len(sc.edges):].any()
    assert trace.block("d").shape == (trace.n_rows, len(trace.slots))


def test_a_command_fires_on_the_step_it_falls_due():
    # 1e-10 s past the grid step is within the 1e-9 s tolerance
    _, metrics = run(released_at(ON_GRID + 1e-10))
    assert metrics.uncoupling_events == ((0, ON_GRID),)
    _, metrics = run(released_at(ON_GRID, pairs=2))
    assert metrics.uncoupling_events == ((0, ON_GRID), (1, ON_GRID))


def test_world_validation(monkeypatch):
    sc = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                        AgentInit(50.0, -1.0, 0.0, 0.0, 20.0)], edges=[(0, 1)])
    w = build_world(sc)
    assert w.edges == w.const.edges == ((0, 1),) and w.pairs == (PairState(),)
    # the fixed parts check themselves when built
    with pytest.raises(ConfigurationError, match="dt"):
        replace(w.const, dt=0.0)
    with pytest.raises(ConfigurationError, match=r"edge \(1, 0\)"):
        replace(w.const, edges=((1, 0),))
    with pytest.raises(ConfigurationError, match=r"edge \(0, 5\)"):
        replace(w.const, edges=((0, 5),))
    with pytest.raises(ConfigurationError, match="k_pos"):
        replace(w.const, gains=replace(w.const.gains, k_pos=0.0))
    # the world checks its state against them
    with pytest.raises(ConfigurationError, match="radius"):
        World(0, w.agents, (), replace(w.const, radii=w.const.radii[:1], edges=()))
    # and so does every rebuild
    with pytest.raises(ConfigurationError, match="coupling state"):
        engine.replace(w, pairs=())
    with pytest.raises(ConfigurationError, match="radius"):
        engine.replace(w, agents=w.agents[:1])
    # a rebuild takes the named tuple's field names only, and none is required
    with pytest.raises(ValueError, match=r"unexpected field names: \['bogus'\]"):
        engine.replace(w, bogus=1)
    same = engine.replace(w)
    assert same == w and type(same) is World
    # copy and pickle rebuild through World.__new__, so through the checks
    assert copy.copy(w) == pickle.loads(pickle.dumps(w)) == w
    assert type(pickle.loads(pickle.dumps(w))) is World
    unchecked = tuple.__new__(World, (0, w.agents, (), w.const))
    with pytest.raises(ConfigurationError, match="coupling state"):
        pickle.loads(pickle.dumps(unchecked))
    with pytest.raises(ConfigurationError, match="coupling state"):
        copy.copy(unchecked)

    # a per-step rebuild does not check the fixed parts again
    checks = []
    check = WorldConstants.__post_init__
    monkeypatch.setattr(WorldConstants, "__post_init__",
                        lambda self: checks.append(self) or check(self))
    assert engine.replace(w, k=w.k + 1).t == sc.dt and checks == []
    run(sc)
    assert len(checks) == 1


def test_trace_column_lookup(chain_run):
    _, trace, _ = chain_run
    assert trace.slots == (("edge", 0, 1), ("edge", 1, 2),
                           ("range", 0, 1), ("range", 0, 2), ("range", 1, 2))
    # 3 agents, 2 edges + 3 monitored couples: 1 + 3*5 + 5*2 + 1 columns
    assert len(trace.columns) == trace.data.shape[1] == 27
    with pytest.raises(KeyError, match="agent0_pos"):
        trace.column("nonexistent")
    for field in engine.Trace.AGENT_FIELDS:
        block = trace.block(field)
        assert block.shape == (trace.n_rows, 3)
        for i in range(3):
            assert np.array_equal(block[:, i], trace.column(f"agent{i}_{field}"))
    for field in engine.Trace.SLOT_FIELDS:
        block = trace.block(field)
        assert block.shape == (trace.n_rows, 5)
        for k in range(5):
            assert np.array_equal(block[:, k], trace.column(f"pair{k}_{field}"))
    with pytest.raises(KeyError, match="unknown trace field"):
        trace.block("rms")


def test_delta_rms_requires_pre_contact_history():
    # agents already overlapping at t = 0: no pre-contact window exists
    sc = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                        AgentInit(35.0, -1.0, 0.0, 0.0, 20.0)],
                       edges=[(0, 1)], t_end=1.0)
    trace, metrics = run(sc)
    assert metrics.delta_rms is None
    assert "pre-contact" in metrics.delta_reason


def test_delta_rms_reports_missing_settled_window(default_run):
    # truncate a coupled run before it settles: reason must say so
    sc, trace, _ = default_run("switching_step")
    cut = trace.data[trace.column("t") <= 20.0]
    res = delta_rms(replace(trace, data=cut))
    assert res.value is None
    assert "settled" in res.reason
