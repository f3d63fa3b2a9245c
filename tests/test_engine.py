"""Engine: step ordering, conservation, events, metrics and determinism."""

from dataclasses import replace

import numpy as np
import pytest

from swarmform import (AgentState, ConfigurationError, InteractionVariant,
                       ModelValidityWarning, NumericDomainError, PairState,
                       PlantParams, PoleSpec, SimulationAbort, World,
                       build_world, delta_rms, engine, rk4_step, rms_velocity,
                       run, step)
from swarmform.scenario import AgentInit, Scenario

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


def test_run_aborts_on_divergence():
    # dt far beyond the RK4 stability limit of the fast poles
    sc = make_scenario([AgentInit(0.0, 0.0, 0.3, 0.0, 20.0)],
                       dt=1.0, t_end=2000.0, stride=100)
    with pytest.warns(ModelValidityWarning):
        with pytest.raises(SimulationAbort) as err:
            run(sc)
    assert err.value.agent == 0
    assert err.value.t > 0


def test_tilt_warning_on_large_tilt():
    sc = make_scenario([AgentInit(0.0, 0.0, 0.6, 0.0, 20.0)], t_end=0.05)
    with pytest.warns(ModelValidityWarning):
        run(sc)


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


def test_world_validation():
    sc = make_scenario([AgentInit(0.0, 1.0, 0.0, 0.0, 20.0),
                        AgentInit(50.0, -1.0, 0.0, 0.0, 20.0)], edges=[(0, 1)])
    w = build_world(sc)
    assert w.edges == ((0, 1),) and w.pairs == (PairState(),)
    with pytest.raises(ConfigurationError):
        World(0, w.agents, w.radii[:1], w.edges, w.pairs, w.gains, w.plant, w.params, w.dt)
    with pytest.raises(ConfigurationError):
        replace(w, dt=0.0)
    with pytest.raises(ConfigurationError):
        replace(w, edges=((1, 0),))
    with pytest.raises(ConfigurationError):
        replace(w, edges=((0, 5),))
    with pytest.raises(ConfigurationError, match="coupling state"):
        replace(w, pairs=())


def test_trace_column_lookup(chain_run):
    _, trace, _ = chain_run
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
