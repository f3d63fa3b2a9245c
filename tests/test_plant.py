"""Plant model: derivative rows, RK4 behaviour and convergence order."""

import math

import numpy as np
import pytest

from swarmform import (AgentState, ConfigurationError, NumericDomainError,
                       PlantParams, derivative, rk4_step)

PLANT = PlantParams(6.0, 25.0, 9.8)


def test_equilibrium_derivative_is_zero():
    assert derivative(AgentState(0, 0, 0, 0), 0.0, PLANT) == (0, 0, 0, 0)


def test_derivative_tilt_row():
    # hand evaluation: dV = g*tilt, dRate = -kp*kd*tilt
    d = derivative(AgentState(0, 0, 0.1, 0), 0.0, PLANT)
    assert d[0] == 0
    assert d[1] == pytest.approx(0.98, abs=1e-12)
    assert d[2] == 0
    assert d[3] == pytest.approx(-15.0, abs=1e-12)


def test_derivative_command_row():
    # hand evaluation: kp*kd*u = 150 * 0.05
    d = derivative(AgentState(5, 2, 0, 0), 0.05, PLANT)
    assert d == (2, 0.0, 0, pytest.approx(7.5, abs=1e-12))


def test_derivative_rejects_non_finite():
    with pytest.raises(NumericDomainError):
        derivative(AgentState(math.nan, 0, 0, 0), 0.0, PLANT)
    with pytest.raises(NumericDomainError):
        derivative(AgentState(0, 0, 0, 0), math.inf, PLANT)


def test_derivative_linearity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s1 = AgentState(*rng.normal(size=4))
        s2 = AgentState(*rng.normal(size=4))
        u1, u2 = rng.normal(size=2)
        a, b = rng.normal(size=2)
        mix = AgentState(*(a * x + b * y for x, y in zip(s1, s2)))
        d_mix = derivative(mix, a * u1 + b * u2, PLANT)
        d1 = derivative(s1, u1, PLANT)
        d2 = derivative(s2, u2, PLANT)
        for lhs, x, y in zip(d_mix, d1, d2):
            assert lhs == pytest.approx(a * x + b * y, rel=1e-12, abs=1e-12)


def test_rk4_matches_generic_rk4_of_derivative():
    # the inlined stages must be the classical scheme applied to derivative()
    def generic(state, u, dt):
        y = np.array(state)

        def f(v):
            return np.array(derivative(AgentState(*v), u, PLANT))

        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    rng = np.random.default_rng(3)
    for _ in range(20):
        s = AgentState(*rng.normal(size=4))
        u = float(rng.normal())
        got = rk4_step(s, u, 0.01, PLANT)
        want = generic(s, u, 0.01)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_rk4_equilibrium_fixed_point():
    s = rk4_step(AgentState(0, 0, 0, 0), 0.0, 0.123, PLANT)
    assert s == AgentState(0, 0, 0, 0)


def test_rk4_ballistic_motion_exact():
    # with zero tilt the position/velocity chain is linear: exact for RK4
    s = rk4_step(AgentState(0, 3, 0, 0), 0.0, 0.001, PLANT)
    assert s.pos == pytest.approx(0.003, abs=1e-15)
    assert s.vel == 3
    assert s.tilt == 0
    assert s.tilt_rate == 0


def test_rk4_free_flight_position_linear_in_time():
    s = AgentState(1.0, -2.5, 0.0, 0.0)
    for k in range(1000):
        s = rk4_step(s, 0.0, 0.002, PLANT)
    assert s.vel == -2.5
    assert s.pos == pytest.approx(1.0 - 2.5 * 2.0, rel=1e-12)


def test_rk4_rejects_bad_dt():
    with pytest.raises(ConfigurationError):
        rk4_step(AgentState(0, 0, 0, 0), 0.0, 0.0, PLANT)
    with pytest.raises(ConfigurationError):
        rk4_step(AgentState(0, 0, 0, 0), 0.0, -1e-3, PLANT)


def _propagate(dt, horizon=0.1):
    s = AgentState(0.0, 0.0, 0.1, 0.0)
    for _ in range(int(round(horizon / dt))):
        s = rk4_step(s, 0.05, dt, PLANT)
    return np.array(s)


def test_rk4_fourth_order_convergence():
    ref = _propagate(1e-6)
    e1 = np.max(np.abs(_propagate(2e-3) - ref))
    e2 = np.max(np.abs(_propagate(1e-3) - ref))
    assert 12.0 <= e1 / e2 <= 20.0


def test_plant_params_validation():
    with pytest.raises(ConfigurationError):
        PlantParams(0.0, 25.0, 9.8)
    with pytest.raises(ConfigurationError):
        PlantParams(6.0, -1.0, 9.8)
    with pytest.raises(ConfigurationError):
        PlantParams(6.0, 25.0, math.nan)
