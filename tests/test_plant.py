"""Plant model: derivative rows, RK4 behaviour and convergence order."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _rk4_reference(state, u_held, dt, plant):
    """rk4_step's stage arithmetic as it stood before its stage terms were
    bound once: every operation on the same operands, in the same order."""
    kpkd = plant.k_p * plant.k_d
    kd = plant.k_d
    g = plant.g
    p, v, tilt, rate = state
    force = kpkd * u_held
    a1 = v
    b1 = g * tilt
    c1 = rate
    d1 = force - kpkd * tilt - kd * rate
    h2 = 0.5 * dt
    a2 = v + h2 * b1
    b2 = g * (tilt + h2 * c1)
    c2 = rate + h2 * d1
    d2 = force - kpkd * (tilt + h2 * c1) - kd * (rate + h2 * d1)
    a3 = v + h2 * b2
    b3 = g * (tilt + h2 * c2)
    c3 = rate + h2 * d2
    d3 = force - kpkd * (tilt + h2 * c2) - kd * (rate + h2 * d2)
    a4 = v + dt * b3
    b4 = g * (tilt + dt * c3)
    c4 = rate + dt * d3
    d4 = force - kpkd * (tilt + dt * c3) - kd * (rate + dt * d3)
    s = dt / 6.0
    return (p + s * (a1 + 2.0 * (a2 + a3) + a4),
            v + s * (b1 + 2.0 * (b2 + b3) + b4),
            tilt + s * (c1 + 2.0 * (c2 + c3) + c4),
            rate + s * (d1 + 2.0 * (d2 + d3) + d4))


def _bits(values):
    return [struct.pack("<d", x) for x in values]


# magnitudes from subnormal to near overflow, zeros of both signs included
_wide = (st.floats(-1e3, 1e3)
         | st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 300))
         | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]))
_C_MAX = 0.05  # the shipped tilt saturation; commands come from inside and far outside it


@settings(derandomize=True, deadline=None, max_examples=300)
@given(state=st.tuples(_wide, _wide, _wide, _wide),
       u=st.floats(-_C_MAX, _C_MAX) | st.floats(-1e3, 1e3),
       dt=st.floats(1e-6, 0.1))
def test_rk4_is_bit_identical_to_the_reference_stages(state, u, dt):
    # the same floating-point operations on the same operands: equal bits,
    # the sign of zero and any overflow to inf or nan included
    got = rk4_step(AgentState(*state), u, dt, PLANT)
    assert type(got) is AgentState
    assert _bits(got) == _bits(_rk4_reference(state, u, dt, PLANT))


_inputs = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7e308, -1.7e308])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.tuples(_inputs, _inputs, _inputs, _inputs, _inputs))
def test_rk4_rejects_exactly_the_non_finite_inputs(values):
    *state, u = values
    if all(math.isfinite(x) for x in values):  # -0.0, subnormals and 1.7e308 pass
        assert len(rk4_step(AgentState(*state), u, 1e-3, PLANT)) == 4
    else:
        with pytest.raises(NumericDomainError, match="non-finite plant input"):
            rk4_step(AgentState(*state), u, 1e-3, PLANT)


@pytest.mark.parametrize("dt", [0.0, -0.0, -1e-3, math.nan, math.inf, -math.inf, "0.001", None])
def test_rk4_dt_contract_rejects(dt):
    with pytest.raises(ConfigurationError, match="integration step dt must be > 0"):
        rk4_step(AgentState(0, 0, 0, 0), 0.0, dt, PLANT)


@pytest.mark.parametrize("dt", [1, 1e-6, 0.001, 0.1, 2.5])
def test_rk4_dt_contract_accepts(dt):
    assert rk4_step(AgentState(1.0, 2.0, 0.1, 0.0), 0.01, dt, PLANT) == \
        _rk4_reference((1.0, 2.0, 0.1, 0.0), 0.01, dt, PLANT)
