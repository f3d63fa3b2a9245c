"""Gain synthesis: pole expansion, coefficient matching and the
closed-form cross-check."""

import numpy as np
import pytest

from swarmform import (Gains, NumericDomainError, PlantParams, PoleSpec,
                       SynthesisError, closed_loop_polynomial,
                       desired_polynomial, direct_gain_formula, place_gains,
                       poles_from_spec)

PLANT = PlantParams(6.0, 25.0, 9.8)
SPEC = PoleSpec(12.0, 0.1, 0.55)


def quartic_from_pairs(rl, iml, imr):
    # independent expansion: (s^2 + 2 rl s + rl^2 + iml^2)(s^2 + imr^2)
    p = np.polymul([1.0, 2 * rl, rl * rl + iml * iml], [1.0, 0.0, imr * imr])
    return tuple(p)


def test_poles_from_spec_values():
    poles = poles_from_spec(SPEC)
    assert set(poles) == {complex(-12, -0.1), complex(-12, 0.1),
                          complex(0, -0.55), complex(0, 0.55)}


def test_poles_symmetric_case():
    poles = poles_from_spec(PoleSpec(0.0, 1.0, 2.0))
    assert set(poles) == {1j, -1j, 2j, -2j}


def test_pole_set_conjugate_closed_by_construction():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = PoleSpec(float(rng.uniform(0, 20)), float(rng.uniform(-5, 5)),
                        float(rng.uniform(0.01, 5)))
        poles = poles_from_spec(spec)
        assert {complex(p).conjugate() for p in poles} == set(poles)


def test_desired_polynomial_reference_case():
    want = quartic_from_pairs(12.0, 0.1, 0.55)
    got = desired_polynomial(poles_from_spec(SPEC))
    assert got[0] == 1.0
    assert got == pytest.approx(want, rel=1e-14)
    # frozen values from expanding (s^2 + 24 s + 144.01)(s^2 + 0.3025)
    assert got == pytest.approx((1.0, 24.0, 144.3125, 7.26, 43.563025), rel=1e-12)


def test_desired_polynomial_double_imaginary_pair():
    assert desired_polynomial((1j, -1j, 1j, -1j)) == pytest.approx((1, 0, 2, 0, 1), abs=1e-14)


def test_desired_polynomial_zero_poles():
    assert desired_polynomial((0, 0, 0, 0)) == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_desired_polynomial_rejects_unpaired_complex():
    with pytest.raises(NumericDomainError):
        desired_polynomial((1j, 2j, -1j, -3j))


def test_place_gains_reference_values():
    g = place_gains(PLANT, poles_from_spec(SPEC))
    assert g.k_pos == pytest.approx(0.0296347, abs=1e-6)
    assert g.k_vel == pytest.approx(0.0049388, abs=1e-6)
    assert g.k_tilt == pytest.approx(-0.0379167, abs=1e-6)
    assert g.k_rate == pytest.approx(-0.0066667, abs=1e-6)
    assert g.k1 == g.k_pos  # default stiffness


def test_place_gains_open_loop_roots_give_zero_gains():
    # s^2 (s + 10)(s + 15) is the open loop of kp=6, kd=25
    g = place_gains(PLANT, (0.0, 0.0, -10.0, -15.0))
    assert g.k_pos == pytest.approx(0.0, abs=1e-15)
    assert g.k_vel == pytest.approx(0.0, abs=1e-15)
    assert g.k_tilt == pytest.approx(0.0, abs=1e-14)
    assert g.k_rate == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("g", [5e-324, 1e-320])
def test_synthesis_rejects_a_vanishing_divisor_and_non_finite_gains(g):
    # g*k_p*k_d is 0 after rounding at 5e-324 and gives k_pos = inf at 1e-320
    plant = PlantParams(1.0, 0.5, g)
    with pytest.raises(SynthesisError):
        place_gains(plant, poles_from_spec(SPEC))
    with pytest.raises(SynthesisError):
        direct_gain_formula(plant, poles_from_spec(SPEC))


def test_place_gains_closed_loop_eigenvalues():
    # independent route: eigenvalues of A - B K must equal the target poles
    g = place_gains(PLANT, poles_from_spec(SPEC))
    kp, kd, grav = PLANT.k_p, PLANT.k_d, PLANT.g
    A = np.array([[0, 1, 0, 0],
                  [0, 0, grav, 0],
                  [0, 0, 0, 1],
                  [0, 0, -kp * kd, -kd]], dtype=float)
    B = np.array([0, 0, 0, kp * kd], dtype=float).reshape(4, 1)
    K = np.array([g.k_pos, g.k_vel, g.k_tilt, g.k_rate]).reshape(1, 4)
    eig = np.linalg.eigvals(A - B @ K)
    want = np.array(poles_from_spec(SPEC))
    assert np.allclose(sorted(eig, key=lambda z: (z.real, z.imag)),
                       sorted(want, key=lambda z: (z.real, z.imag)), atol=1e-9)


def test_closed_loop_polynomial_open_loop():
    zero = Gains(0, 0, 0, 0, 0)
    assert closed_loop_polynomial(PLANT, zero) == (1.0, 25.0, 150.0, 0.0, 0.0)


def test_closed_loop_polynomial_k_rate_sensitivity():
    g0 = Gains(0.01, 0.02, 0.03, 0.04, 0.01)
    g1 = Gains(0.01, 0.02, 0.03, 0.04 + 1e-3, 0.01)
    p0 = closed_loop_polynomial(PLANT, g0)
    p1 = closed_loop_polynomial(PLANT, g1)
    assert p1[1] - p0[1] == pytest.approx(150 * 1e-3, rel=1e-12)
    assert p1[2:] == p0[2:]
    assert p1[0] == p0[0] == 1.0


def _random_valid_case(rng):
    plant = PlantParams(float(rng.uniform(0.5, 20)), float(rng.uniform(0.5, 40)),
                        float(rng.uniform(1, 30)))
    spec = PoleSpec(float(rng.uniform(0, 25)), float(rng.uniform(-10, 10)),
                    float(rng.uniform(0.01, 10)))
    return plant, spec


def test_round_trip_polynomial_equality():
    rng = np.random.default_rng(42)
    for _ in range(200):
        plant, spec = _random_valid_case(rng)
        poles = poles_from_spec(spec)
        want = desired_polynomial(poles)
        got = closed_loop_polynomial(plant, place_gains(plant, poles))
        for c, d in zip(got, want):
            assert abs(c - d) <= 1e-9 * max(1.0, abs(d))


def test_undamped_pair_is_exact_factor():
    rng = np.random.default_rng(5)
    for _ in range(100):
        _, spec = _random_valid_case(rng)
        coeffs = desired_polynomial(poles_from_spec(spec))
        s = 1j * spec.imr
        value = sum(c * s ** (4 - i) for i, c in enumerate(coeffs))
        scale = max(1.0, max(abs(c) for c in coeffs))
        assert abs(value) < 1e-9 * scale


def test_direct_formula_reference_values():
    vals = direct_gain_formula(PLANT, poles_from_spec(SPEC))
    assert vals == pytest.approx((0.0049388, 0.0296347, 0.96208, -0.0066667), abs=1e-5)


def test_direct_formula_relations_to_placement():
    # printed order quirk: entries 1/2 transposed, entry 3 carries the
    # plant's unity tilt term, entry 4 matches
    rng = np.random.default_rng(2024)
    for _ in range(100):
        plant, spec = _random_valid_case(rng)
        poles = poles_from_spec(spec)
        vals = direct_gain_formula(plant, poles)
        g = place_gains(plant, poles)
        assert vals[0] == pytest.approx(g.k_vel, rel=1e-9, abs=1e-12)
        assert vals[1] == pytest.approx(g.k_pos, rel=1e-9, abs=1e-12)
        assert vals[2] == pytest.approx(1.0 + g.k_tilt, rel=1e-9, abs=1e-12)
        assert vals[3] == pytest.approx(g.k_rate, rel=1e-9, abs=1e-12)


def test_direct_formula_gravity_scaling():
    poles = poles_from_spec(SPEC)
    v1 = direct_gain_formula(PLANT, poles)
    v2 = direct_gain_formula(PlantParams(6.0, 25.0, 2 * 9.8), poles)
    assert v2[0] == pytest.approx(v1[0] / 2, rel=1e-12)
    assert v2[1] == pytest.approx(v1[1] / 2, rel=1e-12)
    assert v2[2] == v1[2]
    assert v2[3] == v1[3]


def test_pole_spec_invariants():
    with pytest.raises(Exception):
        PoleSpec(-1.0, 0.1, 0.55)
    with pytest.raises(Exception):
        PoleSpec(12.0, 0.1, 0.0)


def test_synthesis_runs_fast():
    import time
    poles = poles_from_spec(SPEC)
    place_gains(PLANT, poles)  # warm-up
    t0 = time.perf_counter()
    for _ in range(100):
        place_gains(PLANT, poles)
    per_call = (time.perf_counter() - t0) / 100
    assert per_call < 1e-3
