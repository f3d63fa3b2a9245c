"""Force laws and the coupling state machine."""

import numpy as np
import pytest

from swarmform import (AgentState, ConfigurationError, Gains,
                       InteractionParams, InteractionVariant, PairState,
                       corrected_position, force_attraction, force_repulsion,
                       force_switching_smooth, force_switching_step,
                       pair_force, pair_geometry, saturate, update_pair)

K1 = 0.0296347
GAINS = Gains(0.0296347, 0.0049388, -0.0379167, -0.0066667, 0.0296347)


def params(variant=InteractionVariant.SWITCHING_SMOOTH, c_max=1.0, d_t=30.0,
           eps=0.1, k1=K1):
    return InteractionParams(c_max, d_t, eps, variant, k1)


def geom(d, r=20.0, d_t=30.0):
    return pair_geometry(0.0, d, r, r, d_t)


# --- corrected coordinates and geometry ---------------------------------

def test_corrected_position_rest_state():
    assert corrected_position(AgentState(42.0, 0, 0, 0), GAINS) == 42.0


def test_corrected_position_velocity_lead():
    got = corrected_position(AgentState(10.0, 2.0, 0, 0), GAINS)
    assert got == pytest.approx(10 + 2 * (0.0049388 / 0.0296347), rel=1e-12)
    assert got == pytest.approx(10.3333, abs=1e-3)


def test_corrected_position_tilt_term():
    got = corrected_position(AgentState(0, 0, 0.1, 0), GAINS)
    assert got == pytest.approx(-0.12795, abs=1e-4)


def test_corrected_position_requires_position_gain():
    with pytest.raises(ConfigurationError):
        corrected_position(AgentState(1, 1, 0, 0), Gains(0.0, 1, 0, 0, 1))


def test_pair_geometry_table_values():
    g = pair_geometry(0.0, 50.0, 20.0, 20.0, 30.0)
    assert (g.d, g.s_d, g.c, g.r_sum) == (50.0, 1.0, 10.0, 40.0)
    assert g.b == 35.0


def test_pair_geometry_overlap_and_mirror():
    g = geom(39.0)
    assert g.c == -1.0
    gm = geom(-39.0)
    assert gm.s_d == -1.0
    assert gm.c == 1.0


def test_pair_geometry_tie_break_positive():
    assert geom(0.0).s_d == 1.0


def test_pair_geometry_on_arrays_equals_the_scalar_call():
    # ties (s_d = +1, also for -0.0), negative d, overlap on both sides,
    # touching and separate spheres, unequal radii
    p_i = np.array([0.0, 0.0, 10.0, 5.0, 0.0, 0.0, 1e-300, 0.1, 7.0])
    p_j = np.array([0.0, -0.0, -29.5, 44.9, 40.0, -40.0, 0.0, 0.3, 55.5])
    r_i = np.array([20.0, 20.0, 20.0, 15.0, 20.0, 20.0, 20.0, 1e-3, 22.5])
    r_j = np.array([20.0, 20.0, 12.5, 30.0, 20.0, 20.0, 20.0, 2e-3, 20.0])
    arr = pair_geometry(p_i, p_j, r_i, r_j, 30.0)
    assert list(arr.s_d) == [1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0]
    for k in range(len(p_i)):
        one = pair_geometry(float(p_i[k]), float(p_j[k]), float(r_i[k]), float(r_j[k]), 30.0)
        for field in ("d", "s_d", "c", "r_sum", "b"):
            assert getattr(arr, field)[k] == getattr(one, field), (k, field)


# --- saturation ----------------------------------------------------------

def test_saturate_interior_and_clamp():
    assert saturate(0.02, 0.05) == 0.02
    assert saturate(-0.30, 0.05) == -0.05
    assert saturate(0.30, 0.05) == 0.05


def test_saturate_odd():
    for u in np.linspace(-0.2, 0.2, 41):
        assert saturate(-u, 0.05) == -saturate(u, 0.05)


# --- repulsion ------------------------------------------------------------

def test_repulsion_zero_outside_radius():
    assert force_repulsion(geom(50.0), params()) == 0.0
    assert force_repulsion(geom(40.0), params()) == 0.0


def test_repulsion_linear_inside():
    assert force_repulsion(geom(39.0), params()) == pytest.approx(-K1, rel=1e-12)


def test_repulsion_saturates():
    assert force_repulsion(geom(5.0), params(c_max=0.05)) == -0.05


# --- attraction -----------------------------------------------------------

def test_attraction_gate():
    assert force_attraction(geom(41.0), params()) == 0.0


def test_attraction_equilibrium_at_target():
    assert force_attraction(geom(30.0), params()) == 0.0


def test_attraction_pulls_toward_neighbour():
    f = force_attraction(geom(35.0), params(c_max=0.05))
    assert f == 0.05  # k1 * 5 = 0.148 clamped


# --- hard-switching variant -----------------------------------------------

def test_switching_step_uncoupled_is_repulsion():
    f = force_switching_step(geom(39.0), PairState(f_en=0), params())
    assert f == pytest.approx(-K1, rel=1e-12)


def test_switching_step_coupled_spring():
    f = force_switching_step(geom(35.0), PairState(f_en=1), params())
    assert f == pytest.approx(K1 * 5, rel=1e-12)
    f = force_switching_step(geom(29.0), PairState(f_en=1), params())
    assert f == pytest.approx(-K1, rel=1e-12)


def test_switching_step_coupled_spring_has_no_gate():
    f = force_switching_step(geom(55.0), PairState(f_en=1), params())
    assert f == pytest.approx(K1 * 25, rel=1e-12)


def test_switching_step_jump_size_at_coupling():
    # stepwise change between branches inside the switching neighbourhood
    p = params()
    for d in (29.91, 30.0, 30.09):
        f1 = force_switching_step(geom(d), PairState(f_en=0), p)
        f2 = force_switching_step(geom(d), PairState(f_en=1), p)
        jump = abs(f1 - f2)
        assert jump == pytest.approx(K1 * (40.0 - 30.0), abs=K1 * p.eps + 1e-12)


# --- continuous-switching variant ------------------------------------------

def test_switching_smooth_outer_piece():
    f = force_switching_smooth(geom(37.0), PairState(f_en=0), params())
    assert f == pytest.approx(K1 * (37 - 40), rel=1e-12)


def test_switching_smooth_continuity_at_midpoint():
    f = force_switching_smooth(geom(35.0), PairState(f_en=0), params())
    assert f == pytest.approx(-K1 * 5, rel=1e-12)
    # both adjacent pieces give the same value
    lo = force_switching_smooth(geom(35.0 - 1e-12), PairState(f_en=0), params())
    hi = force_switching_smooth(geom(35.0 + 1e-12), PairState(f_en=0), params())
    assert abs(lo - hi) < 1e-12


def test_switching_smooth_coincidence_inside_target():
    p = params()
    f_un = force_switching_smooth(geom(28.0), PairState(f_en=0), p)
    f_co = force_switching_smooth(geom(28.0), PairState(f_en=1), p)
    assert f_un == pytest.approx(K1 * (28 - 30), rel=1e-12)
    assert f_un == f_co


def test_switching_smooth_breakpoint_continuity():
    p = params()
    st = PairState(f_en=0)
    for bp in (30.0, 35.0, 40.0):
        lo = force_switching_smooth(geom(bp - 1e-9), st, p)
        hi = force_switching_smooth(geom(bp + 1e-9), st, p)
        assert abs(lo - hi) < 1e-10  # k1 * 2e-9 plus roundoff


def test_switching_smooth_lipschitz_before_saturation():
    p = params(c_max=1e9)  # disable clamping
    st = PairState(f_en=0)
    rng = np.random.default_rng(1)
    d = rng.uniform(0.01, 60.0, size=300)
    f = np.array([force_switching_smooth(geom(x), st, p) for x in d])
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            assert abs(f[i] - f[j]) <= K1 * abs(d[i] - d[j]) + 1e-12


# --- oddness across all variants -------------------------------------------

@pytest.mark.parametrize("variant", list(InteractionVariant))
@pytest.mark.parametrize("f_en", [0, 1])
def test_force_oddness_exact(variant, f_en):
    p = params(variant=variant, c_max=0.05)
    st = PairState(f_en=f_en)
    rng = np.random.default_rng(99)
    ds = rng.uniform(0.001, 60.0, size=2500)
    for d in ds:
        f_pos = pair_force(geom(float(d)), st, p)
        f_neg = pair_force(geom(float(-d)), st, p)
        assert f_neg == -f_pos  # exact, including saturated branches


def test_gate_exact_zero_outside():
    for variant in (InteractionVariant.REPULSION, InteractionVariant.ATTRACTION):
        p = params(variant=variant)
        for d in (40.0, 41.0, 100.0, -40.0, -77.0):
            assert pair_force(geom(d), PairState(), p) == 0.0


# --- coupling state machine -------------------------------------------------

def test_couple_on_entry_into_neighbourhood():
    p = params()
    st = update_pair(PairState(), geom(30.05), p, False)
    assert st == PairState(f_en=1, uncouple_pending=False, last_abs_d=30.05)


def test_couple_requires_overlap():
    p = params(d_t=50.0, eps=1.0)  # window outside the interaction radius
    st = update_pair(PairState(), pair_geometry(0, 50.2, 20, 20, 50.0), p, False)
    assert st.f_en == 0


def test_couple_only_from_above():
    p = params()
    # |d| has been seen below the window: entering from below must not couple
    st = PairState(f_en=0, last_abs_d=29.5)
    st = update_pair(st, geom(29.95), p, False)
    assert st.f_en == 0
    # approaching from above couples
    st = PairState(f_en=0, last_abs_d=30.4)
    st = update_pair(st, geom(30.05), p, False)
    assert st.f_en == 1


def test_uncouple_requires_latched_command_and_window():
    p = params()
    st = PairState(f_en=1, last_abs_d=31.0)
    # no command: nothing happens
    st2 = update_pair(st, geom(30.02), p, False)
    assert st2.f_en == 1 and not st2.uncouple_pending
    # command while outside the window: latched, still coupled
    st3 = update_pair(st, geom(33.0), p, True)
    assert st3.f_en == 1 and st3.uncouple_pending
    # next window visit fires
    st4 = update_pair(st3, geom(30.02), p, False)
    assert st4.f_en == 0
    assert not st4.uncouple_pending


def test_uncouple_command_dropped_when_not_coupled():
    p = params()
    st = update_pair(PairState(), geom(55.0), p, True)
    assert st.f_en == 0
    assert not st.uncouple_pending


def test_no_recapture_right_after_uncoupling():
    p = params()
    st = PairState(f_en=1, uncouple_pending=True, last_abs_d=30.2)
    st = update_pair(st, geom(30.05), p, False)
    assert st.f_en == 0
    # still inside the window next step: must stay uncoupled
    st = update_pair(st, geom(30.02), p, False)
    assert st.f_en == 0
    # dipping below and re-entering from below must not recapture either
    st = update_pair(st, geom(29.5), p, False)
    st = update_pair(st, geom(29.95), p, False)
    assert st.f_en == 0


def test_update_pair_idempotent_without_transition():
    p = params()
    st = update_pair(PairState(), geom(36.0), p, False)
    st2 = update_pair(st, geom(36.0), p, False)
    assert st == st2


def test_non_switching_variants_never_couple():
    for variant in (InteractionVariant.REPULSION, InteractionVariant.ATTRACTION):
        p = params(variant=variant)
        st = update_pair(PairState(), geom(30.05), p, True)
        assert st.f_en == 0 and not st.uncouple_pending


def test_interaction_params_validation():
    with pytest.raises(ConfigurationError):
        InteractionParams(0.0, 30.0, 0.1, InteractionVariant.REPULSION, K1)
    with pytest.raises(ConfigurationError):
        InteractionParams(0.05, -1.0, 0.1, InteractionVariant.REPULSION, K1)
    with pytest.raises(ConfigurationError):
        InteractionParams(0.05, 30.0, 0.0, InteractionVariant.REPULSION, K1)
