"""Pairwise interaction geometry, force laws and the coupling state machine.

Agents interact through their *corrected* coordinates: position augmented
with the velocity/tilt/rate terms of the modal feedback, so the pairwise
geometry anticipates motion.  Four force variants are provided, all odd in
the corrected separation d (this oddness makes the engine's action-reaction
terms cancel in the summed commands, until the tilt clamp clips one):

  repulsion         saturated linear push-out of overlapping spheres
  attraction        radius-gated spring centred on the target distance;
                    no switching state (kept as a documented negative:
                    it fails to lock pairs together)
  switching_step    push-out until the pair first reaches the target
                    distance, then a hard switch to an ungated holding
                    spring; the switch changes the command stepwise
  switching_smooth  same switch, but the approach law is reshaped into a
                    piecewise-linear tent so that both branches coincide
                    near (and inside) the target distance and the switch
                    is continuous in the command

A pair couples when the separation magnitude first enters the
eps-neighbourhood of the target distance d_t from above; it uncouples at
the next visit of that neighbourhood after an uncouple command has been
latched.  Restricting the couple trigger to entries *from above* prevents
an uncoupled pair that is still inside the neighbourhood from being
recaptured before it escapes.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigurationError
from .keys import InteractionVariant, Record

_new = tuple.__new__  # builds a named-tuple record without its __new__ frame


_SWITCHING = (InteractionVariant.SWITCHING_STEP, InteractionVariant.SWITCHING_SMOOTH)


@dataclass(frozen=True)
class InteractionParams(Record, keys=("interaction.c_max", "interaction.d_t", "interaction.eps",
                                      "interaction.variant", "interaction.k1")):
    """Per-pair interaction settings, a Record whose fields are checked
    under the interaction.* key of each field's name, in field order.

    c_max : commanded-tilt saturation (rad), > 0
    d_t   : required coupling distance (m), > 0; must stay below the summed
            interaction radii of each declared edge (checked with the radii,
            by scenario.check_scenario, for the parser and build_world)
    eps   : half-width of the switching neighbourhood around d_t (m), > 0
    k1    : interaction stiffness (rad/m)
    """

    c_max: float
    d_t: float
    eps: float
    variant: InteractionVariant
    k1: float


class PairGeometry(NamedTuple):
    """Signed geometry of one agent pair in corrected coordinates.

    d     : corrected separation, neighbour minus self (m)
    s_d   : sign of d, +1 on ties
    c     : overlap measure d - s_d * r_sum (negative while spheres overlap
            on the positive side)
    r_sum : summed interaction radii (m)
    b     : tent midpoint (d_t + r_sum) / 2 (m)

    A named tuple, because every step builds one per edge and couple.
    """

    d: float
    s_d: float
    c: float
    r_sum: float
    b: float


class PairState(NamedTuple):
    """Coupling state machine of one pair.

    f_en high selects the holding spring; uncouple_pending latches an
    operator command until the separation next visits the switching
    neighbourhood.  last_abs_d remembers the previously observed |d| so the
    couple trigger can detect entry into the neighbourhood from above.
    Transition times are recorded by engine.run, not here.  A named tuple,
    because every step builds one per edge.
    """

    f_en: int = 0
    uncouple_pending: bool = False
    last_abs_d: float | None = None


def corrected_position(state, gains):
    """Generalised position (m): the full state-feedback value rescaled into
    position units.  Equals plain position when velocity, tilt and tilt rate
    are all zero."""
    if gains.k_pos == 0:
        raise ConfigurationError("corrected coordinates need k_pos != 0")
    return corrected_positions((state,), gains)[0]


def corrected_positions(states, gains):
    """corrected_position of each (pos, vel, tilt, tilt_rate) state, as a
    list, with the gains read once.  Unchecked: the caller has rejected
    k_pos = 0 (the engine's WorldConstants does, once per world)."""
    kp, kv, kt, kr = gains.k_pos, gains.k_vel, gains.k_tilt, gains.k_rate
    return [(kp * p + kv * v + kt * tilt + kr * rate) / kp for p, v, tilt, rate in states]


def pair_geometry(p_star_i, p_star_j, r_i, r_j, d_t):
    """Geometry of the (i, j) pair from corrected positions and radii.

    Elementwise: on numpy arrays of couples it returns a PairGeometry of
    arrays, each element equal to the scalar call on that couple."""
    d = p_star_j - p_star_i
    s_d = (d >= 0.0) * 2.0 - 1.0
    r_sum = r_i + r_j
    return _new(PairGeometry, (d, s_d, d - s_d * r_sum, r_sum, 0.5 * (d_t + r_sum)))


def saturate(u, c_max):
    """Clamp a commanded tilt to [-c_max, +c_max].  Odd in u."""
    if u > c_max:
        return c_max
    if u < -c_max:
        return -c_max
    return u


def force_repulsion(geom, params):
    """Saturated linear push-out: k1 * overlap while the spheres intersect,
    zero otherwise.  Sign is opposite to s_d during overlap."""
    if abs(geom.d) >= geom.r_sum:
        return 0.0
    return saturate(params.k1 * geom.c, params.c_max)


def force_attraction(geom, params):
    """Radius-gated spring centred on d_t.  Attracts beyond the target
    distance, repels inside it, cuts off entirely once the spheres
    separate; there is no coupling state."""
    if abs(geom.d) >= geom.r_sum:
        return 0.0
    return saturate(params.k1 * (geom.d - geom.s_d * params.d_t), params.c_max)


def _holding_spring(geom, params):
    # f2: spring centred on d_t with no radius gate; a coupled pair is
    # pulled back to the target distance from any separation.
    return saturate(params.k1 * (geom.d - geom.s_d * params.d_t), params.c_max)


def force_switching_step(geom, pair, params):
    """Hard-switching variant: plain repulsion while uncoupled, ungated
    holding spring while coupled.  The two branches differ by roughly
    k1 * (r_sum - d_t) at the switch, so coupling changes the command
    stepwise."""
    if pair.f_en:
        return _holding_spring(geom, params)
    return force_repulsion(geom, params)


def force_switching_smooth(geom, pair, params):
    """Continuous-switching variant.

    While coupled: the same holding spring as force_switching_step.  While
    uncoupled, a piecewise-linear tent over the approach (|d| between d_t
    and r_sum, peaking at the midpoint b) that turns into the holding
    spring for |d| < d_t:

        0                        |d| >= r_sum
        k1 * c                   b  <  |d| <  r_sum
        -k1 * (d - s_d * d_t)    d_t <= |d| <= b
        k1 * (d - s_d * d_t)     |d| <  d_t

    The pieces agree at |d| = r_sum, b and d_t, and the last piece equals
    the holding spring exactly, so switching anywhere at or below d_t does
    not jump the command.
    """
    if pair.f_en:
        return _holding_spring(geom, params)
    ad = abs(geom.d)
    if ad >= geom.r_sum:
        return 0.0
    if ad > geom.b:
        f1 = params.k1 * geom.c
    elif ad >= params.d_t:
        f1 = -params.k1 * (geom.d - geom.s_d * params.d_t)
    else:
        f1 = params.k1 * (geom.d - geom.s_d * params.d_t)
    return saturate(f1, params.c_max)


_FORCES = {
    InteractionVariant.REPULSION: lambda geom, pair, params: force_repulsion(geom, params),
    InteractionVariant.ATTRACTION: lambda geom, pair, params: force_attraction(geom, params),
    InteractionVariant.SWITCHING_STEP: force_switching_step,
    InteractionVariant.SWITCHING_SMOOTH: force_switching_smooth,
}


def pair_force(geom, pair, params):
    """Commanded-tilt contribution of one pair under its configured variant."""
    return _FORCES[params.variant](geom, pair, params)


def update_pair(pair, geom, params, uncouple_cmd_active):
    """Advance the coupling state machine one observation.

    Couple: f_en rises when |d| enters the eps-neighbourhood of d_t from
    above while the spheres overlap.  Uncouple: a latched command fires at
    the next visit of the neighbourhood.  Commands arriving while the pair
    is uncoupled are dropped.  Only the switching variants ever transition.
    """
    ad = abs(geom.d)
    if params.variant not in _SWITCHING:
        return _new(PairState, (pair.f_en, pair.uncouple_pending, ad))

    f_en = pair.f_en
    pending = pair.uncouple_pending

    if uncouple_cmd_active and f_en == 1:
        pending = True

    in_window = abs(ad - params.d_t) < params.eps
    entered_from_above = pair.last_abs_d is None or pair.last_abs_d >= params.d_t + params.eps

    if f_en == 1 and pending and in_window:
        f_en = 0
        pending = False
    elif f_en == 0 and in_window and ad < geom.r_sum and entered_from_above:
        f_en = 1

    return _new(PairState, (f_en, pending, ad))
