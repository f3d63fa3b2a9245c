"""Linear single-axis quadcopter model and its fixed-step integration.

The agent is a quadcopter restricted to motion along one horizontal axis.
Attitude is commanded through a required tilt angle u; the inner loops that
realise the tilt are folded into two first-order stages with gains k_p and
k_d, and horizontal acceleration is g * tilt (small-angle regime).  In
state-space form, with x = (pos, vel, tilt, tilt_rate):

    A = [[0, 1, 0,         0  ],
         [0, 0, g,         0  ],
         [0, 0, 0,         1  ],
         [0, 0, -k_p*k_d, -k_d]],     B = [0, 0, 0, k_p*k_d]^T

The observed output is the velocity component (picked straight out of the
trace downstream; no separate output map is materialised).

Every agent is integrated on its own: rk4_step advances one AgentState by
one classical Runge-Kutta step under a held command.  It checks dt
(check_dt) and the finiteness of its five inputs, then runs _rk4, the
unchecked body, which builds the new state with tuple.__new__, skipping
the frame of the named tuple's __new__.  The engine calls _rk4 once per
agent and step, with k_p * k_d, k_d and g read once per step: dt was
checked once, when its WorldConstants was built, and a non-finite input
always gives a non-finite new state, which the engine tests for.
"""

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

from .errors import ConfigurationError, NumericDomainError
from .keys import _keys, check_fields

_new = tuple.__new__  # builds a named-tuple record without its __new__ frame


@dataclass(frozen=True)
class PlantParams:
    """Physical parameters of the tilt/translation chain, each checked
    under its scenario key, plant.kp, plant.kd and plant.g.

    k_p : angle-loop gain (1/s)
    k_d : rate-loop gain (1/s)
    g   : gravitational acceleration (m/s^2)
    """

    k_p: float
    k_d: float
    g: float

    def __post_init__(self):
        check_fields(zip(_keys("plant"), astuple(self)))


class AgentState(NamedTuple):
    """State of one agent: position (m), velocity (m/s), tilt from vertical
    (rad) and tilt rate (rad/s).  A named tuple, because every step builds
    one per agent."""

    pos: float
    vel: float
    tilt: float
    tilt_rate: float


def derivative(state, u, plant):
    """Time derivative of the agent state under commanded tilt u (held).

    Returns the 4-tuple (d_pos, d_vel, d_tilt, d_tilt_rate).  Rejects
    non-finite inputs, which would otherwise propagate silently through the
    integrator.
    """
    p, v, tilt, rate = state
    if not (math.isfinite(p) and math.isfinite(v) and math.isfinite(tilt)
            and math.isfinite(rate) and math.isfinite(u)):
        raise NumericDomainError(f"non-finite plant input: state={state}, u={u}")
    kpkd = plant.k_p * plant.k_d
    return (v, plant.g * tilt, rate, -kpkd * tilt - plant.k_d * rate + kpkd * u)


def rk4_step(state, u_held, dt, plant):
    """Classical 4th-order Runge-Kutta update over one step of length dt.

    The commanded tilt is constant across the step (zero-order hold), so
    discontinuous force laws upstream never change inside the stage
    evaluations.  dt must be a strictly positive int or float, and not a
    bool; a zero step is a configuration mistake, not a request for the
    identity (check_dt).  The state and the command must be finite.
    Checks its inputs, then returns _rk4 of them.
    """
    check_dt(dt)
    if not all(map(math.isfinite, (*state, u_held))):
        raise NumericDomainError(f"non-finite plant input: state={state}, u={u_held}")
    return _rk4(state, u_held, dt, plant.k_p * plant.k_d, plant.k_d, plant.g)


def check_dt(dt):
    """Rejects a step dt that is not a finite, strictly positive int or
    float (a bool, a numpy scalar other than float64 and a Fraction are
    none), with rk4_step's ConfigurationError."""
    if not (isinstance(dt, (int, float)) and dt is not True and math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"integration step dt must be > 0, got {dt!r}")


def _rk4(state, u_held, dt, kpkd, kd, g):
    """rk4_step's arithmetic, unchecked: kpkd = k_p * k_d, kd = k_d and g
    come from the plant.  It only adds and multiplies, so a non-finite
    state or command always gives a non-finite new state."""
    p, v, tilt, rate = state
    force = kpkd * u_held

    # Stage derivatives, inlined for speed (this is the innermost loop of
    # every simulation run).  Stage k's tilt and rate, t_k and c_k, are
    # bound once and feed both of its derivative rows.
    b1 = g * tilt
    d1 = force - kpkd * tilt - kd * rate

    h2 = 0.5 * dt
    a2 = v + h2 * b1
    t2 = tilt + h2 * rate
    c2 = rate + h2 * d1
    b2 = g * t2
    d2 = force - kpkd * t2 - kd * c2

    a3 = v + h2 * b2
    t3 = tilt + h2 * c2
    c3 = rate + h2 * d2
    b3 = g * t3
    d3 = force - kpkd * t3 - kd * c3

    a4 = v + dt * b3
    t4 = tilt + dt * c3
    c4 = rate + dt * d3
    b4 = g * t4
    d4 = force - kpkd * t4 - kd * c4

    s = dt / 6.0
    return _new(AgentState, (
        p + s * (v + 2.0 * (a2 + a3) + a4),
        v + s * (b1 + 2.0 * (b2 + b3) + b4),
        tilt + s * (rate + 2.0 * (c2 + c3) + c4),
        rate + s * (d1 + 2.0 * (d2 + d3) + d4),
    ))
