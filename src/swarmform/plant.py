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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericDomainError


@dataclass(frozen=True)
class PlantParams:
    """Physical parameters of the tilt/translation chain.

    k_p : angle-loop gain (1/s)
    k_d : rate-loop gain (1/s)
    g   : gravitational acceleration (m/s^2)
    """

    k_p: float
    k_d: float
    g: float

    def __post_init__(self):
        for name in ("k_p", "k_d", "g"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigurationError(f"plant parameter {name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class AgentState:
    """State of one agent: position (m), velocity (m/s), tilt from vertical
    (rad) and tilt rate (rad/s)."""

    pos: float
    vel: float
    tilt: float
    tilt_rate: float

    def as_tuple(self):
        return (self.pos, self.vel, self.tilt, self.tilt_rate)


def derivative(state, u, plant):
    """Time derivative of the agent state under commanded tilt u (held).

    Returns the 4-tuple (d_pos, d_vel, d_tilt, d_tilt_rate).  Rejects
    non-finite inputs, which would otherwise propagate silently through the
    integrator.
    """
    p, v, tilt, rate = state.pos, state.vel, state.tilt, state.tilt_rate
    if not (math.isfinite(p) and math.isfinite(v) and math.isfinite(tilt)
            and math.isfinite(rate) and math.isfinite(u)):
        raise NumericDomainError(f"non-finite plant input: state={state}, u={u}")
    kpkd = plant.k_p * plant.k_d
    return (v, plant.g * tilt, rate, -kpkd * tilt - plant.k_d * rate + kpkd * u)


def rk4_step(state, u_held, dt, plant):
    """Classical 4th-order Runge-Kutta update over one step of length dt.

    The commanded tilt is constant across the step (zero-order hold), so
    discontinuous force laws upstream never change inside the stage
    evaluations.  dt must be strictly positive; a zero step is a
    configuration mistake, not a request for the identity.
    """
    if not (isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"integration step dt must be > 0, got {dt}")

    kpkd = plant.k_p * plant.k_d
    kd = plant.k_d
    g = plant.g
    p, v, tilt, rate = state.pos, state.vel, state.tilt, state.tilt_rate
    if not (math.isfinite(p) and math.isfinite(v) and math.isfinite(tilt)
            and math.isfinite(rate) and math.isfinite(u_held)):
        raise NumericDomainError(f"non-finite plant input: state={state}, u={u_held}")
    force = kpkd * u_held

    # Stage derivatives, inlined for speed (this is the innermost loop of
    # every simulation run).
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
    return AgentState(
        p + s * (a1 + 2.0 * (a2 + a3) + a4),
        v + s * (b1 + 2.0 * (b2 + b3) + b4),
        tilt + s * (c1 + 2.0 * (c2 + c3) + c4),
        rate + s * (d1 + 2.0 * (d2 + d3) + d4),
    )


def rk4_stack(x, u, dt, plant):
    """rk4_step for n agents at once: x is a (4, n) array of state rows
    (pos, vel, tilt, tilt_rate) and u the n held commands.

    Each stage derivative f(y) is taken of a whole stacked stage state y.
    Per element this is rk4_step's own sequence of operations (numpy rounds
    each add and multiply as Python floats do and fuses none), so column i
    of the result is bit-identical to rk4_step on agent i.  Unlike
    rk4_step it checks nothing: the caller validates dt once and the
    finiteness of the result.  Where rk4_step silently overflows to inf,
    numpy warns unless the caller silences it (engine.run and engine.step
    do).
    """
    kpkd = plant.k_p * plant.k_d
    kd = plant.k_d
    g = plant.g
    force = kpkd * np.asarray(u, dtype=float)

    def f(y):
        k = np.empty_like(y)
        k[0::2] = y[1::2]  # d_pos = vel, d_tilt = tilt_rate
        k[1] = g * y[2]
        k[3] = force - kpkd * y[2] - kd * y[3]
        return k

    h2 = 0.5 * dt
    k1 = f(x)
    k2 = f(x + h2 * k1)
    k3 = f(x + h2 * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
