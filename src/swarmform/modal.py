"""Full-state feedback synthesis for the single-axis quadcopter.

The target closed-loop spectrum is one damped complex pair plus one purely
imaginary pair.  The imaginary pair is the whole point: it makes a pairwise
encounter between agents quasi-elastic, so the swarm's RMS velocity comes
out of an interaction unchanged.

Gains are synthesised by coefficient matching.  The closed loop
A - B*K with u = -K x has characteristic polynomial

    s^4 + (k_d + k_p k_d k_rate) s^3 + k_p k_d (1 + k_tilt) s^2
        + g k_p k_d k_vel s + g k_p k_d k_pos

and every coefficient depends on exactly one gain, so matching against the
desired polynomial solves each gain in closed form.  Verification is also
polynomial equality: it is exact for this structure and needs no root
finder.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError, SynthesisError
from .keys import Record, _keys

CONJUGATE_TOL = 1e-9


@dataclass(frozen=True)
class PoleSpec(Record, keys=_keys("poles")):
    """Target spectrum given as two conjugate pairs, a Record whose fields
    are checked under poles.rl, poles.iml and poles.imr.

    rl  : real part of the damped pair, >= 0 (poles at -rl +/- i*iml)
    iml : imaginary part of the damped pair
    imr : imaginary part of the undamped pair, > 0 (poles at +/- i*imr);
          an undamped pair is what makes interactions elastic
    """

    rl: float
    iml: float
    imr: float


@dataclass(frozen=True)
class Gains(Record, keys=(*_keys("gains"), "interaction.k1")):
    """State-feedback coefficients, u = -(k_pos*P + k_vel*V + k_tilt*tilt +
    k_rate*tilt_rate), plus the pairwise interaction stiffness k1 (rad/m);
    a Record whose fields are checked under gains.kpos, gains.kvel,
    gains.ktilt, gains.krate and interaction.k1."""

    k_pos: float
    k_vel: float
    k_tilt: float
    k_rate: float
    k1: float


def poles_from_spec(spec):
    """Expand a PoleSpec into its four poles (conjugate-closed by construction)."""
    return (
        complex(-spec.rl, -spec.iml),
        complex(-spec.rl, +spec.iml),
        complex(0.0, -spec.imr),
        complex(0.0, +spec.imr),
    )


def _check_conjugate_closed(poles):
    if len(poles) != 4:
        raise NumericDomainError(f"expected 4 poles, got {len(poles)}")
    remaining = [complex(p) for p in poles]
    scale = max(1.0, max(abs(p) for p in remaining))
    while remaining:
        p = remaining.pop()
        if abs(p.imag) <= CONJUGATE_TOL * scale:
            continue
        match = min(range(len(remaining)),
                    key=lambda i: abs(remaining[i] - p.conjugate()),
                    default=None)
        if match is None or abs(remaining[match] - p.conjugate()) > CONJUGATE_TOL * scale:
            raise NumericDomainError(
                f"pole set {tuple(poles)} is not closed under complex conjugation")
        remaining.pop(match)


def desired_polynomial(poles):
    """Monic quartic with the given roots, as 5 real coefficients
    (descending powers).

    The input must be conjugate-closed so the expansion is real; any
    imaginary residue of the complex arithmetic is checked against 1e-12
    and discarded.
    """
    _check_conjugate_closed(poles)
    coeffs = np.array([1.0 + 0.0j])
    for p in poles:
        coeffs = np.convolve(coeffs, np.array([1.0, -complex(p)]))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if float(np.max(np.abs(coeffs.imag))) > 1e-12 * scale:
        raise NumericDomainError(
            f"expanded polynomial has imaginary residue {coeffs.imag} (poles {tuple(poles)})")
    out = tuple(float(c) for c in coeffs.real)
    return (1.0,) + out[1:]


def _reachable(plant):
    """k_p*k_d, once g*k_p*k_d, the divisor of k_pos and k_vel, is known to
    be nonzero in floating point (it underflows for tiny plant values)."""
    kpkd = plant.k_p * plant.k_d
    if plant.g * kpkd == 0:
        raise SynthesisError(f"g*k_p*k_d = {plant.g}*{kpkd} is 0 in floating point: "
                             "position/velocity channels unreachable")
    return kpkd


def _check_finite(gains):
    if not all(cmath.isfinite(k) for k in gains):
        raise SynthesisError(f"gains {gains} are not finite "
                             "(the poles are too large, or g*k_p*k_d too small)")


def place_gains(plant, poles, k1=None):
    """Feedback gains that place the closed loop at `poles`.

    Matches the closed-loop characteristic polynomial against
    desired_polynomial(poles) coefficient by coefficient.  k1, the pairwise
    interaction stiffness, defaults to k_pos so that the corrected
    coordinate reduces to plain position at rest; pass a value to override.
    """
    kpkd = _reachable(plant)
    _, a3, a2, a1, a0 = desired_polynomial(poles)
    k_rate = (a3 - plant.k_d) / kpkd
    k_tilt = a2 / kpkd - 1.0
    k_vel = a1 / (plant.g * kpkd)
    k_pos = a0 / (plant.g * kpkd)
    _check_finite((k_pos, k_vel, k_tilt, k_rate))
    return Gains(k_pos, k_vel, k_tilt, k_rate, k_pos if k1 is None else k1)


def closed_loop_polynomial(plant, gains):
    """Characteristic polynomial of the plant closed with u = -K x
    (5 real coefficients, descending, monic)."""
    kpkd = plant.k_p * plant.k_d
    return (
        1.0,
        plant.k_d + kpkd * gains.k_rate,
        kpkd * (1.0 + gains.k_tilt),
        plant.g * kpkd * gains.k_vel,
        plant.g * kpkd * gains.k_pos,
    )


def direct_gain_formula(plant, poles):
    """Closed-form gain evaluation from the elementary symmetric functions
    of the poles, kept as an independent cross-check of the synthesis.

    Returned in its original printed order, which does NOT match the
    (pos, vel, tilt, rate) state ordering: entry 1 equals k_vel and entry 2
    equals k_pos from place_gains, entry 3 carries the plant's unity tilt
    term (equals 1 + k_tilt), entry 4 equals k_rate.  Use place_gains for
    control; this function exists to document the discrepancy and to
    cross-check the synthesis.
    """
    kpkd = _reachable(plant)
    p1, p2, p3, p4 = (complex(p) for p in poles)
    beta = 1.0 / kpkd
    e3 = p1 * p2 * p3 + p1 * p2 * p4 + p1 * p3 * p4 + p2 * p3 * p4
    e4 = p1 * p2 * p3 * p4
    e2 = p2 * p3 + p2 * p4 + p3 * p4 + p1 * (p2 + p3 + p4)
    e1 = p1 + p2 + p3 + p4
    entries = (
        -beta / plant.g * e3,
        beta / plant.g * e4,
        beta * e2,
        -beta * (plant.k_d + e1),
    )
    _check_finite(entries)
    scale = max(1.0, max(abs(e) for e in entries))
    if max(abs(e.imag) for e in entries) > 1e-9 * scale:
        raise NumericDomainError(f"gain formula produced complex entries from poles {tuple(poles)}")
    return tuple(e.real for e in entries)
