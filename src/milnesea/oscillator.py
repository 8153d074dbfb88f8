"""Damped and parametrically driven harmonic oscillators.

The medium is modelled as a continuum of oscillators

    x'' + beta(t) x' + omega(t)^2 x = 0

written as the first-order system (x, v). For constant coefficients the
closed-form solution is available in all three damping regimes and serves
as the reference the integrators are checked against.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

from .medium import MediumSpec

# Relative slack used to decide that beta is exactly at critical damping.
_CRITICAL_TIE = 1e-12


class OscillatorState(NamedTuple):
    x: float
    v: float


def damped_rhs(state, beta: float, omega: float) -> Tuple[float, float]:
    """Right-hand side (x', v') of the constant-coefficient damped oscillator."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    x, v = state[0], state[1]
    return v, -beta * v - omega * omega * x


def parametric_rhs(state, medium: MediumSpec, t: float) -> Tuple[float, float]:
    """Right-hand side (x', v') with coefficients read from the medium at t."""
    x, v = state[0], state[1]
    b = medium.beta(t)
    w = medium.omega(t)
    return v, -b * v - w * w * x


def analytic_constant_solution(beta: float, omega: float, x0: float, v0: float, t):
    """Exact (x, v) at time t for constant beta and omega.

    Picks the underdamped, critically damped or overdamped branch from the
    sign of beta^2 - 4 omega^2, with a small relative tie-break so values
    within rounding of critical damping use the critical formula instead
    of dividing by a nearly vanishing discriminant.

    Accepts scalar or array t and returns an OscillatorState whose fields
    have the same shape.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    t = np.asarray(t, dtype=float)
    disc = beta * beta - 4.0 * omega * omega

    if abs(beta - 2.0 * omega) <= _CRITICAL_TIE * max(beta, 2.0 * omega):
        # critical: x = (x0 + B t) e^{-omega t} with B = v0 + omega x0
        bcoef = v0 + omega * x0
        decay = np.exp(-omega * t)
        x = (x0 + bcoef * t) * decay
        v = (v0 - omega * bcoef * t) * decay
    elif disc < 0:
        wd = math.sqrt(4.0 * omega * omega - beta * beta) / 2.0
        decay = np.exp(-0.5 * beta * t)
        c = np.cos(wd * t)
        s = np.sin(wd * t)
        x = decay * (x0 * c + (v0 + 0.5 * beta * x0) / wd * s)
        v = decay * (v0 * c - (omega * omega * x0 + 0.5 * beta * v0) / wd * s)
    else:
        root = math.sqrt(disc)
        r1 = 0.5 * (-beta + root)
        r2 = 0.5 * (-beta - root)
        c1 = (v0 - r2 * x0) / (r1 - r2)
        c2 = x0 - c1
        e1 = np.exp(r1 * t)
        e2 = np.exp(r2 * t)
        x = c1 * e1 + c2 * e2
        v = c1 * r1 * e1 + c2 * r2 * e2

    if x.ndim == 0:
        return OscillatorState(float(x), float(v))
    return OscillatorState(x, v)
