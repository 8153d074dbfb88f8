"""Nonlinear pressure dynamics of a signal inside the oscillator medium.

The pressure p(t) of a signal interacting with the medium obeys a
Milne-type equation: a second-order ODE whose nonlinearity is quadratic
in the rate,

    p'' = p p'^2 - beta(t) p' + beta(t) c k p + omega(t)^2 c t k p

(solved for p''). ``eq9_residual`` keeps the unreduced form of the law,
before the arccos term is linearised, as an independent cross-check: a
candidate solution can be substituted into both and should not satisfy
one without the other.

Alongside the dynamics live the quadratic energy functionals (Lagrangian
and Hamiltonian densities; the latter on the envelope state is the Milne
energy), the oscillating envelope the Milne energy induces, and an
estimator that reads the signal period and phase shift off a settled
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import solver
from .acoustic_signal import SignalSpec
from .errors import DomainError, InsufficientDataError
from .medium import MediumSpec
from .solver import Trajectory, integrate_adaptive, integrate_fixed


class MilneState(NamedTuple):
    p: float
    p_dot: float


@dataclass(frozen=True)
class EnvelopeSample:
    """Envelope-square values at the times ``t``, with ``t``'s shape.

    ``q_squared`` may come out positive or negative; ``magnitude`` is
    sqrt(|q_squared|) either way, and ``imaginary_branch`` records which
    side the sample is on (see envelope_q and eq14_amplitude for the two
    polarity conventions in use). Scalar t gives Python floats and bools.
    """

    t: float
    q_squared: float
    magnitude: float
    imaginary_branch: bool


def wrap_angle(a: float) -> float:
    """Reduce an angle to (-pi, pi]; one already there is kept as it is."""
    if -math.pi < a <= math.pi:
        return float(a)
    w = math.atan2(math.sin(a), math.cos(a))
    return math.pi if w == -math.pi else w


def milne_rhs(state, spec: SignalSpec, medium: MediumSpec,
              t: float) -> Tuple[float, float]:
    """Right-hand side (p', p'') of the pressure equation, as a tuple."""
    p, pd = state[0], state[1]
    b = medium.beta.value(t)
    w = medium.omega.value(t)
    pdd = (p * pd * pd - b * pd + b * spec.angular_frequency * p
           + w * w * spec.sound_speed * t * spec.wave_number * p)
    return pd, pdd


def eq9_residual(p: float, p_dot: float, p_ddot: float, spec: SignalSpec,
                 medium: MediumSpec, t: float) -> float:
    """Residual of the unreduced pressure law at one phase point.

    Zero (to roundoff) for exact solutions. This form still contains the
    arccos(p / amplitude) term that the evolution equation replaces by
    its leading linearisation, so it only accepts |p| <= amplitude.
    """
    a = spec.amplitude
    if abs(p) > a:
        raise DomainError(f"|p|={abs(p)} exceeds amplitude {a}")
    b = medium.beta.value(t)
    w = medium.omega.value(t)
    a2 = a * a
    return (p_ddot * p * p / a2
            - p * p_dot * p_dot
            + b * p_dot * p * p / a2
            - b * spec.angular_frequency * p
            - w * w * p * math.acos(p / a)
            - w * w * spec.sound_speed * t * spec.wave_number * p)


def integrate_milne(spec: SignalSpec, medium: MediumSpec, t_span,
                    ic: Optional[MilneState] = None, method: str = "fixed",
                    dt: float = solver.DEFAULT_DT,
                    rtol: float = solver.DEFAULT_RTOL,
                    atol: float = solver.DEFAULT_ATOL,
                    blowup_threshold: Optional[float] = None) -> Trajectory:
    """Integrate the pressure equation over t_span.

    The default initial condition is the wave crest at rest,
    (p, p') = (amplitude, 0). Blow-up is a legitimate outcome for this
    equation (the time-proportional restoring term goes unstable), so
    check the returned Trajectory.status. An adaptive run caps its step
    inside the feature window of each bump profile, so no step jumps a
    bump narrower than itself.
    """
    if ic is None:
        ic = MilneState(spec.amplitude, 0.0)

    def rhs(t, y):
        return milne_rhs(y, spec, medium, t)

    if method == "fixed":
        return integrate_fixed(rhs, ic, t_span, dt=dt,
                               blowup_threshold=blowup_threshold)
    if method == "adaptive":
        windows = tuple(w for w in (medium.omega.feature_window,
                                    medium.beta.feature_window) if w)
        return integrate_adaptive(rhs, ic, t_span, rtol=rtol, atol=atol,
                                  blowup_threshold=blowup_threshold,
                                  windows=windows)
    raise ValueError(f"unknown method {method!r}; use 'fixed' or 'adaptive'")


def _potential(p, spec: SignalSpec, medium: MediumSpec, t):
    b = medium.beta.value(t)
    w = medium.omega.value(t)
    return (0.5 * b * spec.angular_frequency * p * p
            + 0.5 * w * w * spec.sound_speed * t * spec.wave_number * p * p)


def lagrangian_density(state, spec: SignalSpec, medium: MediumSpec, t):
    """Kinetic plus potential quadratic form, (1/2) p'^2 + V(p, t).

    Broadcasts: state may hold arrays (p, p') paired with an array t.
    """
    pd = state[1]
    return 0.5 * pd * pd + _potential(state[0], spec, medium, t)


def hamiltonian_density(state, spec: SignalSpec, medium: MediumSpec, t):
    """Kinetic minus potential quadratic form, (1/2) p'^2 - V(p, t).

    On the envelope state this is the Milne energy, the effective signal
    strength; with a stationary envelope (q' = 0) it reduces to
    -((beta c k + omega^2 c t k) / 2) q^2. Lagrangian and Hamiltonian
    densities differ by exactly twice the potential; the tests hold this
    identity pointwise.
    """
    pd = state[1]
    return 0.5 * pd * pd - _potential(state[0], spec, medium, t)


def envelope_denominator(spec: SignalSpec, medium: MediumSpec, t):
    """beta(t) c k + omega(t)^2 c t k, the stiffness the envelope divides by."""
    b = medium.beta.value(t)
    w = medium.omega.value(t)
    return (b * spec.angular_frequency
            + w * w * spec.sound_speed * t * spec.wave_number)


def envelope_q(e_m: float, tau: float, spec: SignalSpec, medium: MediumSpec,
               t) -> EnvelopeSample:
    """Envelope square 2 E_M cos(2t - tau) / (beta c k + omega^2 c t k).

    Broadcasts over t. The returned q_squared is the radicand of the
    envelope's square root. The envelope itself carries a +-i prefactor,
    so a positive radicand is the imaginary branch here:
    ``imaginary_branch`` is True when q_squared > 0. Where the
    denominator vanishes q_squared is +-inf (nan for e_m = 0), and where
    it overflows 0; neither warns.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q2 = (2.0 * e_m * np.cos(2.0 * t - tau)
              / envelope_denominator(spec, medium, t))
    fields = (t, q2, np.sqrt(np.abs(q2)), q2 > 0)
    return EnvelopeSample(*(f.item() if t.ndim == 0 else f for f in fields))


def q_plus_minus_squared(e_m: float, tau: float, spec: SignalSpec,
                         medium: MediumSpec, t) -> Tuple[float, float]:
    """The opposite-sign envelope-square pair (q_plus^2, q_minus^2).

    q_minus^2 is the envelope radicand, q_plus^2 its negation, so the two
    always sum to exactly zero. Broadcasts over t like envelope_q.
    """
    q_minus = envelope_q(e_m, tau, spec, medium, t).q_squared
    return -q_minus, q_minus


def eq14_amplitude(q_plus_sq: float, q_minus_sq: float, tau: float,
                   t: float) -> EnvelopeSample:
    """Combined amplitude square q_plus^2 cos^2(t-tau) + q_minus^2 sin^2(t-tau).

    Polarity note: here a *negative* radicand marks the imaginary branch
    (the square root itself goes imaginary). That is the opposite
    convention from envelope_q, whose radicand sits under a +-i prefactor
    so a *positive* value is the imaginary side there. Callers comparing
    the two must account for the sign flip.
    """
    ct = math.cos(t - tau)
    st = math.sin(t - tau)
    rad = q_plus_sq * ct * ct + q_minus_sq * st * st
    return EnvelopeSample(t=float(t), q_squared=float(rad),
                          magnitude=math.sqrt(abs(rad)),
                          imaginary_branch=bool(rad < 0))


def estimate_period_phase(trajectory: Trajectory) -> Tuple[float, float]:
    """Estimate (tau, delta): oscillation period and phase shift.

    Zero crossings of p are located by linear interpolation between
    samples; the period is twice the mean crossing spacing. The phase
    shift delta is defined by fitting p ~ A cos(omega t - delta) with
    omega = 2 pi / tau: each sample contributes the angle
    atan2(-p'/omega, p) - omega t, and delta is minus the circular mean
    of those contributions, normalised to (-pi, pi].

    Callers exclude a transient by passing only the trajectory's samples
    inside their estimation window. Raises InsufficientDataError with
    fewer than two samples or fewer than three zero crossings.
    """
    times = trajectory.times
    states = trajectory.states
    if times.size < 2:
        raise InsufficientDataError("need at least two samples in the window")

    p = states[:, 0]
    v = states[:, 1]

    flips = np.signbit(p[:-1]) != np.signbit(p[1:])
    moved = p[1:] != p[:-1]
    idx = np.where(flips & moved)[0]
    if idx.size < 3:
        raise InsufficientDataError(
            f"found {idx.size} zero crossings, need at least 3")

    frac = p[idx] / (p[idx] - p[idx + 1])
    crossings = times[idx] + frac * (times[idx + 1] - times[idx])

    tau = 2.0 * float(np.mean(np.diff(crossings)))
    omega = 2.0 * math.pi / tau

    phase = np.arctan2(-v / omega, p)
    offsets = phase - omega * times
    mean_angle = math.atan2(float(np.mean(np.sin(offsets))),
                            float(np.mean(np.cos(offsets))))
    delta = wrap_angle(-mean_angle)
    return tau, delta
