"""Plane travelling pressure waves and discrete wave-equation diagnostics.

A monochromatic information-carrying signal is the pressure field

    p(x, t) = amplitude * cos(k (x - c t))

with wave number k (rad/m), sound speed c (m/s), angular frequency
c*k (rad/s) and wavelength 2 pi / k (m). Any one of k, wavelength or
angular frequency pins down the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Courant number for the space-time residual stencil below. Deliberate:
# at exactly 1.0 the discrete operator annihilates travelling waves
# (zero residual up to roundoff, so nothing converges), while small
# values inflate the temporal truncation term. 0.9 keeps the residual
# second order with a modest constant.
_RESIDUAL_COURANT = 0.9


@dataclass(frozen=True)
class SignalSpec:
    """Parameters of a monochromatic travelling wave.

    Stores amplitude, sound speed and wave number; the angular frequency
    (sound_speed * wave_number) and the wavelength (2 pi / wave_number)
    are derived from them. The angular frequency is stored once, at
    construction, since the pressure right-hand side reads it on every
    call; it is not a field, so equality, hashing and the config echo
    ignore it. It is not a cached_property either: that writes through
    the instance's __dict__, after which every attribute read on the
    instance leaves CPython's specialised fast path (~20 ns a read
    against ~3 ns on 3.11). The classmethods build an instance from any
    one of the three wave parameters.
    """

    amplitude: float
    sound_speed: float
    wave_number: float

    def __post_init__(self):
        for name in ("amplitude", "sound_speed", "wave_number"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "angular_frequency",
                           self.sound_speed * self.wave_number)
        for name in ("amplitude", "wave_number", "angular_frequency"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi / self.wave_number

    @classmethod
    def from_wave_number(cls, amplitude: float, sound_speed: float, wave_number: float):
        return cls(amplitude, sound_speed, wave_number)

    @classmethod
    def from_wavelength(cls, amplitude: float, sound_speed: float, wavelength: float):
        if not wavelength > 0:
            raise ValueError("wavelength must be positive")
        return cls(amplitude, sound_speed, 2.0 * math.pi / wavelength)

    @classmethod
    def from_angular_frequency(cls, amplitude: float, sound_speed: float,
                               angular_frequency: float):
        if not angular_frequency > 0:
            raise ValueError("angular_frequency must be positive")
        # __post_init__ rejects a zero sound speed; only keep it from
        # dividing by zero first
        k = angular_frequency / sound_speed if sound_speed > 0 else math.nan
        return cls(amplitude, sound_speed, k)


def pressure_at(spec: SignalSpec, x, t):
    """Pressure of the travelling wave at position x and time t."""
    return spec.amplitude * np.cos(spec.wave_number * (x - spec.sound_speed * t))


def wave_residual(field, c: float, x, t, h: float):
    """Discrete wave-operator residual c^2 d2p/dx2 - d2p/dt2 at (x, t).

    The field is a SignalSpec or a callable p(x, t). Second derivatives
    are central three-point differences with spatial step h and temporal
    step 0.9 h / c (see _RESIDUAL_COURANT). For an exact solution of the
    wave equation the residual shrinks as O(h^2); for anything else it
    stalls at the defect of the field.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if not c > 0:
        raise ValueError("sound speed must be positive")

    if isinstance(field, SignalSpec):
        p = lambda xx, tt: pressure_at(field, xx, tt)
    else:
        p = field

    ht = _RESIDUAL_COURANT * h / c
    d2x = (p(x + h, t) - 2.0 * p(x, t) + p(x - h, t)) / (h * h)
    d2t = (p(x, t + ht) - 2.0 * p(x, t) + p(x, t - ht)) / (ht * ht)
    return c * c * d2x - d2t


def invert_position(spec: SignalSpec, p, t, branch: int = 0, sign: int = 1):
    """Positions x where the travelling wave attains pressure p at time t.

    The cosine is many-to-one, so the preimage is a lattice; ``sign``
    (+1 or -1) picks the principal or mirrored arccos branch and
    ``branch`` shifts by whole periods. Raises DomainError when
    |p| exceeds the amplitude.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    p = np.asarray(p, dtype=float)
    if np.any(np.abs(p) > spec.amplitude):
        raise DomainError(f"|p| exceeds amplitude {spec.amplitude}")
    phase = sign * np.arccos(p / spec.amplitude) + 2.0 * math.pi * branch
    x = phase / spec.wave_number + spec.sound_speed * np.asarray(t, dtype=float)
    return float(x) if x.ndim == 0 else x
