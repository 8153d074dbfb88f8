"""Time-dependent medium coefficients.

The medium a signal travels through is summarised by two scalar
coefficient profiles: a natural frequency omega(t) and a damping rate
beta(t). Profiles are localised disturbances on a constant background,
so far from the disturbance omega(t) -> 1 (the dimensionless reference
frequency) and beta(t) -> its background level.

Supported profile kinds:

* ``constant``       value(t) = base
* ``gaussian-bump``  value(t) = base + amplitude * exp(-(t-center)^2 / (2 width^2))
* ``sech2-bump``     value(t) = base + amplitude / cosh((t-center)/width)^2
* ``table``          linear interpolation through (t, value) knots, clamped
                     to the end values outside the knot range

Ranges are proven once, when a MediumSpec is built, from extreme_values(),
which value(t) never leaves for any t; coefficient reads check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidProfileError

CONSTANT = "constant"
GAUSSIAN_BUMP = "gaussian-bump"
SECH2_BUMP = "sech2-bump"
TABLE = "table"

_KINDS = (CONSTANT, GAUSSIAN_BUMP, SECH2_BUMP, TABLE)
_BUMP_KINDS = (GAUSSIAN_BUMP, SECH2_BUMP)


@dataclass(frozen=True)
class CoefficientProfile:
    """One scalar coefficient of the medium as a function of time."""

    kind: str
    base: float = 1.0
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0
    table: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidProfileError(
                f"unknown profile kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind in _BUMP_KINDS and not self.width > 0:
            raise InvalidProfileError("bump profiles need width > 0")
        if self.kind == TABLE:
            if not self.table:
                raise InvalidProfileError("table profiles need at least one knot")
            knots = tuple((float(t), float(v)) for t, v in self.table)
            object.__setattr__(self, "table", knots)
            ts = [t for t, _ in knots]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise InvalidProfileError("table knot times must be strictly increasing")

    def value(self, t):
        """Evaluate the profile at scalar or array t."""
        t = np.asarray(t, dtype=float)
        if self.kind == CONSTANT:
            out = np.full(t.shape, float(self.base))
        elif self.kind == GAUSSIAN_BUMP:
            # z * z overflows to inf far out, and exp(-inf) gives base
            with np.errstate(over="ignore"):
                z = (t - self.center) / self.width
                out = self.base + self.amplitude * np.exp(-0.5 * z * z)
        elif self.kind == SECH2_BUMP:
            # c * c rounds scalar and array t alike; inf far out gives base
            with np.errstate(over="ignore"):
                c = np.cosh((t - self.center) / self.width)
                out = self.base + self.amplitude / (c * c)
        else:
            ts, vs = np.array(self.table).T
            # clamped: interpolation can round just past a knot value
            out = np.clip(np.interp(t, ts, vs), vs.min(), vs.max())
        return float(out) if out.ndim == 0 else out

    def extreme_values(self) -> Tuple[float, float]:
        """Smallest and largest value the profile can attain."""
        if self.kind == CONSTANT:
            return float(self.base), float(self.base)
        if self.kind in _BUMP_KINDS:
            lo = self.base + min(0.0, self.amplitude)
            hi = self.base + max(0.0, self.amplitude)
            return float(lo), float(hi)
        vs = [v for _, v in self.table]
        return float(min(vs)), float(max(vs))


def validate_asymptotics(profile: CoefficientProfile, horizon: float,
                         eps: float = 1e-9) -> bool:
    """Check that the profile has relaxed to its background at +-horizon.

    For bump profiles the horizon must also clear the bump itself
    (center + 8 widths), otherwise a huge eps could mask a disturbance
    that is still in full swing.
    """
    if horizon <= 0 or eps <= 0:
        raise ValueError("horizon and eps must be positive")
    if profile.kind == TABLE:
        # tables carry no analytic background; compare to the end knots
        lo = profile.table[0][1]
        hi = profile.table[-1][1]
        return (abs(profile.value(-horizon) - lo) <= eps
                and abs(profile.value(horizon) - hi) <= eps)
    if profile.kind in _BUMP_KINDS and horizon < profile.center + 8 * profile.width:
        return False
    return (abs(profile.value(horizon) - profile.base) <= eps
            and abs(profile.value(-horizon) - profile.base) <= eps)


@dataclass(frozen=True)
class MediumSpec:
    """Full description of the medium: omega profile, beta profile, sound speed.

    The omega profile must have unit background (the model is written in
    units where the asymptotic natural frequency is 1) and stay positive;
    the beta profile must stay nonnegative. Both ranges are proven here,
    once, through ``extreme_values()``, which ``value(t)`` never leaves;
    ``omega(t)`` and ``beta(t)`` just evaluate the profiles.
    ``allow_degenerate_omega`` suspends the omega checks for deliberately
    degenerate test media (for example omega identically zero);
    production configurations keep it off.
    """

    omega_profile: CoefficientProfile
    beta_profile: CoefficientProfile
    sound_speed: float = 1480.0
    allow_degenerate_omega: bool = False

    def __post_init__(self):
        if not self.sound_speed > 0:
            raise InvalidProfileError("sound_speed must be positive")
        problems = []
        if not self.allow_degenerate_omega:
            om = self.omega_profile
            if om.kind != TABLE and om.base != 1.0:
                problems.append(f"omega profile background must be 1, got {om.base}")
            lo, _ = om.extreme_values()
            if lo <= 0:
                problems.append(f"omega profile dips to {lo}, must stay positive")
        lo, _ = self.beta_profile.extreme_values()
        if lo < 0:
            problems.append(f"beta profile dips to {lo}, must stay nonnegative")
        if problems:
            raise InvalidProfileError("; ".join(problems))

    def omega(self, t):
        return self.omega_profile.value(t)

    def beta(self, t):
        return self.beta_profile.value(t)
