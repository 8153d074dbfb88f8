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

Each profile builds its scalar kernel once, at construction: a float t
is evaluated by that kernel without an array round trip, and an array t
by the same numpy expressions over whole arrays. Both give the same
value, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidProfileError

CONSTANT = "constant"
GAUSSIAN_BUMP = "gaussian-bump"
SECH2_BUMP = "sech2-bump"
TABLE = "table"

BUMP_KINDS = (GAUSSIAN_BUMP, SECH2_BUMP)
# each profile kind, in the order errors list them, and the fields it reads
KIND_KEYS = {CONSTANT: ("base",),
             **dict.fromkeys(BUMP_KINDS, ("base", "amplitude", "center",
                                          "width")),
             TABLE: ("table",)}


# Kernels: the profile's parameters come first, t last. The bump formulas
# serve float and array t alike; they keep numpy's exp and cosh, whose
# results math.exp and math.cosh do not always match in the last bit.
def _constant(base, t):
    return base


def _gaussian(base, amplitude, center, width, t):
    # z * z overflows to inf far out, and exp(-inf) gives base
    with np.errstate(over="ignore"):
        z = (t - center) / width
        return base + amplitude * np.exp(-0.5 * z * z)


def _sech2(base, amplitude, center, width, t):
    # c * c rounds scalar and array t alike; inf far out gives base
    with np.errstate(over="ignore"):
        c = np.cosh((t - center) / width)
        return base + amplitude / (c * c)


def _table(ts, vs, lo, hi, t):
    # clamped: interpolation can round just past a knot value
    return min(max(float(np.interp(t, ts, vs)), lo), hi)


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
        if self.kind not in KIND_KEYS:
            raise InvalidProfileError(f"unknown profile kind {self.kind!r}; "
                                      f"expected one of {tuple(KIND_KEYS)}")
        if self.kind in BUMP_KINDS and not self.width > 0:
            raise InvalidProfileError("bump profiles need width > 0")
        if self.kind == TABLE:
            if not self.table:
                raise InvalidProfileError("table profiles need at least one knot")
            knots = tuple((float(t), float(v)) for t, v in self.table)
            object.__setattr__(self, "table", knots)
            ts = [t for t, _ in knots]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise InvalidProfileError("table knot times must be strictly increasing")
        # a nan or inf would slip past the range proof (min(0.0, nan) is
        # 0.0, and nan knot times pass the increasing check)
        for key in KIND_KEYS[self.kind]:
            value = getattr(self, key)
            numbers = (x for knot in value for x in knot) if key == "table" \
                else (value,)
            if not all(map(math.isfinite, numbers)):
                raise InvalidProfileError(f"profile {key} must be finite, "
                                          f"got {value!r}")
        # not a field: equality, hashing and the config echo ignore it
        object.__setattr__(self, "_kernel", self._build_kernel())

    def _build_kernel(self):
        if self.kind == CONSTANT:
            return functools.partial(_constant, float(self.base))
        if self.kind == TABLE:
            ts, vs = np.array(self.table).T
            return functools.partial(_table, ts, vs, float(vs.min()),
                                     float(vs.max()))
        bump = _gaussian if self.kind == GAUSSIAN_BUMP else _sech2
        return functools.partial(bump, self.base, self.amplitude,
                                 self.center, self.width)

    def value(self, t):
        """Evaluate the profile at float or array t.

        A float t (np.float64 included) gives a float from the scalar
        kernel; any other t is evaluated as an array, and a 0-d one
        gives a float too.
        """
        if isinstance(t, float):
            return float(self._kernel(t))
        t = np.asarray(t, dtype=float)
        if self.kind == CONSTANT:
            out = np.full(t.shape, float(self.base))
        elif self.kind == TABLE:
            ts, vs, lo, hi = self._kernel.args  # knots and clamps, built once
            out = np.clip(np.interp(t, ts, vs), lo, hi)
        else:
            out = self._kernel(t)
        return float(out) if out.ndim == 0 else out

    def extreme_values(self) -> Tuple[float, float]:
        """Smallest and largest value the profile can attain."""
        if self.kind == CONSTANT:
            return float(self.base), float(self.base)
        if self.kind in BUMP_KINDS:
            lo = self.base + min(0.0, self.amplitude)
            hi = self.base + max(0.0, self.amplitude)
            return float(lo), float(hi)
        return self._kernel.args[2:]  # the clamps value() applies


def validate_asymptotics(profile: CoefficientProfile, horizon: float,
                         eps: float = 1e-9) -> bool:
    """Check that the profile has relaxed to its background at +-horizon.

    For bump profiles the horizon must also clear the bump itself
    (center + 8 widths), otherwise a huge eps could mask a disturbance
    that is still in full swing.
    """
    if not (horizon > 0 and eps > 0):
        raise ValueError("horizon and eps must be positive")
    if profile.kind == TABLE:
        # tables carry no analytic background; compare to the end knots
        lo = profile.table[0][1]
        hi = profile.table[-1][1]
        return (abs(profile.value(-horizon) - lo) <= eps
                and abs(profile.value(horizon) - hi) <= eps)
    if profile.kind in BUMP_KINDS and horizon < profile.center + 8 * profile.width:
        return False
    return (abs(profile.value(horizon) - profile.base) <= eps
            and abs(profile.value(-horizon) - profile.base) <= eps)


@dataclass(frozen=True)
class MediumSpec:
    """Full description of the medium: its omega and beta profiles.

    The omega profile must have unit background (the model is written in
    units where the asymptotic natural frequency is 1) and stay positive;
    the beta profile must stay nonnegative. Both ranges are proven here,
    once, through ``extreme_values()``, which ``value(t)`` never leaves;
    ``omega(t)`` and ``beta(t)`` just evaluate the profiles. The sound
    speed belongs to the signal (``SignalSpec``), not to the medium.
    """

    omega_profile: CoefficientProfile
    beta_profile: CoefficientProfile

    def __post_init__(self):
        problems = []
        om = self.omega_profile
        if om.kind != TABLE and om.base != 1.0:
            problems.append(f"omega profile background must be 1, got {om.base}")
        lo, _ = om.extreme_values()
        if not lo > 0:
            problems.append(f"omega profile dips to {lo}, must stay positive")
        lo, _ = self.beta_profile.extreme_values()
        if not lo >= 0:
            problems.append(f"beta profile dips to {lo}, must stay nonnegative")
        if problems:
            raise InvalidProfileError("; ".join(problems))

    def omega(self, t):
        return self.omega_profile.value(t)

    def beta(self, t):
        return self.beta_profile.value(t)
