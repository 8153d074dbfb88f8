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

Each profile decides its kind once, at construction, and builds from
its parameters both kernels, its range and its feature window. The
scalar kernel is a closure, so ``value`` on a float t is one call of it,
with no array round trip and no float() of a value that is one already.
The array kernel applies the same float operations to whole arrays.
Both give the same value, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


# Bump kernels: given the profile's parameters and finish, each returns
# the bump as a function of t alone, its result passed through finish:
# float for the scalar kernel, np.asarray for array t, so the one formula
# serves both in one call. They keep numpy's exp and cosh, whose results
# math.exp and math.cosh do not always match in the last bit.
def _gaussian(base, amplitude, center, width, finish):
    def gaussian(t):
        # z * z overflows to inf far out, and exp(-inf) gives base
        with np.errstate(over="ignore"):
            z = (t - center) / width
            return finish(base + amplitude * np.exp(-0.5 * z * z))
    return gaussian


def _sech2(base, amplitude, center, width, finish):
    def sech2(t):
        # c * c rounds scalar and array t alike; inf far out gives base
        with np.errstate(over="ignore"):
            c = np.cosh((t - center) / width)
            return finish(base + amplitude / (c * c))
    return sech2


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
        # not fields: equality, hashing and the config echo ignore them
        for name, value in zip(("_kernel", "_array", "_extremes", "_window"),
                               self._formulas()):
            object.__setattr__(self, name, value)
        # each field is finite, but base + amplitude can still overflow,
        # and MediumSpec checks one end of the range, not the other
        if not all(map(math.isfinite, self._extremes)):
            raise InvalidProfileError(f"profile range must be finite, got "
                                      f"{self._extremes!r}")

    def __reduce__(self):
        # the kernels are closures: a copy is rebuilt from the fields
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def _formulas(self):
        """The kind's formulas, decided once: (scalar kernel mapping a
        float t to a float, array kernel mapping a float array t to an
        array, extreme values, feature window)."""
        if self.kind == CONSTANT:
            base = float(self.base)
            return (lambda t: base, lambda t: np.full(t.shape, base),
                    (base, base), None)
        if self.kind == TABLE:
            # clamped: interpolation can round just past a knot value
            ts, vs = np.array(self.table).T
            lo, hi = float(vs.min()), float(vs.max())
            return (lambda t: min(max(float(np.interp(t, ts, vs)), lo), hi),
                    lambda t: np.clip(np.interp(t, ts, vs), lo, hi),
                    (lo, hi), None)
        bump = _gaussian if self.kind == GAUSSIAN_BUMP else _sech2
        params = self.base, self.amplitude, self.center, self.width
        reach = 20.0 * self.width
        return (bump(*params, float), bump(*params, np.asarray),
                (float(self.base + min(0.0, self.amplitude)),
                 float(self.base + max(0.0, self.amplitude))),
                (self.center - reach, self.center + reach, self.width))

    def value(self, t):
        """Evaluate the profile at float or array t.

        A float t (np.float64 included) gives a float from the scalar
        kernel in one call; any other t is evaluated as an array by the
        array kernel, and a 0-d one gives a float too.
        """
        if isinstance(t, float):
            return self._kernel(t)
        out = self._array(np.asarray(t, dtype=float))
        return float(out) if out.ndim == 0 else out

    @property
    def feature_window(self) -> Optional[Tuple[float, float, float]]:
        """(start, end, width) of a bump: center -+ 20 width, and width.

        Outside the window a bump differs from its base by less than
        exp(-200) (gaussian) or ~1.7e-17 (sech²) of its amplitude. Other
        kinds have no window (None).
        """
        return self._window

    def extreme_values(self) -> Tuple[float, float]:
        """Smallest and largest value the profile can attain."""
        return self._extremes


@dataclass(frozen=True)
class MediumSpec:
    """Full description of the medium: its omega and beta profiles.

    The omega profile must have unit background (the model is written in
    units where the asymptotic natural frequency is 1) and stay positive;
    the beta profile must stay nonnegative. Both ranges are proven here,
    once, through ``extreme_values()``, which ``value(t)`` never leaves,
    so formulas read ``medium.omega.value(t)`` and ``medium.beta.value(t)``
    unchecked. The sound speed belongs to the signal (``SignalSpec``),
    not to the medium.
    """

    omega: CoefficientProfile
    beta: CoefficientProfile

    def __post_init__(self):
        problems = []
        om = self.omega
        if om.kind != TABLE and om.base != 1.0:
            problems.append(f"omega profile background must be 1, got {om.base}")
        lo, _ = om.extreme_values()
        if not lo > 0:
            problems.append(f"omega profile dips to {lo}, must stay positive")
        lo, _ = self.beta.extreme_values()
        if not lo >= 0:
            problems.append(f"beta profile dips to {lo}, must stay nonnegative")
        if problems:
            raise InvalidProfileError("; ".join(problems))
