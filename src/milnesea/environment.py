"""Sea-surface wave spectrum and procedural seabed relief.

Two independent pieces of oceanographic scenery:

* an empirical one-dimensional power spectral density of fully developed
  wind waves, parameterised by the wind speed measured at 19.5 m above
  the surface, and
* a deterministic pseudo-random bathymetry built from half-sine hills of
  a fixed spacing whose heights are rescaled per hill by a seeded hash.

Wave numbers are in rad/m throughout; no 2 pi conversion is applied on
input or output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .solver import check_sample_budget, grid_points


def _check_positive_finite(params, names) -> None:
    """Reject a named field of params that is not a positive finite number."""
    for name in names:
        value = getattr(params, name)
        if not value > 0:
            raise ValueError(f"{name} must be positive")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_integer(name: str, value) -> None:
    """Reject a count or seed that is not an int (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SurfaceSpectrumParams:
    """Constants of the wind-wave spectrum and the grid it is sampled on.

    ``alpha`` and ``beta`` here are the classical dimensionless spectrum
    constants; they are unrelated to the signal amplitude and the medium
    damping that reuse those letters elsewhere in the package.
    ``wind_speed`` is in m/s at 19.5 m height, ``gravity`` in m/s^2.
    surface_psd_series samples ``samples`` log-spaced wave numbers from
    ``k_min`` to ``k_max`` (rad/m).
    """

    wind_speed: float
    alpha: float = 0.0081
    beta: float = 0.74
    gravity: float = 9.82
    k_min: float = 1e-3
    k_max: float = 10.0
    samples: int = 512

    def __post_init__(self):
        _check_positive_finite(self, ("wind_speed", "alpha", "beta", "gravity"))
        try:
            float(self.wind_speed) ** 4
        except OverflowError:
            raise ValueError(f"wind_speed {self.wind_speed!r} is too large: "
                             "its 4th power overflows") from None
        if not 0 < self.k_min < self.k_max:
            raise ValueError(f"need 0 < k_min ({self.k_min}) < k_max "
                             f"({self.k_max})")
        if not math.isfinite(self.k_max):
            raise ValueError(f"k_max must be finite, got {self.k_max}")
        _check_integer("samples", self.samples)
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        check_sample_budget(self.samples)


def surface_psd(params: SurfaceSpectrumParams, k):
    """Spectral density S(k) = (alpha / 2 k^3) exp(-beta g^2 / (k^2 u^4)).

    k is the surface wave number in rad/m, strictly positive. The density
    is 0 wherever the exponential factor is, even if alpha / 2 k^3 is inf.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise DomainError("surface wave number k must be positive")
    u = params.wind_speed
    g = params.gravity
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        damping = np.exp(-params.beta * g * g / (k * k * u ** 4))
        s = (params.alpha / (2.0 * k ** 3)) * damping
    s = np.where(damping == 0.0, 0.0, s)
    return float(s) if s.ndim == 0 else s


def psd_peak_wavenumber(params: SurfaceSpectrumParams) -> float:
    """Wave number maximising the spectral density: g sqrt(2 beta / 3) / u^2."""
    return params.gravity * math.sqrt(2.0 * params.beta / 3.0) / params.wind_speed ** 2


class SpectrumSeries(NamedTuple):
    k: np.ndarray
    density: np.ndarray


def surface_psd_series(params: SurfaceSpectrumParams) -> SpectrumSeries:
    """Sample the spectrum on params' log-spaced wave-number grid."""
    k = np.logspace(math.log10(params.k_min), math.log10(params.k_max),
                    params.samples)
    return SpectrumSeries(k, surface_psd(params, k))


@dataclass(frozen=True)
class BathymetrySpec:
    """Parameters of the procedural seabed profile.

    Hills repeat every ``hill_spacing`` metres along the track of total
    ``length``, sampled every ``dx``. ``zeta_max`` is the tallest possible
    hill; each hill is rescaled by a height factor in (0, 1] drawn
    reproducibly from ``seed`` (0 <= seed < 2**64) and the hill index. A
    scenario's spec may hold seed None: the run draws with the scenario
    seed.
    """

    zeta_max: float
    hill_spacing: float
    length: float
    dx: float
    seed: Optional[int] = 0

    def __post_init__(self):
        _check_positive_finite(self, ("zeta_max", "hill_spacing", "dx"))
        if not self.length >= self.dx:
            raise ValueError("length must cover at least one sample step")
        check_sample_budget(grid_points(self.length, self.dx))
        # hill indices are floats floored to integers: above 2**53 they
        # are no longer exact, and far above it they overflow the cast
        hills = self.length / self.hill_spacing
        if not hills < 2.0 ** 53:
            raise ValueError("length / hill_spacing must be below 2**53, "
                             f"got {hills!r}")
        if self.seed is not None:
            _check_integer("seed", self.seed)
            if not 0 <= self.seed <= _MASK64:
                raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _hill_scale(seed: int, index: int) -> float:
    """Height factor in (0, 1] for one hill, from a counter-based hash.

    SplitMix64 finaliser applied to seed and hill index; the +1 in the
    final map keeps zero out of the range so every hill has some relief.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return (z + 1) / 2.0 ** 64


class BathymetryProfile(NamedTuple):
    x: np.ndarray
    zeta: np.ndarray


def bathymetry_profile(spec: BathymetrySpec) -> BathymetryProfile:
    """Sample the seabed elevation zeta(x) at x = 0, dx, 2 dx, ... <= length.

    Each hill occupies one period of
        (zeta_max / 2) (sin(-pi/2 + 2 pi x / spacing) + 1)
    scaled by its height factor. The shape starts and ends at zero, so
    elevations sit in [0, zeta_max] and vanish exactly at hill
    boundaries x = n * hill_spacing.
    """
    x = spec.dx * np.arange(grid_points(spec.length, spec.dx))
    s = x / spec.hill_spacing
    index = np.floor(s).astype(int)
    frac = s - index
    # evaluating the sine at the reduced phase keeps the hill ends exact:
    # frac = 0 gives sin(-pi/2) = -1 and the bracket vanishes identically
    shape = 0.5 * spec.zeta_max * (np.sin(-0.5 * math.pi + 2.0 * math.pi * frac) + 1.0)
    # index is nondecreasing, so each hill is one run of equal indices:
    # hash the hill at each run's head once and repeat it over the run
    heads = np.flatnonzero(np.diff(index, prepend=-1))  # index >= 0
    table = [_hill_scale(spec.seed, i) for i in index[heads].tolist()]
    scales = np.repeat(table, np.diff(heads, append=len(index)))
    return BathymetryProfile(x, scales * shape)
