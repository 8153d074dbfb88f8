"""Sea-surface spectrum and procedural bathymetry tests.

The frozen spectrum values were computed independently with mpmath at
30 digits and rounded to double precision.
"""

import math

import numpy as np
import pytest
from memtrace import peak_bytes

from milnesea import environment
from milnesea.environment import (BathymetrySpec, SurfaceSpectrumParams,
                                  _hill_scale, bathymetry_profile,
                                  psd_peak_wavenumber, surface_psd,
                                  surface_psd_series)
from milnesea.errors import DomainError
from milnesea.solver import grid_points

# S(k=0.1, u=10) with alpha=0.0081, beta=0.74, g=9.82
S_AT_01_U10 = 1.9840041907198667
# g sqrt(2 beta / 3) / u^2 at u=10
K_PEAK_U10 = 0.0689734132353426


class TestSpectrum:
    def test_frozen_value(self):
        p = SurfaceSpectrumParams(wind_speed=10.0)
        assert surface_psd(p, 0.1) == pytest.approx(S_AT_01_U10, rel=1e-12)

    def test_large_k_approaches_pure_power_law(self):
        # the exponential saturates to 1, leaving alpha / (2 k^3)
        p = SurfaceSpectrumParams(wind_speed=10.0)
        k = 1000.0
        assert surface_psd(p, k) == pytest.approx(0.0081 / (2 * k ** 3),
                                                  rel=1e-9)

    def test_monotone_in_wind_speed(self):
        k = 0.05
        values = [surface_psd(SurfaceSpectrumParams(wind_speed=u), k)
                  for u in (5.0, 8.0, 12.0, 20.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nonpositive_wavenumber_rejected(self):
        p = SurfaceSpectrumParams(wind_speed=10.0)
        with pytest.raises(DomainError):
            surface_psd(p, 0.0)
        with pytest.raises(DomainError):
            surface_psd(p, -0.1)
        with pytest.raises(DomainError):
            surface_psd(p, np.array([0.1, -0.2]))

    def test_array_evaluation(self):
        p = SurfaceSpectrumParams(wind_speed=10.0)
        k = np.array([0.05, 0.1, 0.2])
        out = surface_psd(p, k)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(S_AT_01_U10, rel=1e-12)

    def test_peak_wavenumber_frozen(self):
        p = SurfaceSpectrumParams(wind_speed=10.0)
        assert psd_peak_wavenumber(p) == pytest.approx(K_PEAK_U10, rel=1e-12)

    def test_peak_is_a_local_maximum(self):
        p = SurfaceSpectrumParams(wind_speed=10.0)
        kp = psd_peak_wavenumber(p)
        s0 = surface_psd(p, kp)
        assert s0 > surface_psd(p, kp * 1.001)
        assert s0 > surface_psd(p, kp * 0.999)

    def test_series_grid_and_argmax(self):
        p = SurfaceSpectrumParams(wind_speed=10.0, k_min=1e-3, k_max=1.0,
                                  samples=2048)
        series = surface_psd_series(p)
        assert series.k.shape == series.density.shape == (2048,)
        assert series.k[0] == pytest.approx(1e-3)
        assert series.k[-1] == pytest.approx(1.0)
        k_star = series.k[np.argmax(series.density)]
        assert k_star == pytest.approx(psd_peak_wavenumber(p), rel=5e-3)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            SurfaceSpectrumParams(wind_speed=0.0)
        with pytest.raises(ValueError):
            SurfaceSpectrumParams(wind_speed=10.0, alpha=-1.0)
        with pytest.raises(ValueError):
            SurfaceSpectrumParams(wind_speed=10.0, gravity=0.0)
        SurfaceSpectrumParams(wind_speed=1e77)
        with pytest.raises(ValueError, match="4th power overflows"):
            SurfaceSpectrumParams(wind_speed=1e78)
        # the grid is checked after the wind-wave constants
        with pytest.raises(ValueError, match=r"need 0 < k_min \(2.0\) < "
                                             r"k_max \(1.0\)"):
            SurfaceSpectrumParams(wind_speed=10.0, k_min=2.0, k_max=1.0)
        with pytest.raises(ValueError, match="k_max must be finite"):
            SurfaceSpectrumParams(wind_speed=10.0, k_max=math.inf)
        with pytest.raises(ValueError, match="samples must be >= 2"):
            SurfaceSpectrumParams(wind_speed=10.0, samples=1)
        with pytest.raises(ValueError, match="sample budget"):
            SurfaceSpectrumParams(wind_speed=10.0, samples=10 ** 12)
        with pytest.raises(ValueError, match="wind_speed must be positive"):
            SurfaceSpectrumParams(wind_speed=0.0, k_min=2.0, k_max=1.0)

    def test_infinite_wind_speed_rejected(self):
        with pytest.raises(ValueError, match="wind_speed must be finite, "
                                             "got inf"):
            SurfaceSpectrumParams(wind_speed=math.inf)

    @pytest.mark.parametrize("samples", [100.0, True, "100", None])
    def test_samples_must_be_an_integer(self, samples):
        # a float count built, then failed in np.logspace with a TypeError
        with pytest.raises(ValueError, match="samples must be an integer, "
                                             f"got {samples!r}"):
            SurfaceSpectrumParams(wind_speed=10.0, samples=samples)

    def test_underflowing_factor_gives_zero(self):
        # at k = 1e-200, 2 k^3 underflows to 0 together with the
        # exponential factor; at k = 1e-105, alpha / 2 k^3 overflows
        p = SurfaceSpectrumParams(wind_speed=10.0)
        assert surface_psd(p, 1e-200) == 0.0
        np.testing.assert_array_equal(
            surface_psd(p, np.array([1e-200, 1e-105, 1e-3])), np.zeros(3))

    def test_defaults(self):
        p = SurfaceSpectrumParams(wind_speed=7.0)
        assert p.alpha == 0.0081
        assert p.beta == 0.74
        assert p.gravity == 9.82


class TestBathymetry:
    def test_peak_memory_within_twice_the_output(self):
        # one working array becomes zeta in place; besides x and zeta only
        # the floored phase, then the repeated scales, are held at once
        spec = BathymetrySpec(zeta_max=3.0, hill_spacing=50.0,
                              length=200_000.0, dx=1.0, seed=7)
        prof, peak = peak_bytes(lambda: bathymetry_profile(spec))
        assert prof.x.size == 200_001
        assert peak <= 2 * (prof.x.nbytes + prof.zeta.nbytes)

    def test_bounds_and_zeros(self):
        spec = BathymetrySpec(zeta_max=5.0, hill_spacing=100.0,
                              length=2000.0, dx=0.02, seed=42)
        prof = bathymetry_profile(spec)
        assert prof.zeta.min() >= 0.0
        assert prof.zeta.max() <= 5.0
        # the floor returns exactly to zero at every hill boundary
        on_boundary = np.isclose(prof.x % 100.0, 0.0, atol=1e-9)
        assert on_boundary.sum() >= 20
        np.testing.assert_array_equal(prof.zeta[on_boundary], 0.0)

    def test_deterministic_per_seed(self):
        spec = BathymetrySpec(zeta_max=5.0, hill_spacing=100.0,
                              length=1000.0, dx=0.5, seed=7)
        a = bathymetry_profile(spec)
        b = bathymetry_profile(spec)
        np.testing.assert_array_equal(a.zeta, b.zeta)
        other = bathymetry_profile(
            BathymetrySpec(zeta_max=5.0, hill_spacing=100.0, length=1000.0,
                           dx=0.5, seed=8))
        assert not np.array_equal(a.zeta, other.zeta)

    def test_hill_is_symmetric_about_its_midpoint(self):
        # within one hill the shape is sin(-pi/2 + 2 pi s) + 1, symmetric
        # about s = 1/2
        spec = BathymetrySpec(zeta_max=4.0, hill_spacing=50.0, length=50.0,
                              dx=0.25, seed=3)
        prof = bathymetry_profile(spec)
        n = len(prof.x)
        for i in range(1, n // 2):
            left = prof.zeta[i]
            right = prof.zeta[(n - i) % n] if (n - i) < n else None
            # mirror index for x and 50 - x on the same grid
            j = int(round((50.0 - prof.x[i]) / 0.25)) % n
            assert left == pytest.approx(prof.zeta[j], rel=1e-12, abs=1e-15)

    def test_peak_scales_with_hill_draw(self):
        # each hill's crest sits at zeta_max/2 * (scale + ... ) <= zeta_max,
        # and a taller zeta_max scales everything linearly
        base = BathymetrySpec(zeta_max=2.0, hill_spacing=100.0,
                              length=1000.0, dx=0.5, seed=5)
        tall = BathymetrySpec(zeta_max=6.0, hill_spacing=100.0,
                              length=1000.0, dx=0.5, seed=5)
        a = bathymetry_profile(base)
        b = bathymetry_profile(tall)
        np.testing.assert_allclose(b.zeta, 3.0 * a.zeta, rtol=1e-12)

    def test_hill_scales_fill_unit_interval(self):
        draws = np.array([_hill_scale(123, i) for i in range(4000)])
        assert np.all(draws > 0.0)
        assert np.all(draws <= 1.0)
        assert abs(draws.mean() - 0.5) < 0.05
        assert draws.std() > 0.2  # spread, not clustered

    def test_grid_spacing(self):
        spec = BathymetrySpec(zeta_max=1.0, hill_spacing=10.0, length=100.0,
                              dx=0.5)
        prof = bathymetry_profile(spec)
        # inclusive of both ends: 100/0.5 intervals -> 201 samples
        assert len(prof.x) == 201
        assert prof.x[0] == 0.0
        assert prof.x[-1] == pytest.approx(100.0)
        np.testing.assert_allclose(np.diff(prof.x), 0.5, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BathymetrySpec(zeta_max=-1.0, hill_spacing=10.0, length=100.0,
                           dx=0.5)
        with pytest.raises(ValueError):
            BathymetrySpec(zeta_max=1.0, hill_spacing=0.0, length=100.0,
                           dx=0.5)
        with pytest.raises(ValueError):
            BathymetrySpec(zeta_max=1.0, hill_spacing=10.0, length=0.0,
                           dx=0.5)
        with pytest.raises(ValueError):
            BathymetrySpec(zeta_max=1.0, hill_spacing=10.0, length=100.0,
                           dx=-0.5)

    def test_seed_range(self):
        dims = dict(zeta_max=1.0, hill_spacing=10.0, length=100.0, dx=0.5)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match=r"seed must be in \[0, "
                                                 r"2\*\*64\), got "):
                BathymetrySpec(**dims, seed=seed)
        assert BathymetrySpec(**dims, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
        # None leaves the seed to the scenario; no seed at all draws seed 0
        assert BathymetrySpec(**dims, seed=None).seed is None
        np.testing.assert_array_equal(
            bathymetry_profile(BathymetrySpec(**dims)).zeta,
            bathymetry_profile(BathymetrySpec(**dims, seed=0)).zeta)

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, "7"])
    def test_seed_must_be_an_integer(self, seed):
        # a float seed built, then failed in _hill_scale with a TypeError
        with pytest.raises(ValueError, match="seed must be an integer, "
                                             f"got {seed!r}"):
            BathymetrySpec(5.0, 100.0, 1000.0, 0.5, seed=seed)

    def test_seedless_spec_must_be_resolved_before_sampling(self):
        # a None seed (follow the scenario seed) built, then failed in
        # _hill_scale with a TypeError
        spec = BathymetrySpec(5.0, 100.0, 1000.0, 0.5, seed=None)
        with pytest.raises(ValueError, match="seed None must be resolved"):
            bathymetry_profile(spec)

    def test_last_hill_index_below_2_53(self):
        # 2**53 hills is one too many; 2**52 still floors to exact indices
        with pytest.raises(ValueError, match=r"must be below 2\*\*53, "
                                             r"got 3e\+300"):
            BathymetrySpec(zeta_max=1.0, hill_spacing=1e-300, length=3.0,
                           dx=1.0)
        with pytest.raises(ValueError, match="length / hill_spacing"):
            BathymetrySpec(zeta_max=1.0, hill_spacing=1.0, length=2.0 ** 53,
                           dx=2.0 ** 51)
        spec = BathymetrySpec(zeta_max=1.0, hill_spacing=2.0,
                              length=2.0 ** 53, dx=2.0 ** 51)
        prof = bathymetry_profile(spec)
        assert len(prof.x) == 5
        assert prof.zeta.tolist() == [0.0] * 5  # every x is a hill boundary


def _per_sample_reference(spec: BathymetrySpec) -> np.ndarray:
    """zeta with each sample's hill hashed on its own."""
    x = spec.dx * np.arange(grid_points(spec.length, spec.dx))
    s = x / spec.hill_spacing
    index = np.floor(s).astype(int)
    frac = s - index
    shape = 0.5 * spec.zeta_max * (
        np.sin(-0.5 * math.pi + 2.0 * math.pi * frac) + 1.0)
    scales = np.array([_hill_scale(spec.seed, int(i)) for i in index])
    return scales * shape


HILL_SPECS = {
    name: BathymetrySpec(zeta_max=3.0, hill_spacing=spacing, length=length,
                         dx=dx, seed=seed)
    for name, (spacing, length, dx, seed) in {
        "spacing-a-multiple-of-dx": (10.0, 100.0, 0.5, 7),
        "spacing-below-dx": (0.3, 40.0, 1.0, 3),
        "spacing-far-below-dx": (1e-3, 40.0, 1.0, 5),
        "spacing-not-a-multiple-of-dx": (0.7, 30.0, 0.25, 11),
        "largest-seed": (100.0, 1000.0, 0.5, 2 ** 64 - 1),
    }.items()}


@pytest.mark.parametrize("spec", HILL_SPECS.values(), ids=HILL_SPECS.keys())
class TestHillsHashedOnce:
    def test_bit_identical_to_per_sample_hashing(self, spec):
        zeta = bathymetry_profile(spec).zeta
        assert zeta.tobytes() == _per_sample_reference(spec).tobytes()

    def test_each_hill_hashed_at_most_once(self, spec, monkeypatch):
        calls = []

        def counted(seed, index):
            calls.append(index)
            return _hill_scale(seed, index)

        monkeypatch.setattr(environment, "_hill_scale", counted)
        prof = bathymetry_profile(spec)
        hills = np.unique(np.floor(prof.x / spec.hill_spacing))
        assert 0 < len(calls) <= len(hills)
