"""Acoustic information-carrying signals in an oscillator medium.

The medium is a continuum of damped, parametrically driven harmonic
oscillators; a signal travelling through it obeys a Milne-type nonlinear
pressure equation. This package integrates that equation, evaluates the
associated energy functionals, envelope and transition matrices, and
carries two pieces of ocean scenery (a wind-wave surface spectrum and a
procedural seabed) plus a scenario layer that drives everything from a
JSON config.
"""

from pathlib import Path

from .acoustic_signal import (SignalSpec, invert_position, pressure_at,
                              wave_residual)
from .environment import (BathymetryProfile, BathymetrySpec, SpectrumSeries,
                          SurfaceSpectrumParams, bathymetry_profile,
                          psd_peak_wavenumber, surface_psd,
                          surface_psd_series)
from .errors import (ConfigError, DomainError, InsufficientDataError,
                     InvalidProfileError, NotComputedError)
from .medium import CoefficientProfile, MediumSpec
from .milne import (EnvelopeSample, MilneState, envelope_q,
                    estimate_period_phase, hamiltonian_density,
                    integrate_milne, lagrangian_density, milne_rhs,
                    q_plus_minus_squared)
from .oscillator import (OscillatorState, analytic_constant_solution,
                         damped_rhs, parametric_rhs)
from .scenario import (DynamicalParams, ScenarioConfig, ScenarioResult,
                       config_to_dict, export_csv, export_json, load_config,
                       run_scenario)
from .solver import (Trajectory, integrate_adaptive, integrate_fixed)
from .transition import (FormComparison, compare_forms, composed_from_q,
                         expanded_from_q, rotation)

__version__ = "0.1.0"


def default_config_path() -> Path:
    """Path of the scenario configuration shipped with the package."""
    return Path(__file__).parent / "data" / "default_scenario.json"
