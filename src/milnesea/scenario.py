"""End-to-end scenario runs: JSON config in, products out.

A scenario bundles a signal, a medium, a time window and a choice of
products to produce:

* ``trajectory``  integrated pressure samples (t, p, p')
* ``summary``     Milne energy, period and phase shift, either taken
                  from the config's ``dynamical_params`` block or
                  estimated from the integrated trajectory
* ``envelope``    envelope-square sweep on the output grid
* ``transition``  both transition-matrix forms plus their gap per grid time
* ``spectrum``    sea-surface spectral density on a log wave-number grid
* ``bathymetry``  procedural seabed profile

Products that cannot be produced at run time (estimation failed, envelope
denominator hit zero, a value came out non-finite) are recorded as skips
with a reason instead of failing the whole run; configuration mistakes,
by contrast, are rejected up front by ``load_config`` with an exhaustive
problem list.

All exports are deterministic: the same config yields byte-identical CSV
and JSON files.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import solver
from .acoustic_signal import SignalSpec
from .environment import (BathymetryProfile, BathymetrySpec, SpectrumSeries,
                          SurfaceSpectrumParams, bathymetry_profile,
                          check_spectrum_grid, surface_psd_series)
from .errors import ConfigError, InsufficientDataError, NotComputedError, \
    SingularityError
from .medium import (_BUMP_KINDS, CONSTANT, TABLE, CoefficientProfile,
                     MediumSpec)
from .milne import (EnvelopeSample, MilneState, SignalSummary, envelope_q,
                    estimate_period_phase, integrate_milne, milne_energy)
from .solver import Trajectory, check_sample_budget, grid_points
from .transition import COMPOSED, EXPANDED, FormComparison, compare_forms

class DynamicalParams(NamedTuple):
    e_m: float
    delta: float
    tau: float


@dataclass(frozen=True)
class SpectrumRequest:
    params: SurfaceSpectrumParams
    k_min: float = 1e-3
    k_max: float = 10.0
    samples: int = 512


@dataclass(frozen=True)
class BathymetryRequest:
    zeta_max: float
    hill_spacing: float
    length: float
    dx: float
    seed: Optional[int] = None  # None: follow the scenario seed

    def __post_init__(self):
        # the spec's range checks; the seed may still come from the scenario
        BathymetrySpec(self.zeta_max, self.hill_spacing, self.length,
                       self.dx, self.seed or 0)


@dataclass(frozen=True)
class ScenarioConfig:
    signal: SignalSpec
    medium: MediumSpec
    t0: float
    t1: float
    stride: int
    method: str
    dt: float
    rtol: float
    atol: float
    blowup_threshold: Optional[float]
    initial_condition: MilneState
    dynamical_params: Optional[DynamicalParams]
    spectrum: Optional[SpectrumRequest]
    bathymetry: Optional[BathymetryRequest]
    seed: int
    outputs: Tuple[str, ...]


@dataclass
class ScenarioResult:
    """Everything one run produced, plus skip records for what it could not."""

    config: ScenarioConfig
    requested: Tuple[str, ...]
    trajectory: Optional[Trajectory] = None
    summary: Optional[SignalSummary] = None
    envelope: Optional[EnvelopeSample] = None
    transition: Optional[FormComparison] = None
    spectrum: Optional[SpectrumSeries] = None
    bathymetry: Optional[BathymetryProfile] = None
    skips: dict = field(default_factory=dict)

    def status_of(self, product: str) -> str:
        """'computed' or 'skipped' for a requested product."""
        if product not in self.requested:
            raise NotComputedError(f"{product!r} was not requested")
        return "skipped" if product in self.skips else "computed"


# Every product's CSV layout, shared by export_csv, result_to_dict,
# grid_sweep and the CLI's table commands: the CSV header, the %-format of
# one record, and data -> columns, one entry per record. A product's data
# is the ScenarioResult attribute of its name; a record is one line,
# except a transition record: one grid time, two lines.
_Product = namedtuple("_Product", "header line columns")
_TABLE = {
    "trajectory": _Product(
        "t,p,p_dot", "%.17g,%.17g,%.17g",
        lambda traj: (traj.times, *traj.states.T)),
    "summary": _Product(
        "e_m,tau,delta,e_m_bound_violated", "%.17g,%.17g,%.17g,%s",
        lambda s: ([s.e_m], [s.tau], [s.delta],
                   [str(s.e_m_bound_violated).lower()])),
    "envelope": _Product(
        "t,q_squared,magnitude,imaginary_branch", "%.17g,%.17g,%.17g,%s",
        lambda env: (env.t, env.q_squared, env.magnitude,
                     np.where(env.imaginary_branch, "true", "false"))),
    "transition": _Product(
        "t,m11,m12,m21,m22,provenance,discrepancy",
        f"%.17g,%.17g,%.17g,%.17g,%.17g,{COMPOSED},%.17g\n"
        f"%.17g,%.17g,%.17g,%.17g,%.17g,{EXPANDED},%.17g",
        lambda c: (c.t, *c.composed.reshape(-1, 4).T, c.discrepancy,
                   c.t, *c.expanded.reshape(-1, 4).T, c.discrepancy)),
    "spectrum": _Product("k,S", "%.17g,%.17g",
                         lambda sp: (sp.k, sp.density)),
    "bathymetry": _Product("x,zeta", "%.17g,%.17g",
                           lambda b: (b.x, b.zeta)),
}
PRODUCTS = tuple(_TABLE)


# ---------------------------------------------------------------------------
# configuration schema and parsing


def _number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {type(v).__name__}")
    if not math.isfinite(v := float(v)):
        raise ValueError("must be finite")
    return v


def _integer(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {type(v).__name__}")
    return v


def _flag(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError("expected a boolean")
    return v


def _method(v) -> str:
    if v not in ("fixed", "adaptive"):
        raise ValueError(f"expected 'fixed' or 'adaptive', got {v!r}")
    return v


def _knots(v) -> tuple:
    if isinstance(v, list) and all(isinstance(r, list) and len(r) == 2
                                   for r in v):
        try:
            return tuple((_number(t), _number(x)) for t, x in v)
        except (TypeError, ValueError, OverflowError):
            pass
    raise TypeError("expected a list of [t, value] pairs")


def _unchecked(v):  # a profile's kind and outputs, checked in load_config
    return v


# every key a coefficient profile block may hold, and the ones each kind
# takes; an unknown kind is reported once the profile is built
_PROFILE_FIELDS = {"kind": (_unchecked, None),
                   "base": (_number, CoefficientProfile.base),
                   "amplitude": (_number, CoefficientProfile.amplitude),
                   "center": (_number, CoefficientProfile.center),
                   "width": (_number, CoefficientProfile.width),
                   "table": (_knots, CoefficientProfile.table)}
_KIND_KEYS = {CONSTANT: ("kind", "base"), TABLE: ("kind", "table"),
              **dict.fromkeys(_BUMP_KINDS, ("kind", "base", "amplitude",
                                            "center", "width"))}

# The scenario document, read by load_config and written by config_to_dict:
# block path ("" is the top level) -> (ScenarioConfig attribute holding the
# block's object, "" for the config itself; key -> field, or None for a
# profile). A field is (check, default[, attribute]). A key left out takes
# its default; a default of ... marks a required key. The value lives in
# the object's attribute named like the key, or as given third (None:
# input-only).
_SCHEMA = {
    "": ("", {"seed": (_integer, 0),
              "outputs": (_unchecked, ["trajectory", "summary"])}),
    "signal": ("signal", {
        "amplitude": (_number, 1.0), "sound_speed": (_number, 1480.0),
        # exactly one of the three is used; a bad one counts as 0.1
        "wave_number": (_number, 0.1), "wavelength": (_number, 0.1, None),
        "angular_frequency": (_number, 0.1, None)}),
    "medium": ("medium", {"allow_degenerate_omega": (_flag, False)}),
    "medium.omega": ("medium.omega_profile", None),
    "medium.beta": ("medium.beta_profile", None),
    "time": ("", {"t0": (_number, 0.0), "t1": (_number, 2.0),
                  "stride": (_integer, 10)}),
    "solver": ("", {"method": (_method, "fixed"),
                    "dt": (_number, solver.DEFAULT_DT),
                    "rtol": (_number, solver.DEFAULT_RTOL),
                    "atol": (_number, solver.DEFAULT_ATOL),
                    "blowup_threshold": (_number, None)}),
    "initial_condition": ("initial_condition", {
        "p0": (_number, ..., "p"), "p_dot0": (_number, 0.0, "p_dot")}),
    "dynamical_params": ("dynamical_params", {
        "e_m": (_number, ...), "delta": (_number, ...),
        "tau": (_number, ...)}),
    "environment": ("", {}),
    "environment.surface_spectrum": ("spectrum", {
        "wind_speed": (_number, ..., "params.wind_speed"),
        "alpha": (_number, SurfaceSpectrumParams.alpha, "params.alpha"),
        "beta": (_number, SurfaceSpectrumParams.beta, "params.beta"),
        "gravity": (_number, SurfaceSpectrumParams.gravity, "params.gravity"),
        "k_min": (_number, SpectrumRequest.k_min),
        "k_max": (_number, SpectrumRequest.k_max),
        "samples": (_integer, SpectrumRequest.samples)}),
    "environment.bathymetry": ("bathymetry", {
        "zeta_max": (_number, ...), "hill_spacing": (_number, ...),
        "length": (_number, ...), "dx": (_number, ...),
        "seed": (_integer, None)}),
}
_POSITIVE = {"solver": ("dt", "rtol", "atol", "blowup_threshold"),
             "dynamical_params": ("tau",)}


def _block(doc: dict, path: str, problems: list) -> Optional[dict]:
    """Block `path` inside its enclosing block `doc`; None if absent or bad."""
    value = doc.get(path.rpartition(".")[2])
    if value is None or isinstance(value, dict):
        return value
    problems.append(f"{path}: expected an object")
    return None


def _unknown_keys(block: dict, path: str, problems: list, fields=None):
    fields = _SCHEMA[path][1] if fields is None else fields
    subs = {p.rpartition(".")[2] for p in _SCHEMA
            if p and p.rpartition(".")[0] == path}
    for key in block:
        if key not in fields and key not in subs:
            problems.append(f"{path or 'config'}.{key}: unknown key")


def _values(block: dict, path: str, problems: list,
            fields=None) -> Optional[dict]:
    """Key -> value of block `path`, defaults filled in; None if unbuildable.

    A bad optional number is reported and falls back to its default, so
    the checks that use it still run. A missing or bad required key, or
    any other bad value, makes the block unbuildable.
    """
    where = path or "config"
    fields = _SCHEMA[path][1] if fields is None else fields
    values, built = {}, True
    for key, (check, default, *_) in fields.items():
        required = default is ...
        values[key] = None if required else default
        try:
            if key not in block:
                if required:
                    raise ValueError("required")
                continue
            values[key] = check(block[key])
        except (TypeError, ValueError, OverflowError) as exc:
            problems.append(f"{where}.{key}: {exc}")
            built = built and not required and check in (_number, _integer)
    for key in _POSITIVE.get(path, ()):
        if values[key] is not None and values[key] <= 0:
            problems.append(f"{where}.{key}: must be positive, "
                            f"got {values[key]}")
    return values if built else None


def _read(block: dict, path: str, problems: list) -> Optional[dict]:
    _unknown_keys(block, path, problems)
    return _values(block, path, problems)


def _build(problems: list, path: str, build, *args, **kwargs):
    """build(*args, **kwargs), or None with its ValueError reported."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        problems.append(f"{path}: {exc}")
        return None


def _optional(doc: dict, path: str, problems: list, build):
    """`build` applied to an optional block's values, in schema order."""
    block = _block(doc, path, problems)
    values = None if block is None else _read(block, path, problems)
    return values and _build(problems, path, build, *values.values())


def _profile(medium: dict, path: str, problems: list,
             default_base: float) -> Optional[CoefficientProfile]:
    if medium.get(path.rpartition(".")[2]) is None:
        return CoefficientProfile(kind=CONSTANT, base=default_base)
    block = _block(medium, path, problems)
    if block is None:
        return None
    kind = block.get("kind")
    keys = _KIND_KEYS.get(kind) if isinstance(kind, str) else None
    fields = {key: _PROFILE_FIELDS[key] for key in keys or _PROFILE_FIELDS}
    _unknown_keys(block, path, problems, fields)
    if not isinstance(kind, str):
        problems.append(f"{path}.kind: required string")
        return None
    values = _values(block, path, problems, fields)
    return values and _build(problems, path, CoefficientProfile, **values)


def _spectrum_request(wind_speed, alpha, beta, gravity, k_min, k_max,
                      samples) -> SpectrumRequest:
    params = SurfaceSpectrumParams(wind_speed, alpha, beta, gravity)
    check_spectrum_grid(k_min, k_max, samples)
    return SpectrumRequest(params, k_min, k_max, samples)


def load_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario configuration.

    Rejects unknown keys at every level and reports every problem found,
    not just the first, via ConfigError.problems.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error at line {exc.lineno} "
                           f"column {exc.colno}: {exc.msg}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    # each block reports its unknown keys, then its sub-blocks, then its
    # values, then the rules that tie values together
    problems: list[str] = []
    _unknown_keys(raw, "", problems)

    sblock = _block(raw, "signal", problems) or {}
    sig = _read(sblock, "signal", problems)
    signal = None
    given = [key for key in ("wave_number", "wavelength", "angular_frequency")
             if key in sblock]
    if len(given) > 1 or (not given and "signal" in raw):
        got = ", ".join(given) if given else "none"
        problems.append("signal: provide exactly one of wave_number, "
                        f"wavelength, angular_frequency (got {got})")
    else:
        key = given[0] if given else "wave_number"
        signal = _build(problems, "signal", getattr(SignalSpec, f"from_{key}"),
                        sig["amplitude"], sig["sound_speed"], sig[key])

    # the medium shares the signal's sound speed; configuring it twice
    # would only invite contradictions
    mblock = _block(raw, "medium", problems) or {}
    _unknown_keys(mblock, "medium", problems)
    omega = _profile(mblock, "medium.omega", problems, 1.0)
    beta = _profile(mblock, "medium.beta", problems, 0.0)
    med = _values(mblock, "medium", problems)
    medium = med and omega and beta and _build(
        problems, "medium", MediumSpec, omega, beta,
        signal.sound_speed if signal else 1480.0, **med)

    time = _read(_block(raw, "time", problems) or {}, "time", problems)
    t0, t1, stride = time["t0"], time["t1"], time["stride"]
    if not t1 > t0:
        problems.append(f"time: t1 ({t1}) must exceed t0 ({t0})")
    if stride < 1:
        problems.append(f"time.stride: must be >= 1, got {stride}")

    run = _read(_block(raw, "solver", problems) or {}, "solver", problems)
    if run is not None and run["dt"] > 0 and stride >= 1:
        h = _output_step(run["method"], run["dt"], stride)
        if not math.isfinite(h):
            problems.append("time.stride: too large, the output step "
                            "overflows a float")
        elif t1 > t0:
            # a fixed run records every step, finer than the output grid
            step = run["dt"] if run["method"] == "fixed" else h
            _build(problems, "time", check_sample_budget,
                   grid_points(t1 - t0, step))

    ic = _optional(raw, "initial_condition", problems, MilneState)
    dyn = _optional(raw, "dynamical_params", problems, DynamicalParams)

    spectrum = bathymetry = None
    eblock = _block(raw, "environment", problems)
    if eblock is not None:
        _unknown_keys(eblock, "environment", problems)
        spectrum = _optional(eblock, "environment.surface_spectrum", problems,
                             _spectrum_request)
        bathymetry = _optional(eblock, "environment.bathymetry", problems,
                               BathymetryRequest)

    top = _values(raw, "", problems)
    seed = top["seed"]
    if seed < 0:
        problems.append(f"seed: must be nonnegative, got {seed}")

    outputs = top["outputs"]
    if (not isinstance(outputs, list)
            or not all(isinstance(o, str) for o in outputs)):
        problems.append("outputs: expected a list of product names")
        outputs = []
    else:
        for o in outputs:
            if o not in PRODUCTS:
                problems.append(f"outputs: unknown product {o!r}; "
                                f"choose from {', '.join(PRODUCTS)}")
        if len(set(outputs)) != len(outputs):
            problems.append("outputs: duplicate product names")
        if "spectrum" in outputs and spectrum is None:
            problems.append("outputs: 'spectrum' requested but "
                            "environment.surface_spectrum is missing")
        if "bathymetry" in outputs and bathymetry is None:
            problems.append("outputs: 'bathymetry' requested but "
                            "environment.bathymetry is missing")

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        signal=signal, medium=medium, **time, **run,
        initial_condition=ic or MilneState(signal.amplitude, 0.0),
        dynamical_params=dyn, spectrum=spectrum, bathymetry=bathymetry,
        seed=seed, outputs=tuple(outputs))


def _plain(value):
    """JSON form of a stored value: tuples (outputs, knots) become lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def config_to_dict(config: ScenarioConfig) -> dict:
    """Canonical dict form of a config, defaults materialised."""
    doc = {}
    for path, (source, fields) in _SCHEMA.items():
        obj = attrgetter(source)(config) if source else config
        if obj is None:
            continue
        if fields is None:
            fields = {key: _PROFILE_FIELDS[key]
                      for key in _KIND_KEYS[obj.kind]}
        block = {}
        for key, (_, _, *attr) in fields.items():
            name = attr[0] if attr else key
            value = attrgetter(name)(obj) if name else None
            # None and False are the unset forms of optional values
            if value is not None and value is not False:
                block[key] = _plain(value)
        if block:
            target = doc
            for part in path.split(".") if path else ():
                target = target.setdefault(part, {})
            target.update(block)
    return doc


def dumps_config(config: ScenarioConfig) -> str:
    """Serialise a config canonically; load_config round-trips it."""
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# running


def _estimation_window(medium: MediumSpec, t0: float,
                       t1: float) -> Optional[Tuple[float, float]]:
    """Time window where bump disturbances have died down (5 widths past)."""
    start = t0
    for prof in (medium.omega_profile, medium.beta_profile):
        if prof.kind in _BUMP_KINDS:
            start = max(start, prof.center + 5.0 * prof.width)
    return (start, t1) if start > t0 else None


def _output_step(method: str, dt: float, stride: int) -> float:
    """`stride` steps (adaptive: of default dt); inf where that overflows."""
    base = dt if method == "fixed" else solver.DEFAULT_DT
    try:
        return stride * base
    except OverflowError:  # the stride itself is beyond the float range
        return math.inf


def output_grid(config: ScenarioConfig) -> np.ndarray:
    """t0, t0 + h, ... <= t1, h the output step."""
    h = _output_step(config.method, config.dt, config.stride)
    return config.t0 + h * np.arange(grid_points(config.t1 - config.t0, h))


def grid_sweep(product: str, point, grid: np.ndarray):
    """point(grid) in one call, cut before the first bad time.

    A time is bad where point raises SingularityError or `product`'s CSV
    would write a non-finite number. Returns point of the times before it
    and that time's SingularityError (None if there is none).
    """
    error = None
    try:
        data = point(grid)
    except SingularityError as exc:
        error, grid = exc, grid[:np.searchsorted(grid, exc.t)]
        data = point(grid)
    floats = [c for c in _TABLE[product].columns(data) if c.dtype.kind == "f"]
    finite = np.isfinite(np.column_stack(floats)).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        t = float(grid[i])
        error = SingularityError(f"{product} is not finite at t={t!r}", t=t)
        data = point(grid[:i])
    return data, error


def spectrum_problem(series: SpectrumSeries) -> Optional[str]:
    """Why a spectrum cannot be written: its first non-finite density."""
    bad = np.flatnonzero(~np.isfinite(series.density))
    if bad.size:
        return f"density is not finite at k={float(series.k[bad[0]])!r}"
    return None


def _estimate_summary(trajectory: Trajectory,
                      config: ScenarioConfig) -> SignalSummary:
    window = _estimation_window(config.medium, config.t0, config.t1)
    tau, delta = estimate_period_phase(trajectory, window=window)
    times = trajectory.times
    states = trajectory.states
    if window is not None:
        mask = (times >= window[0]) & (times <= window[1])
        times, states = times[mask], states[mask]
    energy = milne_energy((states[:, 0], states[:, 1]), config.signal,
                          config.medium, times)
    return SignalSummary(e_m=float(np.mean(energy)), tau=tau, delta=delta)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Produce every product the config requests.

    Runtime failures of individual products become skip records; the
    trajectory itself is data even when it ends in a blow-up (its status
    says so).
    """
    requested = config.outputs
    result = ScenarioResult(config=config, requested=requested)

    needs_params = bool({"summary", "envelope", "transition"} & set(requested))
    must_estimate = needs_params and config.dynamical_params is None
    trajectory = None
    if "trajectory" in requested or must_estimate:
        trajectory = integrate_milne(
            config.signal, config.medium, (config.t0, config.t1),
            ic=config.initial_condition, method=config.method, dt=config.dt,
            rtol=config.rtol, atol=config.atol,
            blowup_threshold=config.blowup_threshold)
        if "trajectory" in requested:
            result.trajectory = trajectory

    params = config.dynamical_params
    params_skip_reason = None
    if must_estimate:
        try:
            summary = _estimate_summary(trajectory, config)
            params = DynamicalParams(summary.e_m, summary.delta, summary.tau)
        except InsufficientDataError as exc:
            params_skip_reason = f"estimation failed: {exc}"

    if "summary" in requested:
        if params is None:
            result.skips["summary"] = params_skip_reason
        else:
            result.summary = SignalSummary(e_m=params.e_m, tau=params.tau,
                                           delta=params.delta)

    sweeps = {
        "envelope": lambda t: envelope_q(params.e_m, params.tau,
                                         config.signal, config.medium, t),
        "transition": lambda t: compare_forms(
            params.e_m, params.delta, params.tau, config.signal,
            config.medium, t),
    }
    for product, point in sweeps.items():
        if product not in requested:
            continue
        data, error = None, params_skip_reason
        if params is not None:
            data, error = grid_sweep(product, point, output_grid(config))
        if error is None:
            setattr(result, product, data)
        else:
            result.skips[product] = str(error)

    if "spectrum" in requested:
        sp = config.spectrum
        series = surface_psd_series(sp.params, sp.k_min, sp.k_max, sp.samples)
        reason = spectrum_problem(series)
        if reason is None:
            result.spectrum = series
        else:
            result.skips["spectrum"] = reason

    if "bathymetry" in requested:
        b = config.bathymetry
        seed = b.seed if b.seed is not None else config.seed
        result.bathymetry = bathymetry_profile(
            BathymetrySpec(b.zeta_max, b.hill_spacing, b.length, b.dx, seed))

    return result


# ---------------------------------------------------------------------------
# exports


def csv_text(product: str, data) -> str:
    """One product's CSV text: the header, then each record's lines."""
    p = _TABLE[product]
    lines = chain((p.header,), map(p.line.__mod__, zip(*p.columns(data))))
    return "\n".join(lines) + "\n"


def _require_product(result: ScenarioResult, product: str):
    if product not in PRODUCTS:
        raise ValueError(f"unknown product {product!r}")
    if product not in result.requested:
        raise NotComputedError(f"{product} was not requested by the scenario")
    if product in result.skips:
        raise NotComputedError(f"{product} was skipped: {result.skips[product]}")


def export_csv(result: ScenarioResult, product: str, destination) -> Path:
    """Write one product as CSV with full float precision (%.17g).

    Raises NotComputedError (naming the skip reason) for products the run
    did not produce.
    """
    _require_product(result, product)
    path = Path(destination)
    path.write_text(csv_text(product, getattr(result, product)))
    return path


def result_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready summary document for a scenario run."""
    products = {}
    for name in result.requested:
        if name in result.skips:
            products[name] = {"status": "skipped",
                              "reason": result.skips[name]}
        else:
            p = _TABLE[name]
            records = len(p.columns(getattr(result, name))[0])
            products[name] = {"status": "computed",
                              "rows": records * (p.line.count("\n") + 1)}
    doc = {
        "schema_version": "1",
        "config": config_to_dict(result.config),
        "products": products,
        "summary": None,
        "solver_status": None,
    }
    if result.summary is not None:
        s = result.summary
        doc["summary"] = {"e_m": s.e_m, "tau": s.tau, "delta": s.delta,
                          "flags": {"e_m_bound_violated": s.e_m_bound_violated}}
    if result.trajectory is not None:
        traj = result.trajectory
        doc["solver_status"] = {"status": traj.status,
                                "message": traj.message,
                                "samples": len(traj),
                                "last_time": traj.last_time if len(traj) else None}
    return doc


def export_json(result: ScenarioResult, destination) -> Path:
    """Write the run summary document (schema_version 1) as stable JSON."""
    path = Path(destination)
    text = json.dumps(result_to_dict(result), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    path.write_text(text)
    return path
