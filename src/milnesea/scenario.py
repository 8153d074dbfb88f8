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

All exports are byte-identical for the same config; ``csv_schedule``
writes a run's CSVs as bytes, on every CPU, and ``export_json`` the JSON.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import sys
import tempfile
import warnings
from collections import namedtuple
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import csvfloat, solver
from .acoustic_signal import SignalSpec
from .environment import (BathymetryProfile, BathymetrySpec, SpectrumSeries,
                          SurfaceSpectrumParams, bathymetry_profile,
                          surface_psd_series)
from .errors import ConfigError, InsufficientDataError, NotComputedError
from .medium import CONSTANT, KIND_KEYS, CoefficientProfile, MediumSpec
from .milne import (EnvelopeSample, MilneState, envelope_denominator,
                    envelope_q, estimate_period_phase, hamiltonian_density,
                    integrate_milne, wrap_angle)
from .solver import Trajectory, check_sample_budget, fixed_steps, grid_points
from .transition import FormComparison, compare_forms

class DynamicalParams(NamedTuple):
    """A signal's Milne energy, phase shift and period."""

    e_m: float
    delta: float
    tau: float

    @property
    def e_m_bound_violated(self) -> bool:
        """Whether e_m is below 1, the level the settled envelope assumes."""
        return bool(self.e_m < 1.0)


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
    spectrum: Optional[SurfaceSpectrumParams]
    bathymetry: Optional[BathymetrySpec]  # seed None: follow `seed`
    seed: int
    outputs: Tuple[str, ...]


@dataclass
class ScenarioResult:
    """Everything one run produced, plus skip records for what it could not."""

    config: ScenarioConfig
    trajectory: Optional[Trajectory] = None
    summary: Optional[DynamicalParams] = None  # delta in (-pi, pi]
    envelope: Optional[EnvelopeSample] = None
    transition: Optional[FormComparison] = None
    spectrum: Optional[SpectrumSeries] = None
    bathymetry: Optional[BathymetryProfile] = None
    skips: dict = field(default_factory=dict)


# Every product's CSV layout, shared by csv_schedule, result_to_dict and
# _first_nonfinite: the CSV header, the bytes %-format of one record, and
# data -> columns, one entry per record. A product's data is the
# ScenarioResult attribute of its name; a record is one line, except a
# transition record: one grid time, two lines.
_Product = namedtuple("_Product", "header line columns")
_TABLE = {
    "trajectory": _Product(
        b"t,p,p_dot", b"%.17g,%.17g,%.17g",
        lambda traj: (traj.times, *traj.states.T)),
    "summary": _Product(
        b"e_m,tau,delta,e_m_bound_violated", b"%.17g,%.17g,%.17g,%s",
        lambda s: ([s.e_m], [s.tau], [s.delta],
                   [b"true" if s.e_m_bound_violated else b"false"])),
    "envelope": _Product(
        b"t,q_squared,magnitude,imaginary_branch", b"%.17g,%.17g,%.17g,%s",
        lambda env: (env.t, env.q_squared, env.magnitude,
                     np.where(env.imaginary_branch, b"true", b"false"))),
    "transition": _Product(
        b"t,m11,m12,m21,m22,provenance,discrepancy",
        b"%.17g,%.17g,%.17g,%.17g,%.17g,composed,%.17g\n"
        b"%.17g,%.17g,%.17g,%.17g,%.17g,expanded,%.17g",
        lambda c: (c.t, *c.composed.reshape(-1, 4).T, c.discrepancy,
                   c.t, *c.expanded.reshape(-1, 4).T, c.discrepancy)),
    "spectrum": _Product(b"k,S", b"%.17g,%.17g",
                         lambda sp: (sp.k, sp.density)),
    "bathymetry": _Product(b"x,zeta", b"%.17g,%.17g",
                           lambda b: (b.x, b.zeta)),
}


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


def _rule(check, holds, text):
    """`check`, then `holds(value)`, else the problem `text`."""
    def checked(v):
        if not holds(v := check(v)):
            raise ValueError(f"{text}, got {v}")
        return v
    return checked


_positive = _rule(_number, lambda v: v > 0, "must be positive")
_seed = _rule(_rule(_integer, lambda v: v >= 0, "must be nonnegative"),
              lambda v: v < 2 ** 64, "must be below 2**64")
_stride = _rule(_integer, lambda v: v >= 1, "must be >= 1")
# the composed transition form takes cos(2 delta): 2 delta must be finite
_phase = _rule(_number, lambda v: math.isfinite(2.0 * v),
               f"magnitude must be at most {sys.float_info.max / 2}")


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


def _kind(v) -> str:
    if not isinstance(v, str) or v not in KIND_KEYS:
        raise ValueError(f"expected one of {', '.join(KIND_KEYS)}, got {v!r}")
    return v


def _outputs(v) -> tuple:
    if not isinstance(v, list) or not all(isinstance(o, str) for o in v):
        raise TypeError("expected a list of product names")
    if unknown := [o for o in dict.fromkeys(v) if o not in _TABLE]:
        raise ValueError(f"unknown product {', '.join(map(repr, unknown))}; "
                         f"choose from {', '.join(_TABLE)}")
    if len(set(v)) != len(v):
        raise ValueError("duplicate product names")
    return tuple(v)


# every key a coefficient profile block may hold, and the ones each kind
# takes; a block without a known kind is checked against them all
_PROFILE_FIELDS = {"kind": (_kind, ...),
                   "base": (_number, CoefficientProfile.base),
                   "amplitude": (_number, CoefficientProfile.amplitude),
                   "center": (_number, CoefficientProfile.center),
                   "width": (_number, CoefficientProfile.width),
                   "table": (_knots, CoefficientProfile.table)}
_KIND_FIELDS = {kind: {key: _PROFILE_FIELDS[key] for key in ("kind", *keys)}
                for kind, keys in KIND_KEYS.items()}

# The scenario document, read by load_config and written by config_to_dict:
# block path ("" is the top level) -> (ScenarioConfig attribute holding the
# block's object, "" for the config itself; key -> field, or None for a
# profile). A field is (check, default[, attribute]); the check is the
# key's whole rule. A key left out takes its default; a default of ...
# marks a required key. The value lives in the object's attribute named
# like the key, or as given third (None: input-only).
_SCHEMA = {
    "": ("", {"seed": (_seed, 0),
              "outputs": (_outputs, ("trajectory", "summary"))}),
    "signal": ("signal", {
        "amplitude": (_number, 1.0), "sound_speed": (_number, 1480.0),
        # exactly one of the three is given; no block: wave number 0.1
        "wave_number": (_number, 0.1), "wavelength": (_number, 0.1, None),
        "angular_frequency": (_number, 0.1, None)}),
    "medium": ("medium", {}),
    "medium.omega": ("medium.omega", None),
    "medium.beta": ("medium.beta", None),
    "time": ("", {"t0": (_number, 0.0), "t1": (_number, 2.0),
                  "stride": (_stride, 10)}),
    "solver": ("", {"method": (_method, "fixed"),
                    "dt": (_positive, solver.DEFAULT_DT),
                    "rtol": (_positive, solver.DEFAULT_RTOL),
                    "atol": (_positive, solver.DEFAULT_ATOL),
                    "blowup_threshold": (_positive, None)}),
    "initial_condition": ("initial_condition", {
        "p0": (_number, ..., "p"), "p_dot0": (_number, 0.0, "p_dot")}),
    "dynamical_params": ("dynamical_params", {
        "e_m": (_number, ...), "delta": (_phase, ...),
        "tau": (_positive, ...)}),
    "environment": ("", {}),
    "environment.surface_spectrum": ("spectrum", {
        "wind_speed": (_number, ...),
        "alpha": (_number, SurfaceSpectrumParams.alpha),
        "beta": (_number, SurfaceSpectrumParams.beta),
        "gravity": (_number, SurfaceSpectrumParams.gravity),
        "k_min": (_number, SurfaceSpectrumParams.k_min),
        "k_max": (_number, SurfaceSpectrumParams.k_max),
        "samples": (_integer, SurfaceSpectrumParams.samples)}),
    "environment.bathymetry": ("bathymetry", {
        "zeta_max": (_number, ...), "hill_spacing": (_number, ...),
        "length": (_number, ...), "dx": (_number, ...),
        "seed": (_seed, None)}),
}


def _block(doc: dict, path: str, problems: list) -> Optional[dict]:
    """Block `path` in `doc`: {} if absent, None (reported) if no object."""
    value = doc.get(path.rpartition(".")[2])
    if value is None or isinstance(value, dict):
        return value or {}
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
    """Key -> value of block `path`, defaults filled in; None if a key is
    missing or fails its check, so that no rule reads the block."""
    where = path or "config"
    fields = _SCHEMA[path][1] if fields is None else fields
    values = {}
    for key, (check, default, *_) in fields.items():
        try:
            if key not in block and default is ...:
                raise ValueError("required")
            values[key] = check(block[key]) if key in block else default
        except (TypeError, ValueError, OverflowError) as exc:
            problems.append(f"{where}.{key}: {exc}")
    return values if len(values) == len(fields) else None


def _read(doc: dict, path: str, problems: list,
          fields=None) -> Optional[dict]:
    """_values of block `path` inside `doc`; None if it is not an object."""
    block = _block(doc, path, problems)
    if block is None:
        return None
    _unknown_keys(block, path, problems, fields)
    return _values(block, path, problems, fields)


def _build(problems: list, path: str, build, *args, **kwargs):
    """build(*args, **kwargs), or None with its ValueError reported."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        problems.append(f"{path}: {exc}")
        return None


def _optional(doc: dict, path: str, problems: list, build):
    """`build` of an optional block's values in schema order, or None."""
    if doc.get(path.rpartition(".")[2]) is None:
        return None
    values = _read(doc, path, problems)
    return values and _build(problems, path, build, *values.values())


def _profile(medium: dict, path: str, problems: list,
             default_base: float) -> Optional[CoefficientProfile]:
    block = medium.get(path.rpartition(".")[2])
    if block is None:
        return CoefficientProfile(kind=CONSTANT, base=default_base)
    try:
        fields = _KIND_FIELDS[block["kind"]]
    except (TypeError, KeyError):  # no object, or no known kind
        fields = _PROFILE_FIELDS
    values = _read(medium, path, problems, fields)
    return values and _build(problems, path, CoefficientProfile, **values)


def load_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario configuration.

    Rejects unknown keys at every level and reports every problem found,
    not just the first, via ConfigError.problems. Each key, `outputs` and
    `kind` too, is checked by its _SCHEMA rule; a null block is absent. A
    block with a bad key, or one that is not an object, is reported once
    and read by no other rule, so a bad `seed` or `outputs` holds back the
    check that each requested environment product has its block.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error at line {exc.lineno} "
                           f"column {exc.colno}: {exc.msg}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    # each block reports its unknown keys, then its sub-blocks, then its
    # values; a rule that ties values together reads only good blocks
    problems: list[str] = []
    _unknown_keys(raw, "", problems)

    sig = _read(raw, "signal", problems)
    given = [key for key in ("wave_number", "wavelength", "angular_frequency")
             if sig is not None and key in (raw.get("signal") or {})]
    signal = None
    if sig is not None and (len(given) > 1 or
                            (not given and raw.get("signal") is not None)):
        got = ", ".join(given) if given else "none"
        problems.append("signal: provide exactly one of wave_number, "
                        f"wavelength, angular_frequency (got {got})")
    elif sig is not None:
        key = given[0] if given else "wave_number"
        signal = _build(problems, "signal", getattr(SignalSpec, f"from_{key}"),
                        sig["amplitude"], sig["sound_speed"], sig[key])

    medium = None
    if (mblock := _block(raw, "medium", problems)) is not None:
        _unknown_keys(mblock, "medium", problems)
        omega = _profile(mblock, "medium.omega", problems, 1.0)
        beta = _profile(mblock, "medium.beta", problems, 0.0)
        medium = omega and beta and _build(problems, "medium", MediumSpec,
                                           omega, beta)

    time = _read(raw, "time", problems)
    if time is not None and not time["t1"] > time["t0"]:
        problems.append("time: t1 ({t1}) must exceed t0 ({t0})".format(**time))
        time = None

    run = _read(raw, "solver", problems)
    if run is not None:
        _build(problems, "solver", solver.check_rtol, run["rtol"])
    if run is not None and time is not None:
        t0, t1, stride = time.values()
        h = _output_step(run["method"], run["dt"], stride)
        if not math.isfinite(h):
            problems.append("time.stride: too large, the output step "
                            "overflows a float")
        else:
            # a fixed run records t0 and every step, finer than the grid
            fixed = run["method"] == "fixed"
            step = run["dt"] if fixed else h
            _build(problems, "time", check_sample_budget,
                   fixed_steps(t0, t1, step) + 1 if fixed
                   else grid_points(t1 - t0, step))
            _build(problems, "time", solver.check_step, t0, t1, step)

    ic = _optional(raw, "initial_condition", problems, MilneState)
    dyn = _optional(raw, "dynamical_params", problems, DynamicalParams)

    spectrum = bathymetry = None
    if (eblock := _block(raw, "environment", problems)) is not None:
        _unknown_keys(eblock, "environment", problems)
        spectrum = _optional(eblock, "environment.surface_spectrum", problems,
                             SurfaceSpectrumParams)
        bathymetry = _optional(eblock, "environment.bathymetry", problems,
                               BathymetrySpec)

    top = _values(raw, "", problems)  # None if the seed or outputs is bad
    for product, key in (("spectrum", "surface_spectrum"),
                         ("bathymetry", "bathymetry")):
        # a present but invalid block has reported its own problems
        if top is not None and product in top["outputs"] \
                and eblock is not None and eblock.get(key) is None:
            problems.append(f"outputs: {product!r} requested but "
                            f"environment.{key} is missing")

    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        signal=signal, medium=medium, **time, **run,
        initial_condition=ic or MilneState(signal.amplitude, 0.0),
        dynamical_params=dyn, spectrum=spectrum, bathymetry=bathymetry,
        **top)


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
            fields = _KIND_FIELDS[obj.kind]
        block = {}
        for key, (_, _, *attr) in fields.items():
            name = attr[0] if attr else key
            value = getattr(obj, name) if name else None
            if value is not None:  # an unset optional value
                block[key] = _plain(value)
        if block:
            target = doc
            for part in path.split(".") if path else ():
                target = target.setdefault(part, {})
            target.update(block)
    return doc


# ---------------------------------------------------------------------------
# running


def _settled_start(medium: MediumSpec, t0: float) -> float:
    """First time where bump disturbances have died down (5 widths past)."""
    start = t0
    for prof in (medium.omega, medium.beta):
        if prof.feature_window is not None:  # a bump
            start = max(start, prof.center + 5.0 * prof.width)
    return start


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


def _first_nonfinite(product: str, data) -> Optional[int]:
    """Index of the first record whose CSV would write a non-finite number."""
    # one boolean per value, never a stacked copy of the float columns:
    # that copy adds ~5 MiB to the peak RSS of a 100,000-sample spectrum
    finite = np.logical_and.reduce([np.isfinite(c) for c in
                                    _TABLE[product].columns(data)
                                    if c.dtype.kind == "f"])
    return None if finite.all() else int(np.argmin(finite))


def grid_sweep(product: str, config: ScenarioConfig, params: DynamicalParams,
               grid: np.ndarray):
    """The envelope or the transition forms of `params` over the grid in
    one call, cut before the first bad time.

    A time is bad where the CSV would write a non-finite number, as it
    does where the envelope denominator vanishes. Returns the product at
    the times before it, sliced from the one evaluation, and why that
    time is bad (None if none is).
    """
    if product == "envelope":
        data = envelope_q(params.e_m, params.tau, config.signal,
                          config.medium, grid)
    else:
        data = compare_forms(*params, config.signal, config.medium, grid)
    i = _first_nonfinite(product, data)
    if i is None:
        return data, None
    t = float(grid[i])
    what = ("envelope denominator vanishes"
            if envelope_denominator(config.signal, config.medium, t) == 0.0
            else f"{product} is not finite")
    head = {f.name: getattr(data, f.name)[:i] for f in fields(data)}
    return replace(data, **head), f"{what} at t={t!r}"


def _estimate_summary(trajectory: Trajectory,
                      config: ScenarioConfig) -> DynamicalParams:
    """The run's (e_m, delta, tau), read off its settled samples."""
    # times increase and end on t1 at most: the settled samples are a suffix
    i = np.searchsorted(trajectory.times,
                        _settled_start(config.medium, config.t0))
    if i:
        trajectory = replace(trajectory, times=trajectory.times[i:],
                             states=trajectory.states[i:])
    tau, delta = estimate_period_phase(trajectory)
    states = trajectory.states
    # a blow-up records one state past the guard; its energy may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        e_m = float(np.mean(hamiltonian_density(
            (states[:, 0], states[:, 1]), config.signal, config.medium,
            trajectory.times)))
    if not math.isfinite(e_m):
        raise InsufficientDataError("Milne energy is not finite")
    if not (math.isfinite(tau) and math.isfinite(delta)):
        raise InsufficientDataError("period or phase shift is not finite")
    return DynamicalParams(e_m, delta, tau)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Produce every product the config requests.

    Runtime failures of individual products become skip records; the
    trajectory itself is data even when it ends in a blow-up (its status
    says so).
    """
    requested = config.outputs
    result = ScenarioResult(config=config)

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
            params = _estimate_summary(trajectory, config)
        except InsufficientDataError as exc:
            params_skip_reason = f"estimation failed: {exc}"

    if "summary" in requested:
        if params is None:
            result.skips["summary"] = params_skip_reason
        else:
            result.summary = params._replace(delta=wrap_angle(params.delta))

    sweeps = [p for p in ("envelope", "transition") if p in requested]
    grid = output_grid(config) if sweeps and params is not None else None
    for product in sweeps:
        data, reason = None, params_skip_reason
        if params is not None:
            data, reason = grid_sweep(product, config, params, grid)
        if reason is None:
            setattr(result, product, data)
        else:
            result.skips[product] = reason

    if "spectrum" in requested:
        series = surface_psd_series(config.spectrum)
        i = _first_nonfinite("spectrum", series)
        if i is None:
            result.spectrum = series
        else:
            result.skips["spectrum"] = ("spectrum is not finite at "
                                        f"k={float(series.k[i])!r}")

    if "bathymetry" in requested:
        spec = config.bathymetry
        if spec.seed is None:
            spec = replace(spec, seed=config.seed)
        result.bathymetry = bathymetry_profile(spec)

    return result


# ---------------------------------------------------------------------------
# exports


# the least weight a forked range holds, a pass weighing its records over
# records_per_pass. With 2 ranges on 2 idle CPUs (3 or more not measured),
# forking a whole run paid from weight 8 on for sweep-bumps' products and
# from 12 on for env-tables'; below, the fork and the copies cost more
_FORK_PASSES = 6


def _available_cpus() -> int:
    """CPUs this process may run on; 1 without fork or CPU affinity."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def csv_schedule(products: dict):
    """Format the CSVs of `products` (product -> data, in output order) on
    every available CPU; yields write(product, out), which writes one into
    the binary file `out`: its header, then its records' lines, made by a
    csvfloat.Template in passes of records_per_pass records.

    All the passes, laid end to end and weighing their records over
    records_per_pass, are cut at pass boundaries into a range per CPU, each
    weighing about _FORK_PASSES or more. A forked child formats each range
    but the first into a temporary file per product; write() formats the
    rest and copies the children's files in, in order, or formats a failed
    or unforked child's range itself. The bytes do not depend on the cuts.
    On exit every child is killed and reaped, and every file closed.
    """
    jobs = {}  # product -> (header, lines(lo, hi), records, records_per_pass)
    for product, data in products.items():
        p = _TABLE[product]
        columns = p.columns(data)
        template = csvfloat.Template(p.line + b"\n")
        jobs[product] = (p.header, partial(template.lines, columns),
                         len(columns[0]), template.records_per_pass)
    weight = sum(n / step for *_, n, step in jobs.values())
    parts = max(1, min(_available_cpus(), int(weight // _FORK_PASSES)))
    ranges, done = {}, 0.0  # (part, product) -> [lo, hi], in order
    for product, (*_, n, step) in jobs.items():
        for lo in range(0, n, step):  # to the range the pass's middle is in
            hi = min(lo + step, n)
            part = min(parts - 1, int((done + (hi - lo) / step / 2)
                                      / weight * parts))
            done += (hi - lo) / step
            ranges.setdefault((part, product), [lo, hi])[1] = hi
    # part -> its unreaped child; (part, product) -> file; parts whose
    # child exited 0
    pids, files, ok = {}, {}, set()
    try:
        for part in range(1, parts):
            mine = [(product, lo, hi) for (at, product), (lo, hi)
                    in ranges.items() if at == part]
            try:
                for product, _, _ in mine:
                    files[part, product] = tempfile.TemporaryFile()
                with warnings.catch_warnings():
                    # Python 3.12+ warns on fork() in a multi-threaded
                    # process, and OpenBLAS starts threads. The child is
                    # safe: it runs only the formatting, numpy ufuncs and
                    # indexing, and os._exit, and never calls BLAS.
                    warnings.filterwarnings(
                        "ignore", r"This process \(pid=\d+\) is "
                        "multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                status = 1
                try:
                    for product, lo, hi in mine:
                        lines = jobs[product][1]
                        files[part, product].writelines(lines(lo, hi))
                        files[part, product].flush()
                    status = 0
                finally:
                    # never return into the caller's stack, and never
                    # flush the parent's buffered output a second time
                    os._exit(status)
            pids[part] = pid

        def write(product: str, out) -> None:
            header, lines, *_ = jobs[product]
            out.write(header + b"\n")
            for (part, name), (lo, hi) in ranges.items():
                if name != product:
                    continue
                if part in pids:
                    # reaped elsewhere (SIGCHLD ignored): status unknown
                    with suppress(ChildProcessError):
                        if os.waitstatus_to_exitcode(
                                os.waitpid(pids[part], 0)[1]) == 0:
                            ok.add(part)
                    del pids[part]
                if part in ok:
                    files[part, name].seek(0)
                    shutil.copyfileobj(files[part, name], out)
                else:
                    out.writelines(lines(lo, hi))

        yield write
    finally:
        for pid in pids.values():
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for f in files.values():
            f.close()


def write_csv(product: str, data, out) -> None:
    """Write one product's CSV into the binary file `out`: the one-product
    csv_schedule."""
    with csv_schedule({product: data}) as write:
        write(product, out)


def _require_product(result: ScenarioResult, product: str):
    if product not in _TABLE:
        raise ValueError(f"unknown product {product!r}")
    if product not in result.config.outputs:
        raise NotComputedError(f"{product} was not requested by the scenario")
    if product in result.skips:
        raise NotComputedError(f"{product} was skipped: {result.skips[product]}")


def export_csv(result: ScenarioResult, product: str, destination,
               write=None) -> Path:
    """Write one product as CSV with full float precision (%.17g), by
    `write` of the run's csv_schedule if given.

    Raises NotComputedError (naming the skip reason) for products the run
    did not produce.
    """
    _require_product(result, product)
    path = Path(destination)
    with path.open("wb") as f:
        if write is None:
            write_csv(product, getattr(result, product), f)
        else:
            write(product, f)
    return path


def result_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready summary document for a scenario run."""
    products = {}
    for name in result.config.outputs:
        if name in result.skips:
            products[name] = {"status": "skipped",
                              "reason": result.skips[name]}
        else:
            p = _TABLE[name]
            records = len(p.columns(getattr(result, name))[0])
            products[name] = {"status": "computed",
                              "rows": records * (p.line.count(b"\n") + 1)}
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
                                "last_time": traj.last_time}
    return doc


def export_json(result: ScenarioResult, destination) -> Path:
    """Write the run summary document (schema_version 1) as stable JSON,
    in ASCII bytes as write_csv's lines are, so neither newline
    translation nor the locale's encoding can change them."""
    path = Path(destination)
    text = json.dumps(result_to_dict(result), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    path.write_bytes(text.encode("ascii"))
    return path
