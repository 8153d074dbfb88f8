"""Command-line interface.

Subcommands:

* ``simulate``    run a full scenario from a JSON config, writing one CSV
                  per computed product plus a result.json summary
* ``spectrum``    sea-surface spectral density table
* ``bathymetry``  procedural seabed profile table
* ``envelope``    envelope-square sweep for given E_M and tau
* ``transition``  both transition-matrix forms at one evaluation point

Exit codes: 0 on success, 1 for configuration or usage errors, 2 when the
run went through but some requested product had to be skipped (partial
outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .environment import (BathymetrySpec, SurfaceSpectrumParams,
                          bathymetry_profile, surface_psd_series)
from .errors import ConfigError
from .milne import envelope_q
from .scenario import (PRODUCTS, config_to_dict, csv_text, export_csv,
                       export_json, grid_sweep, load_config, output_grid,
                       run_scenario, spectrum_problem)
from .transition import COMPOSED, EXPANDED, compare_forms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milnesea",
        description="Acoustic signals in an oscillator medium: pressure "
                    "dynamics, envelopes, transition matrices and ocean "
                    "environment tables.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario config end to end")
    p.add_argument("config", help="path to a JSON scenario configuration")
    p.add_argument("--out-dir", default=".",
                   help="directory for result.json and product CSVs")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")

    p = sub.add_parser("spectrum", help="tabulate the sea-surface spectrum")
    p.add_argument("--wind-speed", type=float, required=True,
                   help="wind speed at 19.5 m height, m/s")
    p.add_argument("--k-min", type=float, default=1e-3)
    p.add_argument("--k-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")

    p = sub.add_parser("bathymetry", help="tabulate a procedural seabed")
    p.add_argument("--zeta-max", type=float, default=5.0)
    p.add_argument("--hill-spacing", type=float, default=100.0)
    p.add_argument("--length", type=float, default=2000.0)
    p.add_argument("--dx", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")

    p = sub.add_parser("envelope",
                       help="sweep the signal envelope over the config's "
                            "time window")
    p.add_argument("config", help="JSON config supplying signal and medium")
    p.add_argument("--em", type=float, required=True, help="Milne energy")
    p.add_argument("--tau", type=float, required=True, help="signal period")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")

    p = sub.add_parser("transition",
                       help="print both transition-matrix forms at a point")
    p.add_argument("config", help="JSON config supplying signal and medium")
    p.add_argument("--em", type=float, required=True, help="Milne energy")
    p.add_argument("--delta", type=float, required=True, help="phase shift")
    p.add_argument("--tau", type=float, required=True, help="signal period")
    p.add_argument("--t", type=float, required=True, help="evaluation time")

    return parser


def _emit(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load(path: str, **blocks):
    """The config at `path`, top-level `blocks` replaced by options.

    The options are validated like the file's own keys, so a simulate
    run's result.json echoes a config that loads back.
    """
    config = load_config(Path(path).read_text())
    if not blocks:
        return config
    doc = config_to_dict(config)
    doc.update(blocks)
    return load_config(json.dumps(doc))


def _cmd_simulate(args) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}
    config = _load(args.config, **seed)
    result = run_scenario(config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_json(result, out_dir / "result.json")
    for product in PRODUCTS:
        if product in result.requested and product not in result.skips:
            export_csv(result, product, out_dir / f"{product}.csv")

    for product in result.requested:
        if product in result.skips:
            print(f"{product}: skipped ({result.skips[product]})")
        else:
            print(f"{product}: computed -> {out_dir / (product + '.csv')}")
    if result.trajectory is not None and not result.trajectory.completed:
        print(f"note: integration ended early, {result.trajectory.message}")
    print(f"result summary -> {out_dir / 'result.json'}")
    return 2 if result.skips else 0


def _cmd_spectrum(args) -> int:
    params = SurfaceSpectrumParams(wind_speed=args.wind_speed)
    series = surface_psd_series(params, args.k_min, args.k_max, args.samples)
    problem = spectrum_problem(series)
    if problem is not None:
        print(f"spectrum skipped: {problem}", file=sys.stderr)
        return 2
    _emit(csv_text("spectrum", series), args.out)
    return 0


def _cmd_bathymetry(args) -> int:
    spec = BathymetrySpec(zeta_max=args.zeta_max,
                          hill_spacing=args.hill_spacing,
                          length=args.length, dx=args.dx, seed=args.seed)
    _emit(csv_text("bathymetry", bathymetry_profile(spec)), args.out)
    return 0


def _cmd_envelope(args) -> int:
    # the envelope reads no phase shift; 0 only fills the required key
    config = _load(args.config, dynamical_params={
        "e_m": args.em, "delta": 0.0, "tau": args.tau})
    e_m, _, tau = config.dynamical_params
    envelope, error = grid_sweep("envelope", lambda t: envelope_q(
        e_m, tau, config.signal, config.medium, t), output_grid(config))
    _emit(csv_text("envelope", envelope), args.out)
    if error is not None:
        print(f"envelope sweep stopped: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_transition(args) -> int:
    config = _load(args.config, dynamical_params={
        "e_m": args.em, "delta": args.delta, "tau": args.tau})
    cmp, error = grid_sweep("transition", lambda t: compare_forms(
        *config.dynamical_params, config.signal, config.medium, t),
        np.array([args.t]))
    if error is not None:
        print(f"transition undefined: {error}", file=sys.stderr)
        return 2
    for label, entries in ((COMPOSED, cmp.composed),
                           (EXPANDED, cmp.expanded)):
        print(f"{label}:")
        for a, b in entries[0]:
            print(f"  [{a:+.12e}  {b:+.12e}]")
    print(f"max entry gap: {cmp.discrepancy[0]:.12e}")
    return 0


_HANDLERS = {"simulate": _cmd_simulate, "spectrum": _cmd_spectrum,
             "bathymetry": _cmd_bathymetry, "envelope": _cmd_envelope,
             "transition": _cmd_transition}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print("configuration rejected:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
