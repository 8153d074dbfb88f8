"""Command-line interface.

Subcommands (every CSV is written as bytes by ``scenario.csv_schedule``,
one schedule for all the CSVs of a ``simulate`` run):

* ``simulate``    run a full scenario from a JSON config, writing one CSV
                  per computed product plus a result.json summary
* ``spectrum``    sea-surface spectral density table
* ``bathymetry``  procedural seabed profile table
* ``envelope``    envelope-square sweep for given E_M and tau
* ``transition``  the transition product's CSV rows at one evaluation time

Exit codes: 0 on success, 1 for configuration or usage errors or a
closed stdout (then silent), 2 when the run went through but some
requested product had to be skipped (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .scenario import (csv_schedule, export_csv, export_json, grid_sweep,
                       load_config, output_grid, run_scenario, write_csv)


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
    # table options are named like their block's keys; one left unset
    # takes the block's default (the bathymetry seed: the scenario seed)
    p.add_argument("--k-min", type=float)
    p.add_argument("--k-max", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")
    p.set_defaults(block="surface_spectrum")

    p = sub.add_parser("bathymetry", help="tabulate a procedural seabed")
    p.add_argument("--zeta-max", type=float, default=5.0)
    p.add_argument("--hill-spacing", type=float, default=100.0)
    p.add_argument("--length", type=float, default=2000.0)
    p.add_argument("--dx", type=float, default=0.5)
    p.add_argument("--seed", type=int,
                   help="hill seed; unset, the scenario seed (0)")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")
    p.set_defaults(block="bathymetry")

    p = sub.add_parser("envelope",
                       help="sweep the signal envelope over the config's "
                            "time window")
    p.add_argument("config", help="JSON config supplying signal and medium")
    p.add_argument("--em", type=float, required=True, help="Milne energy")
    p.add_argument("--tau", type=float, required=True, help="signal period")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")
    # the envelope reads no phase shift; 0 only fills the required key
    p.set_defaults(delta=0.0, t=None)

    p = sub.add_parser("transition",
                       help="print the transition CSV rows at one time")
    p.add_argument("config", help="JSON config supplying signal and medium")
    p.add_argument("--em", type=float, required=True, help="Milne energy")
    p.add_argument("--delta", type=float, required=True, help="phase shift")
    p.add_argument("--tau", type=float, required=True, help="signal period")
    p.add_argument("--t", type=float, required=True, help="evaluation time")
    p.set_defaults(out="-")

    return parser


def _load(path: str, **blocks):
    """The config at `path`, its top-level `blocks` replaced by options
    before one load_config call: the options are checked like the file's
    keys, and the blocks they replace are never read."""
    text = Path(path).read_text()
    with suppress(ValueError):  # load_config reports where the JSON fails
        if blocks and isinstance(doc := json.loads(text), dict):
            text = json.dumps({**doc, **blocks})
    return load_config(text)


def _cmd_simulate(args) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}
    config = _load(args.config, **seed)
    result = run_scenario(config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with csv_schedule({p: getattr(result, p) for p in config.outputs
                       if p not in result.skips}) as write:
        export_json(result, out_dir / "result.json")
        for product in config.outputs:
            if product in result.skips:
                # an earlier run's CSV would contradict result.json
                (out_dir / f"{product}.csv").unlink(missing_ok=True)
                print(f"{product}: skipped ({result.skips[product]})")
            else:
                path = export_csv(result, product,
                                  out_dir / f"{product}.csv", write)
                print(f"{product}: computed -> {path}")
    if result.trajectory is not None and not result.trajectory.completed:
        print(f"note: integration ended early, {result.trajectory.message}")
    print(f"result summary -> {out_dir / 'result.json'}")
    return 2 if result.skips else 0


def _table(args):
    """One environment product of a scenario holding only the options
    given for its block (None if skipped), and why it was skipped."""
    product = args.command
    given = {key: v for key, v in vars(args).items()
             if key not in ("command", "block", "out") and v is not None}
    result = run_scenario(load_config(json.dumps(
        {"environment": {args.block: given}, "outputs": [product]})))
    reason = result.skips.get(product)
    return getattr(result, product), reason and f"{product} skipped: {reason}"


def _sweep(args):
    """The envelope over the output grid, or the transition at one time,
    cut before the first bad time, and why it was cut."""
    product = args.command
    if args.t is not None and not math.isfinite(args.t):
        raise ValueError(f"t must be finite, got {args.t}")
    config = _load(args.config, dynamical_params={
        "e_m": args.em, "delta": args.delta, "tau": args.tau})
    grid = output_grid(config) if args.t is None else np.array([args.t])
    data, reason = grid_sweep(product, config, config.dynamical_params, grid)
    return data, reason and f"{product} sweep stopped: {reason}"


def _cmd_csv(args) -> int:
    """A table or sweep command: its CSV to stdout ("-") or to the file at
    --out, then, where it was skipped or cut short, why, and exit 2."""
    data, note = (_table if "block" in args else _sweep)(args)
    if data is not None:
        if args.out == "-":
            sys.stdout.flush()
            write_csv(args.command, data, sys.stdout.buffer)
        else:
            with open(args.out, "wb") as f:
                write_csv(args.command, data, f)
    if note is None:
        return 0
    print(note, file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return (_cmd_csv if "out" in args else _cmd_simulate)(args)
    except BrokenPipeError:
        # stdout closed early (`| head`): the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
