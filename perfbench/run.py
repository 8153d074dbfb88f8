#!/usr/bin/env python3
"""milnesea benchmark: `simulate` workloads, end to end and per layer.

    python3 perfbench/run.py --workload osc-fixed --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --record-golden

Run it from the root of a milnesea checkout; it imports the package from
that checkout's ``src`` and works in ``.bench_build/perfbench``.

Each run drives ``milnesea.cli.main(["simulate", CONFIG, "--out-dir", DIR])``
in-process, with stdout captured, as a closed loop with one client: one
warm-up run, then one `simulate` after another for ``--seconds``. The
config is generated from ``--seed`` (see workloads.py) and is all the
program sees.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
run in units of a reference loop timed around it (reference.py), CSV rows
written per reference-loop time, set-up time (import plus load_config,
median of fresh interpreters) and the peak RSS of a fresh process that
ran the workload. The raw wall time and rows per second are printed
beside them. ``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of tracing.py, medians over the traced runs.

Every run is checked: exit code 0, no skipped product, expected row
counts, a completed trajectory, and outputs byte-identical to the first
run of the config. At the default seed the SHA-256 of every output file
must also match golden.json, as must the shipped default scenario's on
every invocation. A failed check counts the run as failed. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
SETUP_EVERY = 3   # one fresh-interpreter set-up probe per this many runs
MIN_REPEATS = 3
PROBE_TIMEOUT_S = 150

END_TO_END = {"wall_calib": "calib", "rows_per_calib": "rows/calib",
              "setup_s": "s", "peak_rss_mb": "MiB"}
# printed beside the end-to-end metrics; too host-dependent to be bounded
RAW = {"wall_s": "s", "rows_per_s": "rows/s", "calib_s": "s"}


def import_program():
    """Import milnesea from this checkout's src, never from elsewhere."""
    package = SRC / "milnesea"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no milnesea package at {package}; run the "
                         "benchmark from the root of a milnesea checkout")
    sys.path.insert(0, str(SRC))
    import milnesea.cli
    if Path(milnesea.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported milnesea from {milnesea.__file__}, "
                         f"not from {package}")
    return milnesea


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or commit
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": {k: os.environ.get(k) for k in threads},
            "platform": platform.platform(), "commit": commit}


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def csv_size(out_dir: Path):
    """(data rows, bytes) over the CSV files of one run."""
    rows = size = 0
    for p in out_dir.glob("*.csv"):
        data = p.read_bytes()
        rows += data.count(b"\n") - 1
        size += len(data)
    return rows, size


def check_outputs(code: int, out_dir: Path, expected: dict,
                  completed: bool) -> list:
    problems = [] if code == 0 else [f"exit code {code}"]
    doc = json.loads((out_dir / "result.json").read_text())
    for product, rows in expected.items():
        info = doc["products"].get(product, {})
        if info.get("status") != "computed":
            problems.append(f"{product}: {info.get('status', 'missing')} "
                            f"({info.get('reason')})")
        elif rows is not None and info["rows"] != rows:
            problems.append(f"{product}: {info['rows']} rows, "
                            f"expected {rows}")
    status = doc["solver_status"]
    if completed and status is not None and status["status"] != "completed":
        problems.append(f"trajectory {status['status']}: {status['message']}")
    files = sorted(p.name for p in out_dir.iterdir())
    wanted = sorted(["result.json"] + [f"{p}.csv" for p in expected])
    if files != wanted:
        problems.append(f"output files {files}, expected {wanted}")
    return problems


class Runner:
    """Runs `simulate` on one config and checks every run's outputs."""

    def __init__(self, cli, config: Path, out_dir: Path, expected: dict,
                 golden=None, completed=True):
        self.cli = cli
        self.argv = ["simulate", str(config), "--out-dir", str(out_dir)]
        self.out_dir = out_dir
        self.expected = expected
        self.golden = golden
        self.completed = completed
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self):
        """Wall time of one checked run, or None if the run failed."""
        self.attempted += 1
        gc.collect()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self.cli.main(self.argv)
                wall = time.perf_counter() - start
            problems = check_outputs(code, self.out_dir, self.expected,
                                     self.completed)
            found = digests(self.out_dir)
        except Exception as exc:  # a crashed run is a failed run
            problems, found = [f"{type(exc).__name__}: {exc}"], None
        if found is not None:
            if self.first_outputs is None:
                self.first_outputs = found
            if self.golden is not None and found != self.golden:
                problems.append(f"outputs differ from golden.json: "
                                f"{json.dumps(found)}")
            elif found != self.first_outputs:
                problems.append("outputs differ from the first run")
        if problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in problems]
            return None
        return wall


def probe(mode: str, config: Path, out_dir: Path = None) -> dict:
    argv = [sys.executable, str(HERE / "probe.py"), mode, str(config)]
    if out_dir is not None:
        argv.append(str(out_dir))
    done = subprocess.run(argv, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _repeat(seconds: float, step):
    deadline = time.perf_counter() + seconds
    count = 0
    while count < MIN_REPEATS or time.perf_counter() < deadline:
        step()
        count += 1


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(runner: Runner, config: Path, work: Path,
               seconds: float) -> dict:
    rss = probe("rss", config, work / "rss")   # also warms the bytecode cache
    runner.attempted += 1
    if rss["exit_code"] != 0:
        runner.failed += 1
        runner.problems.append(f"rss probe: exit code {rss['exit_code']}")

    runner.run()   # warm-up
    refs = [reference.reference_seconds()]
    walls, ratios, setups = [], [], []

    def step():
        # set-up probes are spread over the window so that their median
        # sees the same host drift as the runs
        if len(setups) * SETUP_EVERY <= len(walls):
            setups.append(probe("setup", config)["setup_s"])
            refs[-1] = reference.reference_seconds()
        wall = runner.run()
        refs.append(reference.reference_seconds())
        if wall is not None:
            walls.append(wall)
            ratios.append(wall / (0.5 * (refs[-2] + refs[-1])))

    _repeat(seconds, step)
    rows, _ = csv_size(runner.out_dir)
    n = len(walls)
    return {"wall_calib": (_median(ratios), n),
            "rows_per_calib": (rows / _median(ratios), n),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (rss["peak_rss_mb"], 1),
            "wall_s": (_median(walls), n),
            "rows_per_s": (rows / _median(walls), n),
            "calib_s": (statistics.median(refs), len(refs))}


def per_layer(runner: Runner, seconds: float, trace_path: Path) -> dict:
    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []

    def pair():
        plain = runner.run()
        tracer.reset(tracer.run + 1)
        with tracer:
            wall = runner.run()
        if plain is not None and wall is not None:
            untraced.append(plain)
            traced.append(wall)
            layers.append(tracer.layer_metrics(wall, *csv_size(runner.out_dir)))

    runner.run()   # warm-up
    _repeat(seconds, pair)
    trace_path.write_text(json.dumps({"spans": tracer.spans}, indent=1) + "\n")
    if not layers or not untraced:
        return {}
    n = len(layers)
    return {name: (value, n) for name, value
            in tracing.summarise(layers, untraced, traced).items()}


# the shipped scenario's trajectory blows up at t=0.1321 by design: the
# blow-up is recorded as data and the other products use supplied params
DEFAULT_SCENARIO_ROWS = {"trajectory": 1322, "summary": 1, "envelope": 2001,
                         "transition": 4002}


def run_default_scenario(milnesea, out_dir: Path, golden=None) -> Runner:
    """One untimed run of the shipped scenario, checked against golden."""
    runner = Runner(milnesea.cli, milnesea.default_config_path(), out_dir,
                    DEFAULT_SCENARIO_ROWS, golden, completed=False)
    runner.run()
    return runner


def measure(milnesea, name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """Benchmark one workload; returns metrics, counts, problems, hashes."""
    doc, expected = workloads.make(name, seed, scale)
    golden = json.loads(GOLDEN.read_text())
    at_golden = seed == DEFAULT_SEED and scale == 1.0
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(doc, indent=2) + "\n")
        default = run_default_scenario(milnesea, work / "default",
                                       golden["default-scenario"])
        runner = Runner(milnesea.cli, config, work / "out", expected,
                        golden["workloads"][name] if at_golden else None)
        if trace:
            trace_path = WORK / f"trace-{name}-seed{seed}.json"
            metrics = per_layer(runner, seconds, trace_path)
        else:
            metrics = end_to_end(runner, config, work, seconds)
        return {"workload": name, "seed": seed, "metrics": metrics,
                "attempted": runner.attempted + default.attempted,
                "failed": runner.failed + default.failed,
                "problems": default.problems + runner.problems,
                "outputs": runner.first_outputs, "golden_checked": at_golden}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict, trace: bool) -> dict:
    """Print one workload's metrics by name with unit; return JSON metrics."""
    print(f"workload {result['workload']} seed {result['seed']} "
          f"({'per-layer, traced' if trace else 'end-to-end, untraced'})")
    out = {}
    units = tracing.UNITS if trace else END_TO_END
    for name, (value, n) in result["metrics"].items():
        unit = units.get(name) or RAW[name]
        if name in units:
            out[name] = {"value": value, "unit": unit}
        print(f"  {name:<38} {value:>14.6g} {unit:<10} (n={n})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<38} {failed / attempted:>14.6g} "
          f"{'fraction':<10} ({failed} of {attempted} runs)")
    print(f"  outputs sha256 (golden checked: {result['golden_checked']}): "
          f"{json.dumps(result['outputs'])}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    return out


def record_golden(milnesea):
    """Rewrite golden.json from the current program at the default seed."""
    WORK.mkdir(parents=True, exist_ok=True)
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runners = {"default": run_default_scenario(milnesea,
                                                   Path(tmp) / "default")}
        for name in workloads.NAMES:
            config = Path(tmp) / f"{name}.json"
            cfg_doc, expected = workloads.make(name, DEFAULT_SEED)
            config.write_text(json.dumps(cfg_doc, indent=2) + "\n")
            runners[name] = Runner(milnesea.cli, config, Path(tmp) / name,
                                   expected)
            runners[name].run()
    problems = [p for r in runners.values() for p in r.problems]
    if problems:
        raise SystemExit("error: not recording golden hashes of failed runs:\n"
                         + "\n".join(problems))
    doc["default-scenario"] = runners.pop("default").first_outputs
    doc["workloads"] = {name: r.first_outputs for name, r in runners.items()}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke test only)")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    milnesea = import_program()
    if args.record_golden:
        record_golden(milnesea)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    env = environment()
    print("environment " + json.dumps(env))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results, metrics = [], {}
    for name in names:
        result = measure(milnesea, name, args.seed, args.seconds, trace,
                         args.scale)
        shown = report(result, trace)
        results.append(result)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in shown.items()})

    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"environment": env, "results": results},
                             indent=1) + "\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": failed == 0 and finite and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
