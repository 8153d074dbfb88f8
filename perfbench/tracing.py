"""Tracing around the calls `simulate` makes into each milnesea module.

The program is not instrumented. Instead the benchmark swaps the names
the callers look up (``milnesea.cli.run_scenario``,
``milnesea.milne.milne_rhs``, ``CoefficientProfile.value`` ...) for
timing wrappers while a traced run is in progress, and restores them
afterwards.

Coarse boundaries (config parsing, integration, estimation, each export,
each environment table) record a span: name, start, end, parent span and
the run it belongs to. Hot per-call boundaries (the RHS, coefficient
evaluation, envelope and transition per grid point) are only aggregated
into a count and a summed duration, so the ~10^5 RHS calls of an
adaptive run do not grow memory. Both kinds also add their duration to
the boundary that encloses them, which gives self times.
"""

from __future__ import annotations

import importlib
import statistics
import time

SPAN, HOT = "span", "hot"
INTEGRATE = ("solver.integrate_fixed", "solver.integrate_adaptive")


def _steps(result):
    return len(result) - 1


def _samples(result):
    return len(result[0])


# (module or class, attribute the caller looks up, span name, kind, count)
BOUNDARIES = (
    ("milnesea.cli", "load_config", "scenario.load_config", SPAN, None),
    ("milnesea.cli", "run_scenario", "scenario.run", SPAN, None),
    ("milnesea.cli", "export_csv", "scenario.export_csv", SPAN, None),
    ("milnesea.cli", "export_json", "scenario.export_json", SPAN, None),
    ("milnesea.milne", "integrate_fixed", INTEGRATE[0], SPAN, _steps),
    ("milnesea.milne", "integrate_adaptive", INTEGRATE[1], SPAN, _steps),
    ("milnesea.scenario", "estimate_period_phase", "milne.estimate", SPAN, None),
    ("milnesea.scenario", "surface_psd_series", "environment.spectrum",
     SPAN, _samples),
    ("milnesea.scenario", "bathymetry_profile", "environment.bathymetry",
     SPAN, _samples),
    ("milnesea.milne", "milne_rhs", "milne.rhs", HOT, None),
    ("milnesea.medium:CoefficientProfile", "value", "medium.coeff", HOT, None),
    ("milnesea.scenario", "envelope_q", "milne.envelope_q", HOT, None),
    ("milnesea.scenario", "compare_forms", "transition.compare_forms",
     HOT, None),
)

# counts that must repeat exactly across runs of one config
COUNTS = ("solver.steps", "solver.rhs_calls", "medium.coeff_evals",
          "milne.envelope_points", "transition.points", "scenario.csv_rows",
          "scenario.csv_bytes", "environment.spectrum_samples",
          "environment.bathymetry_samples")


UNITS = {
    "scenario.load_config_s": "s", "scenario.run_s": "s",
    "scenario.export_s": "s", "scenario.csv_rows": "count",
    "scenario.csv_bytes": "B", "scenario.export_us_per_row": "us",
    "solver.integrate_s": "s", "solver.self_s": "s", "solver.steps": "count",
    "solver.rhs_calls": "count", "solver.rhs_per_step": "calls/step",
    "solver.self_us_per_step": "us",
    "milne.rhs_s": "s", "milne.rhs_us_per_call": "us",
    "milne.rhs_self_us_per_call": "us", "milne.estimate_s": "s",
    "milne.envelope_points": "count", "milne.envelope_us_per_point": "us",
    "medium.coeff_evals": "count", "medium.coeff_s": "s",
    "medium.coeff_us_per_eval": "us",
    "transition.points": "count", "transition.us_per_point": "us",
    "environment.spectrum_samples": "count", "environment.spectrum_s": "s",
    "environment.bathymetry_samples": "count",
    "environment.bathymetry_s": "s",
    "environment.bathymetry_ns_per_sample": "ns",
    "trace.overhead_frac": "fraction", "trace.unattributed_s": "s",
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Spans and per-boundary aggregates of one traced `simulate` run at a time.

    ``calls[name]`` is [count, seconds, items] where items sums the
    boundary's count function (steps, samples); ``nested[(outer, inner)]``
    is the time spent in ``inner`` while ``outer`` was the innermost open
    boundary.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.calls = {name: [0, 0.0, 0] for _, _, name, _, _ in BOUNDARIES}
        self.nested: dict = {}
        self.run = 0
        self._open: list[tuple] = []   # (name, span index or None)
        self._saved: list = []

    def reset(self, run: int):
        """Start aggregating a new run; spans of earlier runs are kept."""
        self.run = run
        for entry in self.calls.values():
            entry[:] = [0, 0.0, 0]
        self.nested.clear()

    def _wrap(self, fn, name: str, kind: str, count):
        clock = time.perf_counter
        entry = self.calls[name]
        nested = self.nested
        open_ = self._open
        spans = self.spans

        if kind == HOT:
            def traced(*args, **kwargs):
                open_.append((name, None))
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - start
                    open_.pop()
                    entry[0] += 1
                    entry[1] += d
                    if open_:
                        key = (open_[-1][0], name)
                        nested[key] = nested.get(key, 0.0) + d
            return traced

        def traced(*args, **kwargs):
            span = {"id": len(spans), "run": self.run, "name": name,
                    "parent": open_[-1][1] if open_ else None}
            spans.append(span)
            open_.append((name, span["id"]))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                span["start"], span["end"] = start, end
                entry[0] += 1
                entry[1] += end - start
                if open_:
                    key = (open_[-1][0], name)
                    nested[key] = nested.get(key, 0.0) + end - start
            if count is not None:
                span["count"] = count(result)
                entry[2] += span["count"]
            return result
        return traced

    def install(self):
        for path, attr, name, kind, count in BOUNDARIES:
            owner = _owner(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, kind, count))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self, wall_s: float, csv_rows: int,
                      csv_bytes: int) -> dict:
        """Per-layer figures of the current run, keyed by metric name."""
        calls, nested = self.calls, self.nested

        def n(name):
            return calls[name][0]

        def s(name):
            return calls[name][1]

        def per(total, count, unit=1e6):
            return total / count * unit if count else 0.0

        integrate_s = sum(s(name) for name in INTEGRATE)
        steps = sum(calls[name][2] for name in INTEGRATE)
        rhs_calls = n("milne.rhs")
        rhs_in_integrate = sum(nested.get((name, "milne.rhs"), 0.0)
                               for name in INTEGRATE)
        solver_self = integrate_s - rhs_in_integrate
        rhs_s = s("milne.rhs")
        rhs_self = rhs_s - nested.get(("milne.rhs", "medium.coeff"), 0.0)
        export_s = s("scenario.export_csv") + s("scenario.export_json")
        top = sum(sp["end"] - sp["start"] for sp in self.spans
                  if sp["run"] == self.run and sp["parent"] is None)
        bathy = calls["environment.bathymetry"]
        return {
            "scenario.load_config_s": s("scenario.load_config"),
            "scenario.run_s": s("scenario.run"),
            "scenario.export_s": export_s,
            "scenario.csv_rows": csv_rows,
            "scenario.csv_bytes": csv_bytes,
            "scenario.export_us_per_row": per(export_s, csv_rows),
            "solver.integrate_s": integrate_s,
            "solver.self_s": solver_self,
            "solver.steps": steps,
            "solver.rhs_calls": rhs_calls,
            "solver.rhs_per_step": per(rhs_calls, steps, 1),
            "solver.self_us_per_step": per(solver_self, steps),
            "milne.rhs_s": rhs_s,
            "milne.rhs_us_per_call": per(rhs_s, rhs_calls),
            "milne.rhs_self_us_per_call": per(rhs_self, rhs_calls),
            "milne.estimate_s": s("milne.estimate"),
            "milne.envelope_points": n("milne.envelope_q"),
            "milne.envelope_us_per_point": per(s("milne.envelope_q"),
                                               n("milne.envelope_q")),
            "medium.coeff_evals": n("medium.coeff"),
            "medium.coeff_s": s("medium.coeff"),
            "medium.coeff_us_per_eval": per(s("medium.coeff"),
                                            n("medium.coeff")),
            "transition.points": n("transition.compare_forms"),
            "transition.us_per_point": per(s("transition.compare_forms"),
                                           n("transition.compare_forms")),
            "environment.spectrum_samples": calls["environment.spectrum"][2],
            "environment.spectrum_s": s("environment.spectrum"),
            "environment.bathymetry_samples": bathy[2],
            "environment.bathymetry_s": bathy[1],
            "environment.bathymetry_ns_per_sample": per(bathy[1], bathy[2],
                                                        1e9),
            "trace.unattributed_s": wall_s - top,
        }


def summarise(runs: list[dict], untraced_walls: list[float],
              traced_walls: list[float]) -> dict:
    """Medians over traced runs; counts must agree exactly between runs.

    The wall lists pair each traced run with the untraced run just before
    it, so the overhead ratio is taken per pair, clear of the host's drift.
    """
    for name in COUNTS:
        seen = {run[name] for run in runs}
        if len(seen) != 1:
            raise RuntimeError(f"count {name} differs between runs of one "
                               f"config: {sorted(seen)}")
    out = {name: statistics.median(run[name] for run in runs)
           for name in runs[0]}
    out["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced_walls, untraced_walls)) - 1.0
    return out
