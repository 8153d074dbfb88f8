"""Scenario configuration parsing, run orchestration, and exports."""

import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import partial
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hostprint import mismatch
from memtrace import peak_bytes

from milnesea import cli, csvfloat, default_config_path, scenario
from milnesea.environment import BathymetryProfile, SpectrumSeries
from milnesea.errors import ConfigError, NotComputedError
from milnesea.milne import EnvelopeSample, envelope_q, hamiltonian_density
from milnesea.scenario import (_FORK_PASSES, _TABLE, DynamicalParams,
                               ScenarioResult, _estimate_summary,
                               config_to_dict, export_csv, export_json,
                               grid_sweep, load_config, output_grid,
                               result_to_dict, run_scenario, write_csv)
from milnesea.solver import (DEFAULT_DT, DEFAULT_MAX_STEPS, MIN_RTOL,
                             Trajectory)
from milnesea.transition import FormComparison, compare_forms

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

GOLDEN = json.loads((Path(workloads.__file__).parent / "golden.json")
                    .read_text())


def load(doc: dict):
    return load_config(json.dumps(doc))


def problems_of(doc: dict):
    with pytest.raises(ConfigError) as err:
        load(doc)
    return err.value.problems


def csv_bytes(product: str, data) -> bytes:
    """The bytes write_csv writes for `product`."""
    out = io.BytesIO()
    write_csv(product, data, out)
    return out.getvalue()


def assert_same_bytes(got: bytes, expected: bytes):
    """got == expected; on a mismatch, fail on the first differing line,
    its index and both lines (pytest's diff of two long CSVs can take
    minutes)."""
    if got != expected:
        for i, (line, want) in enumerate(zip_longest(
                got.splitlines(keepends=True),
                expected.splitlines(keepends=True))):
            assert (i, line) == (i, want)


class TestDefaults:
    def test_empty_object_is_a_valid_scenario(self):
        cfg = load_config("{}")
        assert cfg.signal.wave_number == 0.1
        assert cfg.signal.amplitude == 1.0
        assert cfg.signal.sound_speed == 1480.0
        assert cfg.medium.omega.value(0.0) == 1.0
        assert cfg.medium.beta.value(0.0) == 0.0
        assert (cfg.t0, cfg.t1, cfg.stride) == (0.0, 2.0, 10)
        assert cfg.method == "fixed"
        assert cfg.dt == DEFAULT_DT
        assert cfg.initial_condition == (1.0, 0.0)
        assert cfg.dynamical_params is None
        assert cfg.outputs == ("trajectory", "summary")
        assert cfg.seed == 0

    def test_ic_defaults_to_signal_amplitude(self):
        cfg = load({"signal": {"amplitude": 0.25, "wave_number": 0.1}})
        assert cfg.initial_condition == (0.25, 0.0)

    def test_shipped_config_loads(self):
        cfg = load_config(default_config_path().read_text())
        assert cfg.method == "fixed"
        assert cfg.dt == 1e-4
        assert cfg.dynamical_params == DynamicalParams(1.0, 0.3, 1.0)
        assert cfg.seed == 42
        assert set(cfg.outputs) == {"trajectory", "summary", "envelope",
                                    "transition"}


class TestDynamicalParams:
    def test_flag_derived_from_energy(self):
        assert DynamicalParams(e_m=0.5, delta=0.0,
                               tau=1.0).e_m_bound_violated is True
        assert DynamicalParams(e_m=1.0, delta=0.0,
                               tau=1.0).e_m_bound_violated is False

    def test_supplied_delta_wrapped_in_the_summary_only(self, tmp_path):
        config = load({"dynamical_params": {"e_m": 1.0, "delta": 7.0,
                                            "tau": 1.0},
                       "time": {"t0": 0.5, "t1": 0.6},
                       "outputs": ["summary", "transition"]})
        result = run_scenario(config)
        wrapped = 0.7168146928204135
        assert result.summary == DynamicalParams(1.0, wrapped, 1.0)
        csv = export_csv(result, "summary", tmp_path / "summary.csv")
        assert float(csv.read_text().splitlines()[1].split(",")[2]) == wrapped
        doc = json.loads(export_json(result, tmp_path / "r.json").read_text())
        assert doc["summary"]["delta"] == wrapped
        # the sweeps take delta as given; wrapping it would move the bits
        # of the composed form, which reads cos(2 delta) and sin(2 delta)
        raw, moved = (compare_forms(1.0, delta, 1.0, config.signal,
                                    config.medium, output_grid(config))
                      for delta in (7.0, wrapped))
        for name in ("composed", "expanded", "discrepancy"):
            assert (getattr(result.transition, name).tobytes()
                    == getattr(raw, name).tobytes())
        assert result.transition.composed.tobytes() != moved.composed.tobytes()


class TestValidation:
    def test_json_error_carries_position(self):
        with pytest.raises(ConfigError) as err:
            load_config("{\n  \"time\": }")
        assert "line 2" in err.value.problems[0]
        assert "column" in err.value.problems[0]

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError):
            load_config("[1, 2]")

    def test_all_problems_reported_at_once(self):
        probs = problems_of({
            "time": {"t0": 1.0, "t1": 0.0},
            "solver": {"method": "euler"},
            "outputs": ["trajectory", "nonsense"],
            "mystery": 1,
        })
        text = "; ".join(probs)
        assert len(probs) == 4
        assert "t1" in text and "euler" in text
        assert "nonsense" in text and "mystery" in text

    def test_unknown_keys_rejected_at_depth(self):
        assert any("solver.step" in p for p in problems_of(
            {"solver": {"step": 0.1}}))
        assert any("time.until" in p for p in problems_of(
            {"time": {"until": 4}}))
        assert any("medium.omega.sigma" in p for p in problems_of(
            {"medium": {"omega": {"kind": "constant", "sigma": 1}}}))

    def test_profile_keys_follow_the_kind(self):
        # a key the kind does not use would be dropped by the echo
        assert problems_of({"medium": {"beta": {
            "kind": "constant", "base": 0.1, "amplitude": 3}}}) == [
            "medium.beta.amplitude: unknown key"]
        assert problems_of({"medium": {"beta": {
            "kind": "table", "base": 0.1, "table": [[0.0, 0.1]]}}}) == [
            "medium.beta.base: unknown key"]
        assert problems_of({"medium": {"beta": {"kind": "table"}}}) == [
            "medium.beta: table profiles need at least one knot"]

    def test_problem_paths(self):
        assert problems_of({"seed": 1.5}) == [
            "config.seed: expected an integer, got float"]
        assert problems_of({"environment": {"surface_spectrum": 5}}) == [
            "environment.surface_spectrum: expected an object"]
        # the parameter check comes first and stops the block's checks
        assert problems_of({"environment": {"surface_spectrum": {
            "wind_speed": -1.0, "k_min": 2.0, "k_max": 1.0}}}) == [
            "environment.surface_spectrum: wind_speed must be positive"]

    def test_booleans_are_not_numbers(self):
        probs = problems_of({"time": {"t1": True}})
        assert any("time.t1" in p and "bool" in p for p in probs)

    def test_nonfinite_rejected(self):
        probs = problems_of({"time": {"t1": float("inf")}})
        assert any("finite" in p for p in probs)

    def test_stride_must_be_positive_integer(self):
        assert any("stride" in p for p in problems_of(
            {"time": {"stride": 0}}))
        assert any("stride" in p for p in problems_of(
            {"time": {"stride": 2.5}}))

    def test_signal_exactly_one_wave_parameter(self):
        probs = problems_of({"signal": {"wave_number": 0.1,
                                        "wavelength": 60.0}})
        assert any("exactly one" in p for p in probs)
        # an explicit signal block must commit to one of the three
        probs = problems_of({"signal": {"amplitude": 2.0}})
        assert any("exactly one" in p for p in probs)

    def test_null_signal_reads_as_absent(self):
        # like every other null block (test_config_junk checks them all)
        assert load({"signal": None}) == load({})

    def test_zero_wave_number_is_a_problem(self):
        assert problems_of({"signal": {"wave_number": 0}}) == [
            "signal: wave_number must be positive"]
        assert problems_of({"signal": {"angular_frequency": 1.0,
                                       "sound_speed": 0}}) == [
            "signal: sound_speed must be positive"]

    def test_signal_alternate_parameterisations(self):
        by_len = load({"signal": {"wavelength": 62.83185307179586}})
        assert by_len.signal.wave_number == pytest.approx(0.1, rel=1e-12)
        by_freq = load({"signal": {"angular_frequency": 148.0}})
        assert by_freq.signal.wave_number == pytest.approx(0.1, rel=1e-12)

    def test_dynamical_params_all_required(self):
        probs = problems_of({"dynamical_params": {"e_m": 1.0}})
        text = "; ".join(probs)
        assert "delta" in text and "tau" in text

    def test_dynamical_tau_positive(self):
        assert any("tau" in p for p in problems_of(
            {"dynamical_params": {"e_m": 1.0, "delta": 0.0, "tau": 0.0}}))

    def test_outputs_validated(self):
        assert any("duplicate" in p for p in problems_of(
            {"outputs": ["summary", "summary"]}))
        assert any("unknown product" in p for p in problems_of(
            {"outputs": ["waveform"]}))

    def test_environment_products_need_blocks(self):
        probs = problems_of({"outputs": ["spectrum"]})
        assert any("surface_spectrum" in p for p in probs)
        probs = problems_of({"outputs": ["bathymetry"]})
        assert any("bathymetry" in p for p in probs)

    def test_degenerate_omega_needs_explicit_consent(self):
        # a bump dipping to zero
        doc = {"medium": {"omega": {"kind": "gaussian-bump", "base": 1.0,
                                    "amplitude": -1.0, "center": 5.0,
                                    "width": 1.0}}}
        assert any("omega" in p for p in problems_of(doc))
        # no switch turns the range proof off
        doc["medium"]["allow_degenerate_omega"] = True
        assert "medium.allow_degenerate_omega: unknown key" in problems_of(doc)

    @pytest.mark.parametrize("doc, problems", [
        ({"medium": {"omega": {"kind": "table", "table": [[0.0, 1.0, 2.0]]}}},
         ["medium.omega.table: expected a list of [t, value] pairs"]),
        ({"medium": {"omega": {"kind": "table", "table": [[0.0, "1"]]}}},
         ["medium.omega.table: expected a list of [t, value] pairs"]),
        ({"medium": {"beta": {"kind": "table",
                              "table": [[float("nan"), 0.5]]}}},
         ["medium.beta.table: expected a list of [t, value] pairs"]),
        ({"medium": {"omega": 3}}, ["medium.omega: expected an object"]),
        ({"medium": {"beta": {"kind": 3, "base": 0.5}}},
         ["medium.beta.kind: expected one of constant, gaussian-bump, "
          "sech2-bump, table, got 3"]),
        ({"medium": {"beta": {"kind": "gauss"}}},
         ["medium.beta.kind: expected one of constant, gaussian-bump, "
          "sech2-bump, table, got 'gauss'"]),
        ({"medium": {"beta": {"base": 0.2}}}, ["medium.beta.kind: required"]),
        ({"outputs": "summary"},
         ["config.outputs: expected a list of product names"]),
        # each distinct unknown name once, in order, and no duplicate
        # problem on top: outputs has one rule, reported once
        ({"outputs": ["x", "y", "x"]},
         ["config.outputs: unknown product 'x', 'y'; choose from "
          "trajectory, summary, envelope, transition, spectrum, bathymetry"]),
        # a bad outputs list is read by no other rule
        ({"outputs": ["spectrum", "spectrum"]},
         ["config.outputs: duplicate product names"]),
        # 2 pi / 1e-320 overflows
        ({"signal": {"wavelength": 1e-320}, "outputs": ["summary"]},
         ["signal: wave_number must be finite, got inf"]),
        # c k overflows
        ({"signal": {"sound_speed": 1e308, "wave_number": 10}},
         ["signal: angular_frequency must be finite, got inf"]),
        # 9,999,999 whole steps and a half step to t1: 10,000,001 samples
        ({"time": {"t0": 0.0, "t1": 9999999.5}, "solver": {"dt": 1.0}},
         ["time: 10000001 samples exceed the sample budget of 10000000"]),
        # 2 delta overflows, and the composed form takes its cosine
        ({"dynamical_params": {"e_m": 1, "delta": -1e308, "tau": 1},
          "outputs": ["summary", "transition"]},
         ["dynamical_params.delta: magnitude must be at most "
          "8.988465674311579e+307, got -1e+308"]),
        # a block with a bad key is reported once: no rule reads the
        # default its bad value would have fallen back to
        ({"time": {"t0": 5, "t1": "x"}},
         ["time.t1: expected a number, got str"]),
        ({"time": {"t1": 1e12}, "solver": {"dt": "x"}},
         ["solver.dt: expected a number, got str"]),
        ({"environment": {"surface_spectrum": {
            "wind_speed": 10, "k_min": "x", "k_max": 1e-4}}},
         ["environment.surface_spectrum.k_min: expected a number, got str"]),
        ({"signal": {"sound_speed": "x", "wave_number": 1e306}},
         ["signal.sound_speed: expected a number, got str"]),
        # so is a block that is not an object
        ({"signal": 5}, ["signal: expected an object"]),
        ({"time": 5, "solver": {"dt": 1e-300}}, ["time: expected an object"]),
        ({"environment": 5, "outputs": ["spectrum"]},
         ["environment: expected an object"]),
        # about 2e300 samples: a count past 2**53 is printed as a float
        ({"solver": {"dt": 1e-300}},
         ["time: 2e+300 samples exceed the sample budget of 10000000",
          "time: step 1e-300 is finer than 4 float spacings at |t| = 2.0 "
          "(1.7763568394002505e-15)"]),
        # a count past the float range is printed short, without a float,
        # and rounded to 6 digits as %g rounds
        ({"environment": {"surface_spectrum": {"wind_speed": 10,
                                               "samples": 10 ** 400}}},
         ["environment.surface_spectrum: 1e+400 samples exceed the sample "
          "budget of 10000000"]),
        ({"environment": {"surface_spectrum": {"wind_speed": 10,
                                               "samples": 10 ** 401 - 1}}},
         ["environment.surface_spectrum: 1e+401 samples exceed the sample "
          "budget of 10000000"]),
        # an empty signal block, unlike a null one, must name its wave
        ({"signal": {}}, ["signal: provide exactly one of wave_number, "
                          "wavelength, angular_frequency (got none)"]),
    ], ids=["malformed-table", "mistyped-knot", "non-finite-knot",
            "profile-not-object", "kind-not-string", "kind-unknown",
            "kind-missing", "outputs-not-list", "outputs-unknown-once",
            "outputs-duplicate-unread", "wave-number-overflow",
            "angular-frequency-overflow", "fixed-run-half-step",
            "delta-overflow", "bad-t1-unread", "bad-dt-unread",
            "bad-k-min-unread", "bad-sound-speed-unread",
            "signal-not-object", "time-not-object",
            "environment-not-object", "huge-sample-count",
            "sample-count-past-float-range", "sample-count-rounds-up",
            "signal-empty"])
    def test_problem_text(self, doc, problems):
        assert problems_of(doc) == problems

    def test_negative_seed_rejected(self):
        assert any("seed" in p for p in problems_of({"seed": -1}))

    def test_negative_bathymetry_seed_rejected(self):
        bathymetry = {"zeta_max": 1.0, "hill_spacing": 10.0, "length": 100.0,
                      "dx": 1.0, "seed": -1}
        assert problems_of({"environment": {"bathymetry": bathymetry}}) == [
            "environment.bathymetry.seed: must be nonnegative, got -1"]
        bathymetry["seed"] = 0
        assert load({"environment": {"bathymetry": bathymetry}}) \
            .bathymetry.seed == 0

    def test_seeds_below_2_64(self):
        # the hill hash reads 64 bits: 2**64 would draw seed 0's seabed
        bathymetry = {"zeta_max": 1.0, "hill_spacing": 10.0, "length": 100.0,
                      "dx": 1.0, "seed": 2 ** 64}
        doc = {"seed": 2 ** 64, "environment": {"bathymetry": bathymetry}}
        assert problems_of(doc) == [
            "environment.bathymetry.seed: must be below 2**64, "
            "got 18446744073709551616",
            "config.seed: must be below 2**64, got 18446744073709551616"]
        doc["seed"] = bathymetry["seed"] = 2 ** 64 - 1
        cfg = load(doc)
        assert cfg.seed == cfg.bathymetry.seed == 2 ** 64 - 1

    def test_spectrum_block_ranges(self):
        doc = {"environment": {"surface_spectrum": {"wind_speed": 10.0,
                                                    "k_min": 2.0,
                                                    "k_max": 1.0}}}
        assert any("k_min" in p for p in problems_of(doc))

    @pytest.mark.parametrize("doc, block", [
        ({"environment": {"surface_spectrum": {"wind_speed": 10.0,
                                               "samples": 10 ** 12}}},
         "environment.surface_spectrum"),
        ({"environment": {"bathymetry": {"zeta_max": 5.0,
                                         "hill_spacing": 100.0,
                                         "length": 1e15, "dx": 1.0}}},
         "environment.bathymetry"),
        ({"time": {"t1": 2e12}, "solver": {"dt": 1e-3}}, "time"),
        ({"time": {"t1": 1e12, "stride": 1},
          "solver": {"method": "adaptive"}}, "time"),
    ])
    def test_sample_budget(self, doc, block):
        # rejected while loading, before anything is allocated
        probs = problems_of(doc)
        assert len(probs) == 1
        assert probs[0].startswith(f"{block}: ")
        count = int(probs[0].split(": ")[1].split()[0])
        assert count > DEFAULT_MAX_STEPS
        assert f"budget of {DEFAULT_MAX_STEPS}" in probs[0]

    def test_sample_budget_boundary(self):
        spectrum = {"wind_speed": 10.0, "samples": DEFAULT_MAX_STEPS}
        cfg = load({"environment": {"surface_spectrum": spectrum}})
        assert cfg.spectrum.samples == DEFAULT_MAX_STEPS
        spectrum["samples"] += 1
        assert problems_of({"environment": {"surface_spectrum": spectrum}})
        # a fixed run of exactly the budget in samples still loads
        run = {"time": {"t1": DEFAULT_MAX_STEPS - 1}, "solver": {"dt": 1.0}}
        assert load(run).t1 == DEFAULT_MAX_STEPS - 1
        run["time"]["t1"] += 1
        assert problems_of(run) == ["time: 10000001 samples exceed the "
                                    "sample budget of 10000000"]

    @pytest.mark.parametrize("doc", [
        {"time": {"stride": 10 ** 400}, "solver": {"method": "adaptive"}},
        {"time": {"stride": 10 ** 400}, "outputs": ["envelope"],
         "dynamical_params": {"e_m": 1.0, "delta": 0.0, "tau": 1.0}},
        # the stride fits a float, the output step stride * dt does not
        {"time": {"stride": 10 ** 308}, "solver": {"dt": 10.0},
         "outputs": ["envelope"],
         "dynamical_params": {"e_m": 1.0, "delta": 0.0, "tau": 1.0}},
    ], ids=["adaptive", "fixed", "fixed-step-product"])
    def test_overflowing_stride_is_a_problem(self, doc):
        assert problems_of(doc) == ["time.stride: too large, the output "
                                    "step overflows a float"]

    @pytest.mark.parametrize("doc", [
        # once integrated, the repeated step times broke the trajectory
        {"outputs": ["trajectory"]},
        # once swept, every envelope row sat at t = 1e17
        {"outputs": ["envelope"],
         "dynamical_params": {"e_m": 1.0, "delta": 0.3, "tau": 1.0},
         "medium": {"beta": {"kind": "constant", "base": 0.5}}},
    ], ids=["trajectory", "envelope"])
    def test_step_below_the_float_spacing_is_a_problem(self, doc):
        # a window 640 wide at 1e17, where floats are 16 apart
        window = {"time": {"t0": 1e17, "t1": 1.0000000000000064e17,
                           "stride": 1}}
        assert problems_of({**doc, **window, "solver": {"dt": 1.0}}) == [
            "time: step 1.0 is finer than 4 float spacings at |t| = "
            "1.0000000000000064e+17 (64.0)"]
        config = load({**doc, **window, "solver": {"dt": 64.0}})
        assert np.diff(output_grid(config)).tolist() == [64.0] * 10

    @pytest.mark.parametrize("environment", [
        {"surface_spectrum": {"wind_speed": 1e100}},
        {"bathymetry": {"zeta_max": -1.0, "hill_spacing": 100.0,
                        "length": 400.0, "dx": 1.0}},
    ], ids=["spectrum", "bathymetry"])
    def test_invalid_environment_block_is_not_also_missing(self,
                                                          environment):
        [block] = environment
        product = "spectrum" if block == "surface_spectrum" else "bathymetry"
        probs = problems_of({"environment": environment,
                             "outputs": [product]})
        assert len(probs) == 1
        assert probs[0].startswith(f"environment.{block}: ")
        assert "missing" not in probs[0]
        # an absent block is still reported as missing
        assert problems_of({"environment": {}, "outputs": [product]}) == [
            f"outputs: {product!r} requested but environment.{block} is "
            "missing"]

    def test_rtol_below_100_machine_epsilons_is_a_problem(self):
        # no double meets it: a run would creep to the step limit
        doc = {"solver": {"method": "adaptive", "rtol": 1e-300,
                          "atol": 1e-300}}
        assert problems_of(doc) == [
            "solver: rtol must be at least 100 machine epsilons "
            "(2.220446049250313e-14), got 1e-300"]
        doc["solver"]["rtol"] = MIN_RTOL
        config = load(doc)
        assert load(config_to_dict(config)) == config

    def test_bump_whose_range_overflows_is_a_problem(self):
        doc = {"medium": {"beta": {"kind": "gaussian-bump", "base": 1.7e308,
                                   "amplitude": 1.7e308, "center": 1.0,
                                   "width": 1.0}}}
        assert problems_of(doc) == [
            "medium.beta: profile range must be finite, got (1.7e+308, inf)"]

    def test_table_profile_round_trips(self):
        doc = {"medium": {"beta": {"kind": "table",
                                   "table": [[0.0, 0.1], [5.0, 0.4]]}}}
        cfg = load(doc)
        assert cfg.medium.beta.value(2.5) == pytest.approx(0.25)
        again = load(config_to_dict(cfg))
        assert again.medium.beta.table == cfg.medium.beta.table
        assert config_to_dict(again) == config_to_dict(cfg)


class TestSerialisation:
    def test_dumps_is_stable_under_reload(self):
        cfg = load_config(default_config_path().read_text())
        echo = config_to_dict(cfg)
        assert load(echo) == cfg
        assert config_to_dict(load(echo)) == echo

    def test_minimal_config_round_trips(self):
        cfg = load_config("{}")
        assert load(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("signal", [
        {"wavelength": 100.0},
        {"angular_frequency": 1000.0, "sound_speed": 343.0},
    ])
    def test_alternate_wave_parameters_round_trip(self, signal):
        # the echo carries only the wave number; the fields derived from
        # it must come out the same on reload, to the last bit
        cfg = load({"signal": signal})
        assert load(config_to_dict(cfg)) == cfg


BLOWUP_DOC = {
    "time": {"t0": 0.0, "t1": 2.0, "stride": 10},
    "solver": {"dt": 1e-4},
    "medium": {"beta": {"kind": "constant", "base": 0.5}},
    "outputs": ["trajectory", "summary", "envelope", "transition"],
}

OSCILLATORY_DOC = {
    "signal": {"amplitude": 0.01, "wave_number": 0.1},
    "medium": {"beta": {"kind": "constant", "base": 0.1}},
    "time": {"t0": -60.0, "t1": -30.0, "stride": 100},
    "initial_condition": {"p0": 0.01},
    "outputs": ["trajectory", "summary", "envelope", "transition"],
}


@pytest.fixture(scope="module")
def oscillatory_result():
    return run_scenario(load(OSCILLATORY_DOC))


@pytest.fixture(scope="module")
def blowup_result():
    return run_scenario(load(BLOWUP_DOC))


class TestRun:
    def test_supplied_params_skip_integration(self):
        doc = {"dynamical_params": {"e_m": 1.0, "delta": 0.3, "tau": 1.0},
               "medium": {"beta": {"kind": "constant", "base": 0.5}},
               "outputs": ["envelope"]}
        result = run_scenario(load(doc))
        assert result.trajectory is None
        assert result.envelope is not None
        assert not result.skips

    def test_estimated_summary_in_oscillatory_regime(self, oscillatory_result):
        result = oscillatory_result
        assert result.trajectory.completed
        assert not result.skips
        s = result.summary
        # effective squared frequency is about |148 t| there, so the
        # period sits near 2 pi / 80
        assert 0.05 < s.tau < 0.12
        assert 0.03 < s.e_m < 0.5
        assert s.e_m_bound_violated is True

    def test_estimation_window_excludes_the_transient(self):
        # the bump has settled by t = 40 (centre + 5 widths): the summary
        # reads the clean cosine after it and none of the flat run before
        config = load({"medium": {"omega": {
                           "kind": "gaussian-bump", "base": 1.0,
                           "amplitude": 0.5, "center": 35.0, "width": 1.0}},
                       "time": {"t0": 0.0, "t1": 100.0}})
        t = np.arange(0.0, 100.0, 1e-3)
        settled = t >= 40.0
        p = np.where(settled, np.cos(t - 0.5), 2.0)
        v = np.where(settled, -np.sin(t - 0.5), 0.0)
        params = _estimate_summary(Trajectory(t, np.stack([p, v], axis=1)),
                                   config)
        assert isinstance(params, DynamicalParams)
        assert params.tau == pytest.approx(2.0 * math.pi, abs=1e-4)
        assert params.delta == pytest.approx(0.5, abs=1e-3)
        energy = hamiltonian_density((p[settled], v[settled]), config.signal,
                                     config.medium, t[settled])
        assert params.e_m == pytest.approx(np.mean(energy), rel=1e-12)

    def test_step_beyond_the_span_ends_on_t1(self):
        # dt is 5e12 spans: no whole step, and the remainder is below
        # 1e-12 dt; the run still takes its one step to t1
        result = run_scenario(load({"solver": {"dt": 1e13},
                                    "outputs": ["trajectory", "summary"]}))
        assert result.trajectory.times.tolist() == [0.0, 2.0]
        status = result_to_dict(result)["solver_status"]
        assert status["samples"] == 2 and status["last_time"] == 2.0

    def test_estimation_window_past_t1_skips_the_summary(self):
        # a bump centred past t1 leaves no settled sample to read
        doc = {**OSCILLATORY_DOC,
               "medium": {"omega": {"kind": "gaussian-bump", "base": 1.0,
                                    "amplitude": 0.5, "center": 0.0,
                                    "width": 1.0},
                          "beta": {"kind": "constant", "base": 0.1}},
               "time": {"t0": -60.0, "t1": -59.0, "stride": 100},
               "outputs": ["summary"]}
        result = run_scenario(load(doc))
        assert result.summary is None
        assert result.skips == {"summary": "estimation failed: need at "
                                           "least two samples in the window"}

    @pytest.mark.parametrize("tau, delta", [(math.inf, 0.0), (math.nan, 0.0),
                                            (1.0, math.nan)])
    @pytest.mark.parametrize("outputs", [["summary", "envelope", "transition"],
                                         ["envelope"]])
    def test_nonfinite_estimate_skips(self, monkeypatch, tau, delta,
                                      outputs):
        monkeypatch.setattr(scenario, "estimate_period_phase",
                            lambda trajectory: (tau, delta))
        result = run_scenario(load({
            **OSCILLATORY_DOC, "time": {"t0": -60.0, "t1": -59.0,
                                        "stride": 100},
            "outputs": outputs}))
        reason = "estimation failed: period or phase shift is not finite"
        assert result.skips == dict.fromkeys(outputs, reason)

    def test_blowup_cascades_into_skips(self, blowup_result):
        result = blowup_result
        traj = result.trajectory
        assert traj.status == "aborted-blowup"
        assert traj.last_time == pytest.approx(0.132, abs=0.002)
        for product in ("summary", "envelope", "transition"):
            assert product in result.skips
            assert "estimation failed" in result.skips[product]
            assert getattr(result, product) is None
        assert "trajectory" not in result.skips

    def test_singular_envelope_skipped_with_location(self):
        doc = {"medium": {"beta": {"kind": "constant", "base": 0.0}},
               "dynamical_params": {"e_m": 1.0, "delta": 0.3, "tau": 1.0},
               "time": {"t0": 0.0, "t1": 1.0, "stride": 10},
               "outputs": ["trajectory", "summary", "envelope", "transition"]}
        result = run_scenario(load(doc))
        # the envelope denominator vanishes at exactly t = 0
        assert "t=0" in result.skips["envelope"]
        assert "t=0" in result.skips["transition"]
        assert result.summary is not None
        assert result.trajectory is not None

    def test_requested_products_partition(self, blowup_result,
                                           oscillatory_result):
        for result in (blowup_result, oscillatory_result):
            for product in result.config.outputs:
                got = getattr(result, product)
                assert (got is not None) != (product in result.skips)

    def test_output_grid_spacing_fixed(self, oscillatory_result):
        result = oscillatory_result
        ts = result.envelope.t
        h = OSCILLATORY_DOC["time"]["stride"] * 1e-3
        assert ts[0] == pytest.approx(-60.0)
        np.testing.assert_allclose(np.diff(ts), h, rtol=1e-9)
        assert len(ts) == 301

    def test_output_grid_spacing_adaptive(self):
        # the grid does not depend on the trajectory, so skip integrating
        doc = dict(OSCILLATORY_DOC, solver={"method": "adaptive"},
                   dynamical_params={"e_m": 0.1, "delta": 0.0, "tau": 0.08},
                   outputs=["envelope"])
        result = run_scenario(load(doc))
        assert result.trajectory is None
        ts = result.envelope.t
        np.testing.assert_allclose(np.diff(ts), 100 * DEFAULT_DT, rtol=1e-9)

    def test_transition_samples_carry_both_forms(self, oscillatory_result):
        cmp = oscillatory_result.transition
        ts = oscillatory_result.envelope.t
        np.testing.assert_array_equal(cmp.t, ts)
        assert cmp.composed.shape == cmp.expanded.shape == (len(ts), 2, 2)
        gap = np.max(np.abs(cmp.composed[0] - cmp.expanded[0]))
        assert cmp.discrepancy[0] == gap

    def test_environment_products(self):
        doc = {"environment": {
                   "surface_spectrum": {"wind_speed": 10.0, "samples": 64},
                   "bathymetry": {"zeta_max": 5.0, "hill_spacing": 100.0,
                                  "length": 500.0, "dx": 1.0}},
               "seed": 9,
               "outputs": ["spectrum", "bathymetry"]}
        result = run_scenario(load(doc))
        assert len(result.spectrum.k) == 64
        assert result.bathymetry.zeta.max() <= 5.0
        # without a block seed the scenario seed drives the hills
        explicit = dict(doc)
        explicit["environment"] = json.loads(json.dumps(doc["environment"]))
        explicit["environment"]["bathymetry"]["seed"] = 9
        other = run_scenario(load(explicit))
        np.testing.assert_array_equal(result.bathymetry.zeta,
                                      other.bathymetry.zeta)


SWEPT_MEDIA = {
    "gaussian-bump": {"omega": {"kind": "gaussian-bump", "base": 1.0,
                                "amplitude": 0.5, "center": 1.2,
                                "width": 0.3},
                      "beta": {"kind": "constant", "base": 0.2}},
    # narrow enough that cosh overflows on most of the grid
    "sech2-bump": {"beta": {"kind": "sech2-bump", "base": 0.2,
                            "amplitude": 0.3, "center": 1.0,
                            "width": 0.002}},
    "table": {"omega": {"kind": "table",
                        "table": [[0.0, 1.0], [1.0, 1.5], [2.0, 0.8]]},
              "beta": {"kind": "table", "table": [[0.0, 0.1], [3.0, 0.4]]}},
}


def point_of(product, config):
    e_m, delta, tau = config.dynamical_params
    if product == "envelope":
        return partial(envelope_q, e_m, tau, config.signal, config.medium)
    return partial(compare_forms, e_m, delta, tau, config.signal,
                   config.medium)


def beta_zero_config(t0, dt, e_m):
    # beta = 0 leaves the envelope denominator 148 t: zero at t = 0
    return load({"medium": {"beta": {"kind": "constant", "base": 0.0}},
                 "time": {"t0": t0, "t1": 1.0, "stride": 1},
                 "solver": {"dt": dt},
                 "dynamical_params": {"e_m": e_m, "delta": 0.3,
                                      "tau": math.pi},
                 "outputs": ["envelope", "transition"]})


class TestArraySweep:
    @pytest.mark.parametrize("medium", sorted(SWEPT_MEDIA))
    def test_columns_equal_the_scalar_kernels(self, medium):
        config = load({"medium": SWEPT_MEDIA[medium],
                       "time": {"t0": 0.25, "t1": 2.75, "stride": 1},
                       "dynamical_params": {"e_m": 1.3, "delta": 0.4,
                                            "tau": 0.9},
                       "outputs": ["envelope", "transition"]})
        result = run_scenario(config)
        assert not result.skips
        env, cmp = result.envelope, result.transition
        grid = output_grid(config)
        assert len(grid) == 2501
        np.testing.assert_array_equal(env.t, grid)
        e_m, delta, tau = config.dynamical_params
        for i, t in enumerate(grid.tolist()):
            one = envelope_q(e_m, tau, config.signal, config.medium, t)
            assert (env.t[i], env.q_squared[i], env.magnitude[i],
                    env.imaginary_branch[i]) == (
                one.t, one.q_squared, one.magnitude, one.imaginary_branch)
            forms = compare_forms(e_m, delta, tau, config.signal,
                                  config.medium, t)
            assert cmp.composed[i].tolist() == forms.composed.tolist()
            assert cmp.expanded[i].tolist() == forms.expanded.tolist()
            assert cmp.discrepancy[i] == forms.discrepancy

    @pytest.mark.parametrize("product", ["envelope", "transition"])
    def test_clean_grid_is_evaluated_once(self, product, monkeypatch):
        calls = []

        def counted(name):
            kernel = getattr(scenario, name)

            def wrapper(*args):
                calls.append(name)
                return kernel(*args)
            return wrapper
        for name in ("envelope_q", "compare_forms"):
            monkeypatch.setattr(scenario, name, counted(name))
        # t = 0 is off the first grid and the ninth time of the second: a
        # cut grid is sliced from its one evaluation too
        for t0, cut in ((0.125, None),
                        (-1.0, "envelope denominator vanishes at t=0.0")):
            config = beta_zero_config(t0, 0.125, 1.0)
            calls.clear()
            data, reason = grid_sweep(product, config,
                                      config.dynamical_params,
                                      output_grid(config))
            assert reason == cut and len(data.t) == 8
            assert calls == ["envelope_q" if product == "envelope"
                             else "compare_forms"]

    @pytest.mark.parametrize("product", ["envelope", "transition"])
    def test_zero_denominator_mid_grid(self, product):
        config = beta_zero_config(-1.0, 0.125, 1.0)
        grid = output_grid(config)
        assert grid.tolist()[8] == 0.0
        point = point_of(product, config)
        data, reason = grid_sweep(product, config, config.dynamical_params,
                                  grid)
        assert reason == "envelope denominator vanishes at t=0.0"
        # exactly the rows of the times before t = 0
        text = csv_bytes(product, data)
        assert text == csv_bytes(product, point(grid[:8]))
        lines = text.splitlines()
        per_time = 1 if product == "envelope" else 2
        assert [float(line.split(b",")[0]) for line in lines[1:]] == \
            np.repeat(grid[:8], per_time).tolist()
        assert run_scenario(config).skips[product] == reason

    @pytest.mark.parametrize("product", ["envelope", "transition"])
    def test_first_of_two_bad_times_is_reported(self, product):
        # the envelope square overflows on the grid times just before the
        # zero of the denominator at t = 0; both products go non-finite
        # where the square does
        config = beta_zero_config(-1.0, 2.0 ** -10, 8.9e307)
        grid = output_grid(config)
        envelope = point_of("envelope", config)
        first = next(t for t in grid.tolist()
                     if not math.isfinite(envelope(t).q_squared))
        assert -0.01 < first < 0.0
        point = point_of(product, config)
        data, reason = grid_sweep(product, config, config.dynamical_params,
                                  grid)
        assert reason == f"{product} is not finite at t={first!r}"
        n = int(np.searchsorted(grid, first))
        text = csv_bytes(product, data)
        assert text == csv_bytes(product, point(grid[:n]))
        assert len(text.splitlines()) == 1 + n * (
            1 if product == "envelope" else 2)
        words = (b"true", b"false", b"composed", b"expanded")
        assert all(math.isfinite(float(v)) for line in text.splitlines()[1:]
                   for v in line.split(b",") if v not in words)
        assert run_scenario(config).skips[product] == reason


class TestExports:
    def test_csv_products(self, tmp_path, oscillatory_result):
        result = oscillatory_result
        for product in result.config.outputs:
            path = export_csv(result, product, tmp_path / f"{product}.csv")
            lines = path.read_text().splitlines()
            assert "," in lines[0]
            assert len(lines) >= 2
        env = (tmp_path / "envelope.csv").read_text().splitlines()
        assert env[0] == "t,q_squared,magnitude,imaginary_branch"
        assert env[1].split(",")[3] in ("true", "false")
        tr = (tmp_path / "transition.csv").read_text().splitlines()
        assert tr[0] == "t,m11,m12,m21,m22,provenance,discrepancy"
        assert tr[1].split(",")[5] == "composed"
        assert tr[2].split(",")[5] == "expanded"
        assert len(tr) == 1 + 2 * len(result.transition.discrepancy)

    def test_csv_full_precision(self, tmp_path, oscillatory_result):
        result = oscillatory_result
        path = export_csv(result, "trajectory", tmp_path / "t.csv")
        line = path.read_text().splitlines()[5]
        t, p, pd = line.split(",")
        i = 4
        assert float(p) == result.trajectory.states[i, 0]
        assert float(pd) == result.trajectory.states[i, 1]

    def test_empty_trajectory_writes_header_only(self, tmp_path):
        cfg = load_config("{}")
        empty = Trajectory(np.array([]), np.zeros((0, 2)),
                           status="aborted-blowup", message="bad start")
        result = ScenarioResult(config=cfg, trajectory=empty)
        path = export_csv(result, "trajectory", tmp_path / "e.csv")
        assert path.read_text() == "t,p,p_dot\n"

    def test_unrequested_product_refused(self, tmp_path):
        result = run_scenario(load({"outputs": ["trajectory"]}))
        with pytest.raises(NotComputedError):
            export_csv(result, "spectrum", tmp_path / "s.csv")
        with pytest.raises(ValueError):
            export_csv(result, "wavelet", tmp_path / "w.csv")

    def test_skipped_product_refused_with_reason(self, tmp_path,
                                                 blowup_result):
        result = blowup_result
        with pytest.raises(NotComputedError) as err:
            export_csv(result, "summary", tmp_path / "s.csv")
        assert "estimation failed" in str(err.value)

    def test_json_document_shape(self, tmp_path, oscillatory_result):
        result = oscillatory_result
        doc = result_to_dict(result)
        assert doc["schema_version"] == "1"
        assert set(doc["products"]) == set(result.config.outputs)
        for name in result.config.outputs:
            assert doc["products"][name]["status"] == "computed"
            assert doc["products"][name]["rows"] >= 1
        assert doc["summary"]["flags"]["e_m_bound_violated"] is True
        assert doc["solver_status"]["status"] == "completed"
        assert doc["solver_status"]["samples"] == len(result.trajectory)
        path = export_json(result, tmp_path / "result.json")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(doc))

    def test_json_rows_count_the_csv_lines(self, tmp_path):
        doc = {"medium": {"beta": {"kind": "constant", "base": 0.5}},
               "time": {"t0": 0.5, "t1": 0.6, "stride": 7},
               "dynamical_params": {"e_m": 1.25, "delta": 0.3, "tau": 0.7},
               "environment": {
                   "surface_spectrum": {"wind_speed": 7.5, "samples": 50},
                   "bathymetry": {"zeta_max": 4.0, "hill_spacing": 30.0,
                                  "length": 200.0, "dx": 0.7}},
               "outputs": ["trajectory", "summary", "envelope",
                           "transition", "spectrum", "bathymetry"]}
        result = run_scenario(load(doc))
        assert not result.skips
        products = result_to_dict(result)["products"]
        for product in doc["outputs"]:
            path = export_csv(result, product, tmp_path / f"{product}.csv")
            lines = path.read_text().count("\n")
            assert products[product]["rows"] == lines - 1, product

    def test_json_records_skips(self, blowup_result):
        doc = result_to_dict(blowup_result)
        assert doc["products"]["summary"]["status"] == "skipped"
        assert "reason" in doc["products"]["summary"]
        assert doc["summary"] is None
        assert doc["solver_status"]["status"] == "aborted-blowup"

    def test_config_echo_matches(self, oscillatory_result):
        cfg = oscillatory_result.config
        doc = result_to_dict(oscillatory_result)
        assert load_config(json.dumps(doc["config"])) == cfg


def _records(product: str, n: int):
    """Synthetic data of `n` records for `product`, varied magnitudes."""
    rng = np.random.default_rng(n)

    def floats(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300,
                                                                  shape)

    t = np.cumsum(rng.uniform(0.5, 1.5, n)) * 1e-3
    if product == "trajectory":
        return Trajectory(t, floats(n, 2))
    if product == "envelope":
        return EnvelopeSample(t, floats(n), np.abs(floats(n)),
                              rng.integers(0, 2, n).astype(bool))
    if product == "transition":
        return FormComparison(t, floats(n, 2, 2), floats(n, 2, 2),
                              np.abs(floats(n)))
    if product == "spectrum":
        return SpectrumSeries(t, np.abs(floats(n)))
    return BathymetryProfile(t, np.abs(floats(n)))


# the products of many records, and the records of one csvfloat pass of each
SERIES = ("trajectory", "envelope", "transition", "spectrum", "bathymetry")
PASS = {product: csvfloat.Template(_TABLE[product].line + b"\n")
        .records_per_pass for product in SERIES}


def _sizes(*counts, edges=()):
    """(product, n) for every product of SERIES: n each of `counts`, and
    for each k of `edges`, k passes of that product's records and one
    record either side."""
    return [(product, n) for product in SERIES
            for n in sorted({*counts, *(k * PASS[product] + d
                                        for k in edges for d in (-1, 0, 1))})]


def _reference_csv(product: str, data) -> bytes:
    """The CSV written one record at a time."""
    p = _TABLE[product]
    return b"\n".join([p.header, *(p.line % rec
                                   for rec in zip(*p.columns(data)))]) + b"\n"


class TestChunkedCsv:
    """CSV text is formatted in csvfloat passes of PASS[product] records;
    the bytes must equal those of a per-record writer on both sides of a
    pass edge, and across several passes."""

    @staticmethod
    def check(tmp_path, product, data):
        expected = _reference_csv(product, data)
        assert_same_bytes(csv_bytes(product, data), expected)
        config = replace(load_config("{}"), outputs=(product,))
        result = ScenarioResult(config=config, **{product: data})
        path = export_csv(result, product, tmp_path / f"{product}.csv")
        assert_same_bytes(path.read_bytes(), expected)
        return expected

    @pytest.mark.parametrize("product, n",
                             _sizes(1, 4095, 4096, 4097, edges=[1]))
    def test_record_counts_around_a_chunk(self, tmp_path, product, n):
        text = self.check(tmp_path, product, _records(product, n))
        per_record = 2 if product == "transition" else 1
        assert text.count(b"\n") == 1 + n * per_record

    @pytest.mark.parametrize("e_m", [0.5, 2.0])
    def test_summary_record(self, tmp_path, e_m):
        text = self.check(tmp_path, "summary",
                          DynamicalParams(e_m=e_m, delta=0.3, tau=0.7))
        assert text.splitlines()[1].endswith(b"true" if e_m < 1.0
                                             else b"false")

    def test_empty_trajectory(self, tmp_path):
        empty = Trajectory(np.array([]), np.zeros((0, 2)),
                           status="aborted-blowup", message="bad start")
        assert self.check(tmp_path, "trajectory", empty) == b"t,p,p_dot\n"


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children csv_schedule forks, in order; afterwards no
    child of this process is left, running or unreaped."""
    pids = []

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    fork = os.fork
    monkeypatch.setattr(os, "fork", spy)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def temporary_files(monkeypatch):
    """Every temporary file csv_schedule opens, in order."""
    files, temporary_file = [], tempfile.TemporaryFile

    def keep(*args, **kwargs):
        files.append(temporary_file(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", keep)
    return files


def _ranges(product: str, k: int) -> int:
    """Records of `k` forked ranges of the fewest passes each."""
    return k * _FORK_PASSES * PASS[product]


def set_cpus(monkeypatch, n: int):
    monkeypatch.setattr(scenario, "_available_cpus", lambda: n)


class FailingSink(io.RawIOBase):
    """A binary file whose `fail_at`-th write raises OSError("disk full")."""

    def __init__(self, fail_at=2):
        super().__init__()
        self.fail_at, self.writes = fail_at, 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError("disk full")
        return len(b)


class TestParallelCsv:
    """Ranges of a large CSV are formatted by forked children; the bytes
    must not depend on how many, and no child may outlive the export."""

    # one record either side of 11 passes and of 12, the least weight that
    # forks at 2 CPUs, ranges of _FORK_PASSES passes for 5 workers, and
    # record counts that end anywhere in a pass
    @pytest.mark.parametrize("product, n", [
        *_sizes(8191, 8192, 8193, 20483,
                edges=[2 * _FORK_PASSES - 1, 2 * _FORK_PASSES]),
        *((product, _ranges(product, 5) + 3) for product in SERIES)])
    def test_bytes_do_not_depend_on_workers(self, monkeypatch, forks,
                                            product, n):
        data = _records(product, n)
        set_cpus(monkeypatch, 1)
        serial = csv_bytes(product, data)
        assert_same_bytes(serial, _reference_csv(product, data))
        assert forks == []
        # 5 workers start at most 4 children
        for workers in (2, 3, 5):
            set_cpus(monkeypatch, workers)
            forks.clear()
            assert_same_bytes(csv_bytes(product, data), serial)
            weight = n / PASS[product]
            assert len(forks) == max(1, min(workers,
                                            int(weight // _FORK_PASSES))) - 1

    def test_failed_child_falls_back(self, monkeypatch, forks):
        parent, format_pass = os.getpid(), csvfloat.Template.format_pass

        def fails_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed in the child")
            return format_pass(*args)

        data = _records("transition", _ranges("transition", 3) + 1)
        set_cpus(monkeypatch, 3)
        monkeypatch.setattr(csvfloat.Template, "format_pass", fails_in_child)
        assert_same_bytes(csv_bytes("transition", data),
                          _reference_csv("transition", data))
        assert len(forks) == 2

    def test_failed_child_of_two_products_falls_back(self, monkeypatch,
                                                     forks):
        # 12 spectrum passes, then 12 bathymetry passes, cut in 3 at
        # weights 8 and 16: the first child takes the spectrum's last 4
        # passes and the bathymetry's first 4, and fails on the spectrum
        products = {product: _records(product, _ranges(product, 2))
                    for product in ("spectrum", "bathymetry")}
        parent, format_pass = os.getpid(), csvfloat.Template.format_pass

        def fails_in_child(template, columns, lo, hi):
            if os.getpid() != parent and \
                    columns[0] is products["spectrum"].k:
                raise RuntimeError("formatting failed in the child")
            return format_pass(template, columns, lo, hi)

        set_cpus(monkeypatch, 3)
        monkeypatch.setattr(csvfloat.Template, "format_pass", fails_in_child)
        with scenario.csv_schedule(products) as write:
            for product, data in products.items():
                out = io.BytesIO()
                write(product, out)
                assert_same_bytes(out.getvalue(),
                                  _reference_csv(product, data))
        assert len(forks) == 2

    # the golden bytes at every CPU count; at 2 CPUs only sweep-bumps
    # (weight 36.7) and env-tables (146.5) weigh 2 * _FORK_PASSES or more
    @pytest.mark.parametrize("name, forked", [
        ("osc-fixed", 0), ("osc-adaptive", 0), ("sweep-bumps", 1),
        ("env-tables", 1), ("default-scenario", 0)])
    def test_simulate_bytes_do_not_depend_on_cpus(self, tmp_path,
                                                  monkeypatch, forks, name,
                                                  forked):
        if name == "default-scenario":
            config, golden = default_config_path(), GOLDEN[name]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(workloads.make(name,
                                                        GOLDEN["seed"])[0]))
            golden = GOLDEN["workloads"][name]
        digests = {}
        for cpus in (1, 2, 3, 5):
            set_cpus(monkeypatch, cpus)
            forks.clear()
            out_dir = tmp_path / f"out{cpus}"
            with redirect_stdout(io.StringIO()):
                cli.main(["simulate", str(config), "--out-dir", str(out_dir)])
            digests[cpus] = {p.name: hashlib.sha256(p.read_bytes())
                             .hexdigest() for p in sorted(out_dir.iterdir())}
            assert digests[cpus] == digests[1], cpus
            if cpus == 2:
                assert len(forks) == forked
        assert digests[1] == golden, mismatch()

    @pytest.mark.parametrize("module, name", [(os, "fork"),
                                              (tempfile, "TemporaryFile")])
    def test_fork_error_falls_back(self, monkeypatch, forks, module, name):
        def refuse():
            raise OSError(f"{name} refused")

        data = _records("spectrum", _ranges("spectrum", 2))
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(module, name, refuse)
        assert_same_bytes(csv_bytes("spectrum", data),
                          _reference_csv("spectrum", data))
        assert forks == []

    @pytest.mark.parametrize("name", ["sched_getaffinity", "fork"])
    def test_no_fork_or_affinity_formats_here(self, monkeypatch, forks, name):
        data = _records("spectrum", _ranges("spectrum", 2))
        available_cpus = scenario._available_cpus
        set_cpus(monkeypatch, 2)
        forked = csv_bytes("spectrum", data)
        assert len(forks) == 1
        monkeypatch.setattr(scenario, "_available_cpus", available_cpus)
        monkeypatch.delattr(os, name)
        forks.clear()
        assert scenario._available_cpus() == 1
        assert_same_bytes(csv_bytes("spectrum", data), forked)
        assert forks == []

    def test_children_reaped_elsewhere(self, monkeypatch, forks):
        # with SIGCHLD ignored the kernel reaps each child, so no exit
        # status can be read: the parent formats every range itself
        data = _records("bathymetry", _ranges("bathymetry", 3))
        set_cpus(monkeypatch, 3)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            text = csv_bytes("bathymetry", data)
            with pytest.raises(OSError, match="disk full"):
                write_csv("bathymetry", data, FailingSink())
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert_same_bytes(text, _reference_csv("bathymetry", data))
        assert len(forks) == 4

    @staticmethod
    def check_reaped_and_closed(monkeypatch, forks, files, product, sink):
        set_cpus(monkeypatch, 3)
        data = _records(product, _ranges(product, 3))
        with pytest.raises(OSError, match="disk full"):
            write_csv(product, data, sink)
        assert sink.writes == sink.fail_at
        assert len(forks) == 2
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert len(files) == 2 and all(f.closed for f in files)

    def test_close_after_the_header_reaps_children(self, monkeypatch, forks,
                                                    temporary_files):
        # the export stops at the first write after the header, before
        # either child is waited for
        self.check_reaped_and_closed(monkeypatch, forks, temporary_files,
                                     "bathymetry", FailingSink(fail_at=2))

    def test_failed_write_reaps_children(self, monkeypatch, forks,
                                         temporary_files):
        # the header and the first range are written; the copy of the
        # first child's file fails, with the second child still unreaped
        self.check_reaped_and_closed(monkeypatch, forks, temporary_files,
                                     "trajectory", FailingSink(fail_at=3))

    def test_failed_write_in_a_run_reaps_its_child(self, tmp_path,
                                                   monkeypatch, forks,
                                                   temporary_files):
        # sweep-bumps at 2 CPUs forks one child, for the transition's
        # tail; the run's second product, the envelope, fails to write
        # after its header, with that child still unreaped
        doc, _ = workloads.make("sweep-bumps", 0)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        sinks = []

        def export_csv(result, product, destination, write):
            sinks.append(FailingSink(fail_at=2 if sinks else 0))
            write(product, sinks[-1])

        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "export_csv", export_csv)
        with redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as err:
            assert cli.main(["simulate", str(config), "--out-dir",
                             str(tmp_path / "out")]) == 1
        assert err.getvalue() == "error: disk full\n"
        assert [sink.writes for sink in sinks] == [2, 2]
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        assert len(temporary_files) == 1 and temporary_files[0].closed

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_export_peak_stays_near_one_chunk(self, tmp_path, monkeypatch,
                                              cpus):
        # the parent formats one pass, or copies one buffer, at a time:
        # ~607 KiB of traced peak on the spectrum and ~508 KiB on the
        # bathymetry, where one range of either is megabytes of text
        doc, _ = workloads.make("env-tables", 0)
        result = run_scenario(load(doc))
        set_cpus(monkeypatch, cpus)
        for product, bound in (("spectrum", 800), ("bathymetry", 656)):
            path = tmp_path / f"{product}.csv"
            _, peak = peak_bytes(lambda: export_csv(result, product, path))
            assert peak < bound * 1024, (product, peak)

    # -X dev -W error: an unclosed file or a fork warning fails the child
    CLI = [sys.executable, "-X", "dev", "-W", "error", "-m", "milnesea.cli"]
    ENV = {**os.environ,
           "PYTHONPATH": str(Path(scenario.__file__).parents[1])}
    # three forked ranges of spectrum records and 3 more: the export forks
    # one child at 2 CPUs and two at 3 or more
    SAMPLES = _ranges("spectrum", 3) + 3

    def test_cli_pipe_output_is_not_duplicated(self, forks):
        # children exit without flushing the parent's stdout buffer
        done = subprocess.run(
            [*self.CLI, "spectrum", "--wind-speed", "10", "--samples",
             str(self.SAMPLES)], capture_output=True, check=True,
            timeout=60, env=self.ENV)
        assert done.stderr == b""
        lines = done.stdout.decode().splitlines()
        assert len(lines) == 1 + self.SAMPLES
        assert lines[0] == "k,S"
        k = [float(row.split(",")[0]) for row in lines[1:]]
        assert all(a < b for a, b in zip(k, k[1:]))

    def test_cli_closed_stdout_ends_quietly(self, forks):
        # the reader stops after two lines, as `| head -2` does: ~1.4 MB
        # is still unwritten, so a write meets the closed pipe
        with subprocess.Popen(
                [*self.CLI, "spectrum", "--wind-speed", "10", "--samples",
                 str(self.SAMPLES)], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, env=self.ENV) as child:
            assert child.stdout.readline() == b"k,S\n"
            assert child.stdout.readline().startswith(b"0.001,")
            child.stdout.close()
            assert child.wait(timeout=60) == 1
            assert child.stderr.read() == b""
