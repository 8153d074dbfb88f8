"""End-to-end CLI checks driven through main()."""

import json
import math
import runpy
import sys

import pytest

from milnesea import __version__, default_config_path
from milnesea.cli import main, run

FAST_DOC = {
    "signal": {"amplitude": 0.01, "wave_number": 0.1},
    "medium": {"beta": {"kind": "constant", "base": 0.1}},
    "time": {"t0": -42.0, "t1": -39.0, "stride": 100},
    "initial_condition": {"p0": 0.01},
    "outputs": ["trajectory", "summary", "envelope", "transition"],
}


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestSimulate:
    def test_full_run_is_reproducible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_DOC)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["envelope.csv", "result.json", "summary.csv",
                         "trajectory.csv", "transition.csv"]
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("summary: computed") for l in lines)

    def test_shipped_default_config_runs(self, tmp_path, capsys):
        # the packaged example blows up early; that is recorded data, not
        # a failure, and the supplied dynamical parameters keep every
        # product computable
        code = main(["simulate", str(default_config_path()),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ended early" in out
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["solver_status"]["status"] == "aborted-blowup"
        assert doc["products"]["envelope"]["status"] == "computed"

    def test_skips_exit_2(self, tmp_path, capsys):
        doc = {"time": {"t0": 0.0, "t1": 2.0},
               "solver": {"dt": 1e-4},
               "medium": {"beta": {"kind": "constant", "base": 0.5}},
               "outputs": ["trajectory", "summary"]}
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", str(cfg), "--out-dir",
                     str(tmp_path / "out")])
        assert code == 2
        out = capsys.readouterr().out
        assert "summary: skipped" in out
        # the trajectory CSV is still written, the skipped product is not
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_skip_removes_an_earlier_runs_csv(self, tmp_path, capsys):
        # a second run into the same directory skips both products it
        # computes from the estimate; their old CSVs would contradict its
        # result.json. The trajectory, not requested again, is left alone
        doc = {"time": {"t0": -60.0, "t1": -57.0, "stride": 100},
               "solver": {"method": "fixed", "dt": 1e-3},
               "outputs": ["trajectory", "summary", "envelope"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 0
        names = ["envelope.csv", "result.json", "summary.csv",
                 "trajectory.csv"]
        assert sorted(p.name for p in out.iterdir()) == names
        trajectory = (out / "trajectory.csv").read_bytes()
        doc = {**doc, "time": {**doc["time"], "t1": -59.99},
               "outputs": ["summary", "envelope"]}
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 2
        assert "found 0 zero crossings" in capsys.readouterr().out
        products = json.loads((out / "result.json").read_text())["products"]
        assert {p: products[p]["status"] for p in doc["outputs"]} == \
            {"summary": "skipped", "envelope": "skipped"}
        assert sorted(p.name for p in out.iterdir()) == \
            ["result.json", "trajectory.csv"]
        assert (out / "trajectory.csv").read_bytes() == trajectory

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"outputs": ["nope"], "extra": 1})
        assert main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration rejected" in err
        assert "nope" in err and "extra" in err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_seed_override_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out-dir", str(out),
                     "--seed", "-5"]) == 1
        assert "seed: must be nonnegative, got -5" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_seed_override_at_2_64_rejected(self, tmp_path, capsys):
        # the hill hash reads 64 bits: 2**64 would draw seed 0's seabed
        cfg = write_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out-dir", str(out),
                     "--seed", str(2 ** 64)]) == 1
        assert ("config.seed: must be below 2**64, got "
                "18446744073709551616") in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_seed_override_replaces_a_bad_seed(self, tmp_path, capsys):
        # the option replaces the file's seed before the file is read
        runs = []
        for name, doc in (("clean", {}), ("bad", {"seed": -1})):
            cfg = write_config(tmp_path, {**doc, "outputs": ["summary"]},
                               f"{name}.json")
            out = tmp_path / name
            code = main(["simulate", str(cfg), "--out-dir", str(out),
                         "--seed", "3"])
            assert strict_json(out / "result.json")["config"]["seed"] == 3
            runs.append((code, (out / "result.json").read_bytes()))
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("text, problem", [
        ('{\n  "time": }', "JSON parse error at line 2 column 11"),
        ("[1, 2]", "top level must be a JSON object")])
    def test_seed_override_keeps_the_file_problem(self, tmp_path, capsys,
                                                  text, problem):
        # a file that is no JSON object reaches load_config as it is
        cfg = tmp_path / "scenario.json"
        cfg.write_text(text)
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path),
                     "--seed", "3"]) == 1
        assert capsys.readouterr().err.startswith(
            f"configuration rejected:\n  - {problem}")

    def test_table_rounding_below_a_zero_knot_runs(self, tmp_path, capsys):
        # interpolating at the zero knot's own time rounds to -2.8e-17;
        # the medium's range is proven at load time, not on each read
        doc = {"medium": {"beta": {"kind": "table", "table": [
                   [-12.756003041925396, 0.24438662939201053],
                   [0.4396371841784763, 0.0]]}},
               "time": {"t0": 0.43963718417847625, "t1": 1.0},
               "outputs": ["trajectory"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 0
        assert "trajectory: computed" in capsys.readouterr().out
        products = strict_json(out / "result.json")["products"]
        assert products["trajectory"]["status"] == "computed"
        assert (out / "trajectory.csv").exists()

    def test_overflowing_wind_speed_rejected(self, tmp_path, capsys):
        doc = {"environment": {"surface_spectrum": {"wind_speed": 1e100}},
               "outputs": ["spectrum"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration rejected" in err
        assert ("environment.surface_spectrum: wind_speed 1e+100 is too "
                "large: its 4th power overflows") in err
        assert not out.exists()

    def test_seed_override_changes_bathymetry(self, tmp_path):
        doc = {"environment": {"bathymetry": {"zeta_max": 5.0,
                                              "hill_spacing": 100.0,
                                              "length": 400.0, "dx": 1.0}},
               "outputs": ["bathymetry"]}
        cfg = write_config(tmp_path, doc)
        for seed, sub in (("1", "s1"), ("2", "s2"), ("1", "s1_again")):
            assert main(["simulate", str(cfg), "--out-dir",
                         str(tmp_path / sub), "--seed", seed]) == 0
        read = lambda s: (tmp_path / s / "bathymetry.csv").read_bytes()
        assert read("s1") != read("s2")
        assert read("s1") == read("s1_again")


class TestTables:
    def test_spectrum_stdout(self, capsys):
        assert main(["spectrum", "--wind-speed", "10", "--samples", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,S"
        assert len(lines) == 17
        k, s = map(float, lines[1].split(","))
        assert k == pytest.approx(1e-3)
        # at k = 1e-3 the exponential cutoff underflows; that is fine
        assert s == 0.0
        assert float(lines[-1].split(",")[1]) > 0

    def test_spectrum_to_file(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--wind-speed", "10", "--samples", "8",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("k,S\n")

    def test_spectrum_rejects_overflowing_wind_speed(self, capsys):
        assert main(["spectrum", "--wind-speed", "1e100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "configuration rejected:\n  - environment.surface_spectrum: "
            "wind_speed 1e+100 is too large: its 4th power overflows\n")

    def test_sample_budget_checked_before_allocating(self, capsys,
                                                    monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr("numpy.logspace", refuse)
        monkeypatch.setattr("milnesea.scenario.bathymetry_profile", refuse)
        for argv, block in ((["spectrum", "--wind-speed", "10",
                              "--samples", "10000001"], "surface_spectrum"),
                            (["bathymetry", "--length", "10000000",
                              "--dx", "1"], "bathymetry")):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"configuration rejected:\n  - environment.{block}: "
                "10000001 samples exceed the sample budget of 10000000\n")

    def test_bathymetry_stdout(self, capsys):
        assert main(["bathymetry", "--length", "100", "--dx", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,zeta"
        assert len(lines) == 12
        assert lines[1].startswith("0,0")

    def test_bathymetry_invalid_args(self, capsys):
        assert main(["bathymetry", "--zeta-max", "-3"]) == 1
        assert capsys.readouterr().err == (
            "configuration rejected:\n"
            "  - environment.bathymetry: zeta_max must be positive\n")

    @pytest.mark.parametrize("argv, message", [
        (["--zeta-max", "1", "--hill-spacing", "1e-300", "--length", "3",
          "--dx", "1"], "environment.bathymetry: length / hill_spacing must "
                        "be below 2**53, got 3e+300"),
        (["--seed", "-1"],
         "environment.bathymetry.seed: must be nonnegative, got -1"),
        (["--zeta-max", "1", "--hill-spacing", "100", "--length", "300",
          "--dx", "50", "--seed", str(2 ** 64)],
         "environment.bathymetry.seed: must be below 2**64, "
         "got 18446744073709551616"),
    ], ids=["hill-index-overflow", "negative-seed", "seed-2**64"])
    def test_bathymetry_rejected_before_allocating(self, argv, message,
                                                   capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("profile computed")

        monkeypatch.setattr("milnesea.scenario.bathymetry_profile", refuse)
        assert main(["bathymetry", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration rejected:\n  - {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["bathymetry", "--zeta-max", "inf", "--length", "300", "--dx", "50"],
         "environment.bathymetry.zeta_max: must be finite"),
        (["bathymetry", "--hill-spacing", "inf"],
         "environment.bathymetry.hill_spacing: must be finite"),
        (["bathymetry", "--dx", "inf"],
         "environment.bathymetry.dx: must be finite"),
        (["spectrum", "--wind-speed", "inf"],
         "environment.surface_spectrum.wind_speed: must be finite"),
        (["spectrum", "--wind-speed", "10", "--k-max", "inf"],
         "environment.surface_spectrum.k_max: must be finite"),
    ], ids=["zeta_max", "hill_spacing", "dx", "wind_speed", "k_max"])
    def test_non_finite_arguments_rejected_before_allocating(
            self, argv, message, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr("numpy.logspace", refuse)
        monkeypatch.setattr("milnesea.scenario.bathymetry_profile", refuse)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration rejected:\n  - {message}\n"


class TestEnvelopeCommand:
    def test_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"time": {"t0": 0.5, "t1": 1.0},
                                      "medium": {"beta": {"kind": "constant",
                                                          "base": 0.5}}})
        assert main(["envelope", str(cfg), "--em", "1.0",
                     "--tau", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,q_squared,magnitude,imaginary_branch"
        assert len(lines) > 2

    def test_options_replace_a_bad_dynamical_params_block(self, tmp_path):
        # the options replace the block before the file is read, so the
        # file's own block is never checked
        doc = {"time": {"t0": 0.5, "t1": 1.0},
               "medium": {"beta": {"kind": "constant", "base": 0.5}}}
        outs = []
        for name, params in (("valid", {"e_m": 2.0, "delta": 0.1,
                                        "tau": 3.0}),
                             ("invalid", {"e_m": "x", "tau": -1})):
            cfg = write_config(tmp_path, {**doc, "dynamical_params": params},
                               f"{name}.json")
            outs.append(tmp_path / f"{name}.csv")
            assert main(["envelope", str(cfg), "--em", "1.0", "--tau", "1.0",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(outs[0].read_bytes().splitlines()) > 2

    def test_singularity_partial_output(self, tmp_path, capsys):
        # beta = 0 makes the denominator vanish right at t0 = 0
        cfg = write_config(tmp_path, {"time": {"t0": 0.0, "t1": 1.0}})
        code = main(["envelope", str(cfg), "--em", "1.0", "--tau", "1.0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "stopped" in captured.err
        assert captured.out.splitlines()[0] == \
            "t,q_squared,magnitude,imaginary_branch"


def strict_json(path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestPointOptions:
    @pytest.mark.parametrize("argv, problem", [
        (["envelope", "--em", "1", "--tau", "0"],
         "dynamical_params.tau: must be positive, got 0.0"),
        (["transition", "--em", "1", "--delta", "0.3", "--tau", "-1",
          "--t", "1"], "dynamical_params.tau: must be positive, got -1.0"),
        (["envelope", "--em", "nan", "--tau", "1"],
         "dynamical_params.e_m: must be finite"),
        (["transition", "--em", "1", "--delta", "inf", "--tau", "1",
          "--t", "1"], "dynamical_params.delta: must be finite"),
        # 2 delta overflows, and the composed form takes its cosine
        (["transition", "--em", "1", "--delta", "1e308", "--tau", "1e308",
          "--t", "0"], "dynamical_params.delta: magnitude must be at most "
                       "8.988465674311579e+307, got 1e+308"),
    ], ids=["envelope-tau-zero", "transition-tau-negative",
            "envelope-em-nan", "transition-delta-inf",
            "transition-delta-overflow"])
    def test_checked_like_dynamical_params(self, tmp_path, capsys, argv,
                                           problem):
        cfg = write_config(tmp_path, {
            "medium": {"beta": {"kind": "constant", "base": 0.5}},
            "time": {"t0": 0.5, "t1": 0.52}})
        assert main([argv[0], str(cfg), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration rejected:\n  - {problem}\n"


TRANSITION_HEADER = "t,m11,m12,m21,m22,provenance,discrepancy\n"


class TestSharedRegistry:
    def test_table_commands_write_the_simulate_csv(self, tmp_path):
        doc = {"medium": {"beta": {"kind": "constant", "base": 0.5}},
               "time": {"t0": 0.5, "t1": 1.5, "stride": 7},
               "dynamical_params": {"e_m": 1.25, "delta": 0.3, "tau": 0.7},
               "environment": {
                   "surface_spectrum": {"wind_speed": 7.5, "k_min": 0.002,
                                        "k_max": 3.0, "samples": 50},
                   "bathymetry": {"zeta_max": 4.0, "hill_spacing": 30.0,
                                  "length": 200.0, "dx": 0.7, "seed": 11}},
               "outputs": ["envelope", "spectrum", "bathymetry"]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", str(cfg), "--out-dir",
                     str(tmp_path / "sim")]) == 0
        commands = {
            "spectrum": ["spectrum", "--wind-speed", "7.5", "--k-min",
                         "0.002", "--k-max", "3.0", "--samples", "50"],
            "bathymetry": ["bathymetry", "--zeta-max", "4.0",
                           "--hill-spacing", "30.0", "--length", "200.0",
                           "--dx", "0.7", "--seed", "11"],
            "envelope": ["envelope", str(cfg), "--em", "1.25", "--tau", "0.7"],
        }
        for product, argv in commands.items():
            out = tmp_path / f"cli-{product}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == \
                (tmp_path / "sim" / f"{product}.csv").read_bytes(), product

    def test_spectrum_grid_defaults_are_the_scenario_defaults(self,
                                                               tmp_path):
        cfg = write_config(tmp_path, {
            "environment": {"surface_spectrum": {"wind_speed": 7.5}},
            "outputs": ["spectrum"]})
        assert main(["simulate", str(cfg), "--out-dir",
                     str(tmp_path / "sim")]) == 0
        out = tmp_path / "cli-spectrum.csv"
        assert main(["spectrum", "--wind-speed", "7.5", "--out",
                     str(out)]) == 0
        assert out.read_bytes() == \
            (tmp_path / "sim" / "spectrum.csv").read_bytes()

    def test_unset_bathymetry_seed_follows_the_scenario_seed(self, tmp_path):
        dims = {"zeta_max": 4.0, "hill_spacing": 30.0, "length": 200.0,
                "dx": 0.7}
        cfg = write_config(tmp_path, {"environment": {"bathymetry": dims},
                                      "outputs": ["bathymetry"]})
        assert main(["simulate", str(cfg), "--out-dir",
                     str(tmp_path / "sim")]) == 0
        argv = ["bathymetry", "--zeta-max", "4.0", "--hill-spacing", "30.0",
                "--length", "200.0", "--dx", "0.7"]
        for name, seed in (("unset", []), ("zero", ["--seed", "0"])):
            assert main(argv + seed + ["--out",
                                       str(tmp_path / f"{name}.csv")]) == 0
        want = (tmp_path / "sim" / "bathymetry.csv").read_bytes()
        assert (tmp_path / "unset.csv").read_bytes() == want
        assert (tmp_path / "zero.csv").read_bytes() == want

    def test_transition_command_prints_the_simulate_rows(self, tmp_path,
                                                         capsys):
        doc = {"medium": {"beta": {"kind": "sech2-bump", "base": 0.5,
                                   "amplitude": 0.25, "center": 1.0,
                                   "width": 0.5}},
               "time": {"t0": 0.5, "t1": 1.5, "stride": 7},
               "dynamical_params": {"e_m": 1.25, "delta": 0.3, "tau": 0.7},
               "outputs": ["transition"]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", str(cfg), "--out-dir",
                     str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        header, *rows = (tmp_path / "sim" / "transition.csv").read_text() \
            .splitlines(keepends=True)
        assert len(rows) == 2 * 143
        for i in (0, 1, 71, 142):
            composed, expanded = rows[2 * i:2 * i + 2]
            t = composed.split(",")[0]
            assert main(["transition", str(cfg), "--em", "1.25", "--delta",
                         "0.3", "--tau", "0.7", "--t", t]) == 0
            assert capsys.readouterr().out == header + composed + expanded


# adaptive runs that overflow on their way to a blow-up; pytest turns
# every numpy warning into an error, so a warning the solver lets through
# fails the run
ADAPTIVE_BLOWUPS = {
    "rhs-overflow": {
        "solver": {"method": "adaptive", "rtol": 0.001},
        "initial_condition": {"p0": 2.0, "p_dot0": -2.7},
        "outputs": ["trajectory"]},
    "error-norm-overflow": {
        "signal": {"amplitude": 4.101919545803766,
                   "sound_speed": 4382.742389627276,
                   "angular_frequency": 8917.562567131195},
        "medium": {"omega": {"kind": "table",
                             "table": [[0.0, 3.6519555363061014],
                                       [1.5, 2.598946851438943]]},
                   "beta": {"kind": "table",
                            "table": [[0.039502773602326256, 0.0]]}},
        "time": {"t0": 0.0, "t1": 0.1495036957685839, "stride": 1},
        "solver": {"method": "adaptive", "rtol": 0.001, "atol": 1e-15},
        "outputs": ["trajectory"]},
    "stage-sum-overflow": {
        "signal": {"amplitude": 1.9702049617041855,
                   "sound_speed": 2074.5645187208174,
                   "angular_frequency": 4975.303053930231},
        "medium": {"omega": {"kind": "sech2-bump", "base": 1.0,
                             "amplitude": 1.9702049617041855,
                             "center": -0.2, "width": 1.4599887611626612},
                   "beta": {"kind": "sech2-bump", "base": 4.265887071623382,
                            "amplitude": -0.48441913812634363,
                            "center": 0.0, "width": 3.91492005111016}},
        "time": {"t0": -96.05427321757914, "t1": -95.55427321757914,
                 "stride": 40},
        "solver": {"method": "adaptive", "rtol": 0.04045849876310835,
                   "atol": 4.30124669733255e-07},
        "outputs": ["trajectory"]},
}


@pytest.mark.parametrize("doc", ADAPTIVE_BLOWUPS.values(),
                         ids=ADAPTIVE_BLOWUPS.keys())
def test_adaptive_blowup_is_data_not_a_warning(tmp_path, capsys, doc):
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, doc)),
                 "--out-dir", str(out)]) == 0
    status = strict_json(out / "result.json")["solver_status"]
    assert status["status"] == "aborted-blowup"
    assert status["message"].startswith("step size underflow at t=")
    assert (f"note: integration ended early, {status['message']}"
            in capsys.readouterr().out)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,p,p_dot"
    assert len(lines) == status["samples"] + 1
    assert all(math.isfinite(float(v))
               for line in lines[1:] for v in line.split(","))


def test_adaptive_span_that_cannot_move_t0_is_an_error(tmp_path, capsys):
    # the config loads, but no first step moves t0 = 1e16: no trajectory
    # of one sample is written as a blow-up
    doc = {"time": {"t0": 1e16, "t1": 1e16 + 40, "stride": 10000},
           "solver": {"method": "adaptive"}, "outputs": ["trajectory"]}
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, doc)),
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: first step h = 0.04 does not move t0 = 1e+16\n")
    assert not out.exists()


class TestNonFinite:
    def test_overflowing_energy_skips_envelope_and_transition(
            self, tmp_path, capsys):
        doc = {"dynamical_params": {"e_m": 1e308, "delta": 0.3, "tau": 1.0},
               "medium": {"beta": {"kind": "constant", "base": 0.5}},
               "outputs": ["summary", "envelope", "transition"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["result.json",
                                                         "summary.csv"]
        products = strict_json(out / "result.json")["products"]
        for product in ("envelope", "transition"):
            assert products[product]["status"] == "skipped"
            assert "not finite at t=0.0" in products[product]["reason"]

    def test_overflowing_denominator_gives_zero_envelope(self, tmp_path,
                                                         capsys):
        # beta c k overflows to inf, so q_squared is 0, with no warning
        doc = {"medium": {"beta": {"kind": "constant", "base": 1e307}},
               "dynamical_params": {"e_m": 1.0, "delta": 0.0, "tau": 1.0},
               "outputs": ["envelope", "transition"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 0
        for name in ("envelope.csv", "transition.csv"):
            lines = (out / name).read_text().splitlines()
            assert len(lines) > 1
            assert all(v in ("false", "composed", "expanded")
                       or math.isfinite(float(v))
                       for line in lines[1:] for v in line.split(","))

    @pytest.mark.parametrize("doc", [
        {"initial_condition": {"p0": 1e303}},
        {"initial_condition": {"p0": 1e303}, "solver": {"method": "adaptive"}},
        {"signal": {"amplitude": 1e303, "wave_number": 0.1}}],
        ids=["p0", "p0-adaptive", "amplitude"])
    def test_huge_initial_state_blows_up_as_data(self, tmp_path, capsys, doc):
        # 1e6 |y0| overflows a float; the default guard must stay finite,
        # not be rejected as a blowup_threshold the config never set
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(
            tmp_path, {**doc, "outputs": ["trajectory"]})),
            "--out-dir", str(out)]) == 0
        result = strict_json(out / "result.json")
        assert result["solver_status"]["status"] == "aborted-blowup"
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,p,p_dot"
        assert len(lines) == result["solver_status"]["samples"] + 1
        assert all(math.isfinite(float(v))
                   for line in lines[1:] for v in line.split(","))

    @pytest.mark.parametrize("method, near", [("adaptive", "0"),
                                              ("fixed", "0.001")])
    def test_non_finite_first_derivative_keeps_t0(self, tmp_path, capsys,
                                                  method, near):
        # the state's first derivative overflows at t0: both integrators
        # record (t0, y0) and end by the same rule
        doc = {"initial_condition": {"p0": 1e300, "p_dot0": 1e300},
               "solver": {"method": method}, "outputs": ["trajectory"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 0
        assert (out / "trajectory.csv").read_bytes() == (
            b"t,p,p_dot\n0,1.0000000000000001e+300,1.0000000000000001e+300\n")
        assert strict_json(out / "result.json")["solver_status"] == {
            "status": "aborted-blowup",
            "message": f"non-finite state near t={near}",
            "samples": 1, "last_time": 0.0}

    def test_overflowing_energy_estimate_skips_the_summary(self, tmp_path,
                                                           capsys):
        # the blow-up's last recorded state is far past the guard, and its
        # energy overflows: the estimate is a skip, not inf in result.json
        doc = {"signal": {"sound_speed": 1.0, "angular_frequency": 1887.0},
               "time": {"t0": -0.5, "t1": 0.5, "stride": 1},
               "solver": {"dt": 0.0625, "blowup_threshold": 1280074.0},
               "outputs": ["trajectory", "summary"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 2
        result = strict_json(out / "result.json")
        assert result["solver_status"]["status"] == "aborted-blowup"
        assert result["products"]["summary"] == {
            "status": "skipped",
            "reason": "estimation failed: Milne energy is not finite"}

    def test_underflowing_wave_numbers_give_zero_density(self, tmp_path,
                                                        capsys):
        # k^3 underflows to 0, but so does the exponential factor: the
        # density is 0, not inf * 0
        doc = {"environment": {"surface_spectrum": {"wind_speed": 10.0,
                                                    "k_min": 1e-200}},
               "outputs": ["spectrum"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 0
        spectrum = strict_json(out / "result.json")["products"]["spectrum"]
        assert spectrum["status"] == "computed"
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert rows[1] == "9.9999999999999998e-201,0"
        # the table command writes the same bytes
        table = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--wind-speed", "10", "--k-min", "1e-200",
                     "--out", str(table)]) == 0
        assert table.read_bytes() == (out / "spectrum.csv").read_bytes()

    def test_overflowing_density_skips_the_spectrum(self, tmp_path, capsys):
        # alpha / 2k^3 overflows where the exponential factor is still 1
        doc = {"environment": {"surface_spectrum": {"wind_speed": 1e60,
                                                    "k_min": 1e-105}},
               "outputs": ["spectrum"]}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, doc)),
                     "--out-dir", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["result.json"]
        spectrum = strict_json(out / "result.json")["products"]["spectrum"]
        assert spectrum["status"] == "skipped"
        assert "not finite at k=1e-105" in spectrum["reason"]
        # the table command refuses the same spectrum
        table = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--wind-speed", "1e60", "--k-min", "1e-105",
                     "--out", str(table)]) == 2
        assert not table.exists()
        assert "not finite at k=1e-105" in capsys.readouterr().err

    def test_envelope_command_stops_before_non_finite_point(self, tmp_path,
                                                            capsys):
        # beta = 0 leaves the denominator 148 t, so the envelope square
        # overflows on the grid points nearest t = 0
        cfg = write_config(tmp_path, {
            "medium": {"beta": {"kind": "constant", "base": 0.0}},
            "time": {"t0": -0.995, "t1": 1.0, "stride": 10}})
        assert main(["envelope", str(cfg), "--em", "8.9e307",
                     "--tau", "3.141592653589793"]) == 2
        captured = capsys.readouterr()
        assert "not finite at t=-0.005" in captured.err
        lines = captured.out.splitlines()
        assert len(lines) == 1 + 99
        assert float(lines[-1].split(",")[0]) == pytest.approx(-0.015)
        assert all("inf" not in line and "nan" not in line for line in lines)

    def test_transition_command_rejects_non_finite_point(self, tmp_path,
                                                         capsys):
        cfg = write_config(tmp_path, {})
        assert main(["transition", str(cfg), "--em", "1e308", "--delta",
                     "0.3", "--tau", "1", "--t", "1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == TRANSITION_HEADER
        assert captured.err == ("transition sweep stopped: transition is "
                                "not finite at t=1.5\n")


class TestTransitionCommand:
    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_rejected_before_any_work(self, tmp_path, capsys,
                                                      monkeypatch, t):
        def refuse(*args, **kwargs):
            raise AssertionError("config loaded")

        monkeypatch.setattr("milnesea.cli.load_config", refuse)
        assert main(["transition", str(write_config(tmp_path, {})), "--em",
                     "1", "--delta", "0.3", "--tau", "1", "--t", t]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: t must be finite, got {t}\n"

    def test_point_evaluation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"medium": {"beta": {"kind": "constant",
                                                          "base": 0.5}}})
        assert main(["transition", str(cfg), "--em", "1.0", "--delta", "0.0",
                     "--tau", "0.7853981633974483", "--t", "1.5"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header + "\n" == TRANSITION_HEADER
        assert [row.split(",")[5] for row in rows] == ["composed", "expanded"]
        for row in rows:
            assert float(row.split(",")[0]) == 1.5
            gap = float(row.split(",")[6])
            assert gap == pytest.approx(0.7071067811865474, abs=1e-9)

    def test_singular_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        code = main(["transition", str(cfg), "--em", "1.0", "--delta", "0.1",
                     "--tau", "1.0", "--t", "0.0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == TRANSITION_HEADER
        assert captured.err == ("transition sweep stopped: envelope "
                                "denominator vanishes at t=0.0\n")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "milnesea" in capsys.readouterr().out


def test_console_entry_point_exits_with_the_status(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["milnesea", "bathymetry", "--length",
                                      "10", "--dx", "5"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == "x,zeta"
    monkeypatch.setattr(sys, "argv", ["milnesea", "bathymetry", "--dx", "0"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 1


def test_module_runs_as_a_script(monkeypatch, capsys):
    # drop the imported module so runpy executes a fresh copy as __main__
    monkeypatch.delitem(sys.modules, "milnesea.cli")
    monkeypatch.setattr(sys, "argv", ["milnesea", "--version"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("milnesea.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"milnesea {__version__}\n"
