"""Command-line front-end: config parsing, verdicts, exit codes, determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isoflow
from isoflow.cli import _SCHEMA, RunConfig, load_config, main, resolved_config_text
from isoflow.errors import ConfigError
from isoflow.spectrum import SpectralProblem
from isoflow.weights import CumulativeDensity1D

CONFIG_DIR = Path(isoflow.__file__).parent / "configs"
GAUSSIAN_CFG = str(CONFIG_DIR / "gaussian_slab.cfg")
QUADRATIC_CFG = str(CONFIG_DIR / "quadratic_slab.cfg")

ALL_COMMANDS = ("profile", "transport", "stability", "jacobi", "spectrum", "optimize")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as handle:
        return json.load(handle)


class TestLoadConfig:
    def test_bundled_configs_parse(self):
        for path in (GAUSSIAN_CFG, QUADRATIC_CFG):
            config = load_config(path)
            density = config.density()
            assert density.dim == 2
            assert density.slab == (-1.0, 1.0)

    def test_defaults_fill_missing_sections(self, tmp_path):
        config = load_config(write_cfg(tmp_path, "[density]\nweight = zero\n"))
        assert config.value("run", "seed") == 20260816
        assert config.value("transport", "grid_size") == 2001
        assert config.value("jacobi", "steps") == (0.004, 0.002, 0.001)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, "[density]\nweight = zero\n[turbo]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        # [run] threads was a knob no code path read; [stability] line_x and
        # n_random drove a random sweep the spectral pencil replaced
        for text in (
            "[density]\nflavor = spicy\n",
            "[run]\nthreads = 2\n",
            "[stability]\nn_random = 200\n",
            "[stability]\nline_x = 0.0\n",
        ):
            with pytest.raises(ConfigError):
                load_config(write_cfg(tmp_path, text))

    def test_unparseable_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, "[density]\nc = fast\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_unknown_weight_rejected(self, tmp_path):
        config = load_config(write_cfg(tmp_path, "[density]\nweight = cubic\n"))
        with pytest.raises(ConfigError):
            config.density()

    def test_wrong_arity_rejected(self, tmp_path):
        config = load_config(write_cfg(tmp_path, "[density]\nweight = affine\nparams = 1, 2, 3\n"))
        with pytest.raises(ConfigError):
            config.density()

    def test_piecewise_weight_built_from_flat_pairs(self, tmp_path):
        config = load_config(
            write_cfg(
                tmp_path,
                "[density]\nweight = piecewise_linear\nparams = -1, 0, 0, 0.3, 1, 0\n",
            )
        )
        density = config.density()
        assert density.weight.value(0.0) == pytest.approx(0.3)

    def test_log_power_exponent_kept_fractional(self, tmp_path):
        text = "[density]\nweight = log_power\nparams = 2.5\nslab = 0, inf\n"
        assert load_config(write_cfg(tmp_path, text)).density().weight.m == 2.5

    def test_infinite_slab_literals(self, tmp_path):
        config = load_config(write_cfg(tmp_path, "[density]\nweight = zero\nslab = -inf, inf\n"))
        assert config.density().slab == (-float("inf"), float("inf"))

    def test_resolved_text_roundtrip(self, tmp_path):
        config = load_config(QUADRATIC_CFG)
        echoed = write_cfg(tmp_path, resolved_config_text(config), "resolved.cfg")
        assert load_config(echoed) == config


@pytest.fixture(scope="module")
def gaussian_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("gauss"))
    code = main(["all", "--config", GAUSSIAN_CFG, "--out", out])
    return code, out


@pytest.fixture(scope="module")
def quadratic_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("quad"))
    code = main(["all", "--config", QUADRATIC_CFG, "--out", out])
    return code, out


class TestGaussianRun:
    def test_exit_code_zero(self, gaussian_run):
        code, _ = gaussian_run
        assert code == 0

    def test_summary_all_verified(self, gaussian_run):
        _, out = gaussian_run
        summary = read_json(out, "summary.json")
        assert summary["status"] == "verified"
        assert [r["command"] for r in summary["verdicts"]] == list(ALL_COMMANDS)
        assert all(r["status"] == "verified" for r in summary["verdicts"])

    def test_expected_files_present(self, gaussian_run):
        _, out = gaussian_run
        expected = {
            "resolved.cfg",
            "summary.json",
            "profile_parallel.csv",
            "profile_perp.csv",
            "compare.json",
            "transport.csv",
            "transport.json",
            "stability.json",
            "jacobi.csv",
            "jacobi_curve.csv",
            "jacobi.json",
            "spectrum.csv",
            "spectrum.json",
            "optimize_trace.csv",
            "chord.csv",
            "optimize.json",
        }
        assert expected.issubset(set(os.listdir(out)))

    def test_identity_transport_and_strict_comparison(self, gaussian_run):
        _, out = gaussian_run
        compare = read_json(out, "compare.json")
        assert compare["metrics"]["comparison"] == "strict"
        transport = read_json(out, "transport.json")
        assert transport["metrics"]["max_derivative"] <= 1.0 + 1e-6

    def test_jacobi_second_order(self, gaussian_run):
        _, out = gaussian_run
        jacobi = read_json(out, "jacobi.json")
        assert all(r >= 3.5 for r in jacobi["metrics"]["ratios"])

    def test_optimizer_takes_few_newton_steps(self, gaussian_run):
        _, out = gaussian_run
        assert read_json(out, "optimize.json")["metrics"]["iterations"] <= 6

    def test_resolved_config_reloads_to_same_values(self, gaussian_run):
        _, out = gaussian_run
        resolved = load_config(os.path.join(out, "resolved.cfg"))
        original = load_config(GAUSSIAN_CFG).with_overrides(out_dir=out)
        assert resolved == original


class TestQuadraticRun:
    def test_exit_code_zero(self, quadratic_run):
        code, _ = quadratic_run
        assert code == 0

    def test_parallel_instability_expected_and_verified(self, quadratic_run):
        _, out = quadratic_run
        stability = read_json(out, "stability.json")
        assert stability["status"] == "verified"
        assert stability["metrics"]["parallel_verdict"] == "unstable"
        assert stability["metrics"]["witness_index_value"] < -1e-3
        assert stability["metrics"]["vertical_index_min"] >= -1e-6

    def test_optimizer_matches_perpendicular_profile(self, quadratic_run):
        _, out = quadratic_run
        record = read_json(out, "optimize.json")
        assert record["status"] == "verified"
        assert record["metrics"]["relative_gap"] <= 5e-3
        assert record["metrics"]["iterations"] <= 6


class TestNonStationaryChord:
    """A descent that converges on a chord its stationarity report fails,
    without beating the benchmark, is a run-time error, not a violation:
    on these slabs the chord's length matches the benchmark, but its tail
    controls, which carry almost no mass, keep their starting tilt."""

    @pytest.mark.parametrize(
        "density",
        ["weight = log_power\nparams = 2\nc = 0.5\nslab = 0, inf\n",
         "weight = quadratic\nparams = 0.5, 0.2, 0\nc = 0.5\nslab = -inf, inf\n"],
        ids=["log_power_half_plane", "quadratic_whole_line"],
    )
    def test_converged_non_stationary_chord_is_an_error(self, tmp_path, density, capsys):
        cfg = write_cfg(tmp_path, f"[density]\n{density}")
        out = str(tmp_path / "out")
        assert main(["all", "--config", cfg, "--out", out]) == 1
        verdicts = read_json(out, "summary.json")["verdicts"]
        assert [v["command"] for v in verdicts] == list(ALL_COMMANDS)
        assert all(v["status"] != "violated" for v in verdicts)
        assert [v["status"] for v in verdicts if v["command"] == "optimize"] == ["error"]
        message = read_json(out, "optimize_error.json")["metrics"]["message"]
        assert "non-stationary" in message and "hf_spread" in message
        assert "hf_spread" in capsys.readouterr().err


class TestExitCodes:
    def test_malformed_slab_exits_one_without_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "never")
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nslab = 1, -1\n")
        assert main(["profile", "--config", cfg, "--out", out]) == 1
        assert not os.path.exists(out)
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[density]\nweight = zero\n[optimize]\ngradient_tolerance = nan\n",
             "[optimize] gradient_tolerance"),
            ("[density]\nweight = quadratic\nparams = -0.3, 0, 0\n[profile]\ntolerance = nan\n",
             "[profile] tolerance"),
            ("[density]\nweight = zero\n[jacobi]\nsteps = 0.004, nan\n", "[jacobi] steps"),
        ],
        ids=["gradient_tolerance", "profile_tolerance", "jacobi_steps"],
    )
    def test_nan_setting_exits_one_at_load(self, tmp_path, capsys, text, key):
        """A NaN tolerance can never be met (400 idle iterations) or never
        fail (the parallel ODE check reads 'inequality' on a convex weight)."""
        out = str(tmp_path / "never")
        assert main(["all", "--config", write_cfg(tmp_path, text), "--out", out]) == 1
        assert not os.path.exists(out)
        assert key in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["profile", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 1
        capsys.readouterr()

    def test_nonsmooth_weight_profile_exits_one_with_error_record(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = piecewise_linear\nparams = -1, 0, 0, 0.3, 1, 0\n",
        )
        out = str(tmp_path / "out")
        assert main(["profile", "--config", cfg, "--out", out]) == 1
        record = read_json(out, "profile_error.json")
        assert record["status"] == "error"
        assert "message" in record["metrics"]
        capsys.readouterr()

    def test_expect_bound_turns_diagnostic_into_violation(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = quadratic\nparams = -4, 0, 0\nc = 0.5\nslab = -1, 1\n",
        )
        out = str(tmp_path / "out")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        plain = read_json(out, "spectrum.json")
        assert plain["status"] == "verified"
        assert not plain["metrics"]["certified"]
        assert main(["spectrum", "--config", cfg, "--out", out, "--expect-bound"]) == 2
        flagged = read_json(out, "spectrum.json")
        assert flagged["status"] == "violated"
        assert flagged["witness"]["value"] == pytest.approx(
            plain["metrics"]["lambda"], rel=1e-12
        )
        capsys.readouterr()

    def test_violation_dominates_in_summary(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = quadratic\nparams = -4, 0, 0\nc = 0.5\nslab = -1, 1\n"
            "[transport]\nrequire_concave = false\n",
        )
        out = str(tmp_path / "out")
        code = main(["all", "--config", cfg, "--out", out, "--expect-bound"])
        assert code in (1, 2)
        summary = read_json(out, "summary.json")
        statuses = {r["command"]: r["status"] for r in summary["verdicts"]}
        assert statuses["spectrum"] == "violated"
        capsys.readouterr()


class TestSingleCommand:
    def test_affine_whole_space_ties_everywhere(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = affine\nparams = 1, 0\nc = 0.5\nslab = -inf, inf\n",
        )
        out = str(tmp_path / "out")
        assert main(["profile", "--config", cfg, "--out", out]) == 0
        record = read_json(out, "compare.json")
        assert record["status"] == "verified"
        assert record["metrics"]["strict"] is False
        assert record["metrics"]["n_ties"] == record["metrics"]["n_grid"]

    def test_log_power_transport_contracts(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = log_power\nparams = 2\nc = 0.5\nslab = 0, inf\n",
        )
        out = str(tmp_path / "out")
        assert main(["transport", "--config", cfg, "--out", out]) == 0
        record = read_json(out, "transport.json")
        assert record["status"] == "verified"
        assert record["metrics"]["max_derivative"] <= 1.0 + 1e-6

    def test_profile_writes_only_its_files(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["profile", "--config", GAUSSIAN_CFG, "--out", out]) == 0
        files = set(os.listdir(out))
        assert {"resolved.cfg", "profile_parallel.csv", "profile_perp.csv", "compare.json"} == files

    def test_exact_jacobi_shot_passes_via_floor(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = quadratic\nparams = 1, 0, 0\nc = 0.5\nslab = -1, 1\n"
            "[jacobi]\ntarget_hf = -0.5\nstart_x = 0.5\nstart_t = 0.0\n"
            "angle = 1.5707963267948966\nsteps = 0.004, 0.002\nmax_length = 0.9\n",
        )
        out = str(tmp_path / "out")
        assert main(["jacobi", "--config", cfg, "--out", out]) == 0
        record = read_json(out, "jacobi.json")
        assert max(record["metrics"]["max_residuals"]) <= 1e-9

    def test_spectrum_solves_the_pencil_once(self, tmp_path, monkeypatch):
        built = []
        check = SpectralProblem.__post_init__

        def counting(self):
            built.append(self.n_cells)
            check(self)

        monkeypatch.setattr(SpectralProblem, "__post_init__", counting)
        assert main(["spectrum", "--config", GAUSSIAN_CFG, "--out", str(tmp_path)]) == 0
        assert len(built) == 1


class TestOnePencilPerRun:
    @pytest.mark.parametrize(
        "text, pencils",
        [
            (None, 1),
            ("[density]\nweight = zero\nc = 0.5\nslab = -inf, inf\n[jacobi]\nmax_length = 0.9\n", 2),
        ],
        ids=["gaussian_slab", "zero_on_R"],
    )
    def test_stability_and_spectrum_share_the_certificate(self, tmp_path, monkeypatch, text, pencils):
        # an infinite slab adds the 1.25x wider truncation check, once
        built = []
        check = SpectralProblem.__post_init__

        def counting(self):
            built.append(self.n_cells)
            check(self)

        monkeypatch.setattr(SpectralProblem, "__post_init__", counting)
        cfg = GAUSSIAN_CFG if text is None else write_cfg(tmp_path, text)
        main(["all", "--config", cfg, "--out", str(tmp_path / "out")])
        assert len(built) == pencils
        verdicts = read_json(str(tmp_path / "out"), "summary.json")["verdicts"]
        assert [v["command"] for v in verdicts] == list(ALL_COMMANDS)


class TestOneEnginePerRun:
    def test_all_builds_the_slab_factor_engine_once(self, tmp_path, monkeypatch):
        """Profiles, transport and the optimizer's target area share Density.cumulative."""
        builds = []
        init = CumulativeDensity1D.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CumulativeDensity1D, "__init__", counting_init)
        assert main(["all", "--config", GAUSSIAN_CFG, "--out", str(tmp_path / "out")]) == 0
        assert len(builds) == 1

    def test_an_unset_height_reuses_the_run_density(self, tmp_path, monkeypatch):
        """The slab-factor median that fills an unset height comes from the
        run's one Density, so its engine is built once, not twice."""
        builds = []
        init = CumulativeDensity1D.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CumulativeDensity1D, "__init__", counting_init)
        cfg = write_cfg(tmp_path, "[density]\nweight = log_power\nparams = 2\nc = 0.5\nslab = 0, inf\n"
                        "[jacobi]\nmax_length = 0.9\n[optimize]\nmax_iterations = 3\n")
        main(["all", "--config", cfg, "--out", str(tmp_path / "out")])
        assert len(builds) == 1
        verdicts = read_json(str(tmp_path / "out"), "summary.json")["verdicts"]
        assert [v["command"] for v in verdicts] == list(ALL_COMMANDS)
        assert read_json(str(tmp_path / "out"), "stability.json")["metrics"]["t0"] > 0.0


class TestInteriorDefaults:
    """Unset [stability] t0 and [jacobi] start_t sit strictly inside the slab."""

    @pytest.mark.parametrize(
        "weight, median",
        [("weight = zero", 0.6744897501960817), ("weight = log_power\nparams = 2", None)],
        ids=["zero", "log_power_2"],
    )
    def test_half_plane_runs_from_the_slab_median(self, tmp_path, weight, median):
        from scipy.special import gammaincinv

        # t^2 e^{-t^2/2} on (0, inf) is the chi distribution with 3 degrees of freedom
        median = math.sqrt(2.0 * gammaincinv(1.5, 0.5)) if median is None else median
        cfg = write_cfg(
            tmp_path, f"[density]\n{weight}\nc = 0.5\nslab = 0, inf\n[jacobi]\nmax_length = 0.9\n"
        )
        out = str(tmp_path / "out")
        for command in ("stability", "jacobi"):
            assert main([command, "--config", cfg, "--out", out]) == 0
        resolved = load_config(os.path.join(out, "resolved.cfg"))
        t0 = resolved.value("stability", "t0")
        assert t0 == resolved.value("jacobi", "start_t")
        assert t0 == pytest.approx(median, rel=1e-12)
        assert read_json(out, "stability.json")["metrics"]["t0"] == t0

    def test_zero_inside_the_slab_and_explicit_values_are_kept(self, tmp_path):
        config = load_config(write_cfg(tmp_path, "[density]\nslab = -0.5, 2\n[stability]\nt0 = 0.25\n"))
        assert config.value("stability", "t0") == 0.25
        assert config.value("jacobi", "start_t") == 0.0


class TestStability:
    """The vertical-line check is the exact pencil minimum lambda_1 - 2c."""

    def test_log_power_on_slab_touching_zero(self, tmp_path):
        # a vertical chord node on t = 0 used to evaluate omega'' at 0
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = log_power\nparams = 2\nc = 0.5\nslab = 0, 1\n"
            "[stability]\nt0 = 0.5\n",
        )
        out = str(tmp_path / "out")
        assert main(["stability", "--config", cfg, "--out", out]) == 0
        assert read_json(out, "stability.json")["status"] == "verified"

    def test_whole_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nc = 0.5\nslab = -inf, inf\n")
        out = str(tmp_path / "out")
        assert main(["stability", "--config", cfg, "--out", out]) == 0
        record = read_json(out, "stability.json")
        assert record["status"] == "verified"
        assert abs(record["metrics"]["vertical_index_min"]) <= 1e-6

    def test_convex_weight_has_negative_minimum(self, tmp_path, capsys):
        # omega = 0.4 t^2: the mean-zero u = t already has I_f < 0, which the
        # random sweep never found (it reported +2038)
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = quadratic\nparams = -0.4, 0, 0\nc = 0.5\nslab = -5, 5\n",
        )
        out = str(tmp_path / "out")
        assert main(["stability", "--config", cfg, "--out", out]) == 0
        plain = read_json(out, "stability.json")
        assert plain["status"] == "verified"
        assert plain["metrics"]["vertical_index_min"] == pytest.approx(-0.7704, abs=1e-4)
        assert main(["stability", "--config", cfg, "--out", out, "--expect-bound"]) == 2
        flagged = read_json(out, "stability.json")
        assert flagged["status"] == "violated"
        assert flagged["witness"] == {
            "location": "vertical line, slab-factor eigenfunction",
            "value": plain["metrics"]["vertical_index_min"],
        }
        capsys.readouterr()


class TestWholeLineRun:
    def test_all_verified_when_the_chord_ends_at_tail_cutoffs(self, tmp_path):
        # on R the default tilted straight chord is already optimal; its ends
        # sit at the tail cutoffs, not on walls, so their 1.58 degree angles
        # must not fail the stationarity check
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nc = 0.5\nslab = -inf, inf\n")
        out = str(tmp_path / "out")
        assert main(["all", "--config", cfg, "--out", out]) == 0
        summary = read_json(out, "summary.json")
        assert [r["command"] for r in summary["verdicts"]] == list(ALL_COMMANDS)
        assert all(r["status"] == "verified" for r in summary["verdicts"])
        metrics = read_json(out, "optimize.json")["metrics"]
        assert metrics["hf_spread"] < 1e-10
        assert metrics["angle_bottom_deg"] > 1.0 and metrics["angle_top_deg"] > 1.0


class TestJacobiWallLanding:
    def test_default_shot_that_lands_on_a_wall_converges(self, tmp_path):
        # with every other setting default the shot from (1, 0) reaches t = 1
        # within max_length 8 at every step size, so each curve ends on a wall
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nc = 0.5\nslab = -1, 1\n")
        out = str(tmp_path / "out")
        assert main(["all", "--config", cfg, "--out", out]) == 0
        record = read_json(out, "jacobi.json")
        assert record["status"] == "verified"
        assert len(record["metrics"]["ratios"]) == 2
        assert min(record["metrics"]["ratios"]) >= 3.5


class TestSchemaKeysAreRead:
    def test_every_schema_key_is_read(self, tmp_path, monkeypatch):
        # a knob no subcommand reads does nothing; resolved.cfg echoes every
        # key, so reads made while writing it do not count
        read = set()
        value = RunConfig.value

        def recording(self, section, key):
            if sys._getframe(1).f_code.co_name != "resolved_config_text":
                read.add((section, key))
            return value(self, section, key)

        monkeypatch.setattr(RunConfig, "value", recording)
        for name, cfg in (("gauss", GAUSSIAN_CFG), ("quad", QUADRATIC_CFG)):
            assert main(["all", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        schema = {(section, key) for section, keys in _SCHEMA.items() for key in keys}
        assert schema - read == set()


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["all", "--config", QUADRATIC_CFG, "--out", out]) == 0
        names = sorted(n for n in os.listdir(out_a) if n.endswith(".csv"))
        assert names
        for name in names:
            with open(os.path.join(out_a, name), "rb") as fa:
                blob_a = fa.read()
            with open(os.path.join(out_b, name), "rb") as fb:
                blob_b = fb.read()
            assert blob_a == blob_b, name

    def test_stability_sweep_metric_reproduces(self, tmp_path):
        values = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            assert main(["stability", "--config", GAUSSIAN_CFG, "--out", out]) == 0
            values.append(read_json(out, "stability.json")["metrics"]["vertical_index_min"])
        assert values[0] == values[1]


class TestSubprocessEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        out = str(tmp_path / "out")
        proc = subprocess.run(
            [sys.executable, "-m", "isoflow", "stability", "--config", GAUSSIAN_CFG, "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(out, "stability.json"))
        assert "Traceback" not in proc.stderr

    def test_malformed_config_has_no_traceback(self, tmp_path):
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nslab = 1, -1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "isoflow", "all", "--config", cfg, "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error" in proc.stderr
        # values that parse but that a command cannot run end in its error record
        for command, section in (("jacobi", "[jacobi]\nmax_length = inf\n"),
                                 ("spectrum", "[spectrum]\nn_cells = 0\n")):
            cfg = write_cfg(tmp_path, "[density]\nweight = zero\nslab = -1, 1\n" + section,
                            name=f"{command}.cfg")
            out = tmp_path / command
            proc = subprocess.run(
                [sys.executable, "-m", "isoflow", command, "--config", cfg, "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1, command
            assert "Traceback" not in proc.stderr, command
            assert read_json(str(out), f"{command}_error.json")["status"] == "error"
