"""Command-line front-end: config parsing, verdicts, exit codes, determinism."""

from __future__ import annotations

import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isoflow
import isoflow.cli as cli
import isoflow.spectrum as spectrum
import isoflow.transport as transport
from isoflow.cli import (
    _JACOBI_STEPS, _PROFILE_GRID, _PROFILE_TOLERANCE, _SCHEMA, RunConfig, load_config, main, resolved_config_text,
)
from isoflow.errors import ConfigError
from isoflow.geometry import cmc_shoot
from isoflow.optimize import chord_curve, make_straight_chord, minimize
from isoflow.profiles import Profile, build_profile
from isoflow.spectrum import poincare_certify, spectral_gap_1d
from isoflow.transport import build_transport
from isoflow.weights import total_weighted_volume
from isoflow.weights import CumulativeDensity1D
from test_transport import engine_builds  # noqa: F401 (a fixture)

CONFIG_DIR = Path(isoflow.__file__).parent / "configs"
GAUSSIAN_CFG = str(CONFIG_DIR / "gaussian_slab.cfg")
QUADRATIC_CFG = str(CONFIG_DIR / "quadratic_slab.cfg")

ALL_COMMANDS = ("profile", "transport", "stability", "jacobi", "spectrum", "optimize")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def read_json(out_dir, name):
    """Strict: NaN and Infinity are rejected, so every record read checks its validity."""
    with open(os.path.join(out_dir, name)) as handle:
        return json.load(handle, parse_constant=_reject_constant)


def record_file(verdict):
    """The file name a verdict's record is written under."""
    if verdict["status"] == "error":
        return f"{verdict['command']}_error.json"
    return "compare.json" if verdict["command"] == "profile" else f"{verdict['command']}.json"


def count_pencils(monkeypatch) -> list:
    """The arguments of every spectrum.build_spectral_problem call from now on, one tuple a pencil."""
    built, build = [], spectrum.build_spectral_problem
    monkeypatch.setattr(spectrum, "build_spectral_problem",
                        lambda *args, **kwargs: built.append(args) or build(*args, **kwargs))
    return built


class TestLoadConfig:
    def test_bundled_configs_parse(self):
        for path in (GAUSSIAN_CFG, QUADRATIC_CFG):
            config = load_config(path)
            density = config.density
            assert density.c == 0.5
            assert density.slab == (-1.0, 1.0)

    def test_defaults_fill_missing_sections(self, tmp_path):
        config = load_config(write_cfg(tmp_path, "[density]\nweight = zero\n"))
        assert config.value("run", "expect_bound") is False
        assert config.value("jacobi", "max_length") == 8.0

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, "[density]\nweight = zero\n[turbo]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        # [run] threads was a knob no code path read; [run] seed drew the
        # pushforward intervals the node check replaced; [stability] line_x and
        # n_random drove a random sweep the spectral pencil replaced; [density]
        # dim named a dimension every curve check refused unless it was 2;
        # [transport] require_concave restated [run] expect_bound; the rest set
        # a check's own grid, threshold, search space or budget, which no run varied
        for text in (
            "[density]\nflavor = spicy\n",
            "[density]\ndim = 2\n",
            "[run]\nthreads = 2\n",
            "[run]\nseed = 1\n",
            "[stability]\nn_random = 200\n",
            "[stability]\nline_x = 0.0\n",
            "[profile]\ngrid_size = 257\n",
            "[profile]\ntolerance = 1e-8\n",
            "[transport]\ngrid_size = 2001\n",
            "[transport]\nn_intervals = 50\n",
            "[transport]\ntolerance = 1e-6\n",
            "[stability]\nn_nodes = 4001\n",
            "[stability]\ntolerance = 1e-6\n",
            "[jacobi]\nmin_ratio = 3.5\n",
            "[spectrum]\nn_cells = 2000\n",
            "[optimize]\ngradient_tolerance = 1e-6\n",
            "[jacobi]\nsteps = 0.004, 0.002, 0.001\n",
            "[optimize]\nn_controls = 12\n",
            "[optimize]\nmax_iterations = 400\n",
            "[transport]\nrequire_concave = false\n",
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
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, "[density]\nweight = cubic\n"))

    def test_wrong_arity_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, "[density]\nweight = affine\nparams = 1, 2, 3\n"))

    @pytest.mark.parametrize("text, message", [
        ("[density]\nslab = 1, -1\n", "slab endpoints must satisfy a < b"),
        ("[density]\nweight = piecewise_linear\nparams = 1, 0, 0, 0\n", "knots must be strictly increasing"),
        ("[density]\nweight = log_power\nparams = -1\nslab = 0, 1\n", "density is not integrable"),
    ], ids=["slab", "knots", "integrability"])
    def test_invalid_density_raises_config_error(self, tmp_path, capsys, text, message):
        """The weight's and the Density's own ValueError, and the DomainError
        of a density that cannot be normalized, left load_config unwrapped."""
        cfg = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"^\[density\] {message}"):
            load_config(cfg)
        out = str(tmp_path / "never")
        assert main(["all", "--config", cfg, "--out", out]) == 1
        assert not os.path.exists(out)
        assert f"[density] {message}" in capsys.readouterr().err

    def test_undecodable_config_raises_config_error(self, tmp_path, capsys):
        """A config that is not UTF-8 raised UnicodeDecodeError, a ValueError."""
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"[density]\nweight = zero\n; \xe9t\xe9\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))
        assert main(["all", "--config", str(path), "--out", str(tmp_path / "never")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_an_out_dir_that_is_not_utf8_is_refused(self, tmp_path, capsys):
        """A byte that is not UTF-8 reaches argv as a surrogate escape: the run
        created the directory, raised UnicodeEncodeError writing resolved.cfg
        and left its temporary file behind."""
        out = str(tmp_path / "x") + os.fsdecode(b"\xff") + "y"
        with pytest.raises(ConfigError, match=r"\[run\] out_dir .* is not valid UTF-8"):
            load_config(GAUSSIAN_CFG, out_dir=out)
        assert main(["profile", "--config", GAUSSIAN_CFG, "--out", out]) == 1
        assert os.listdir(tmp_path) == []
        assert "out_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("name, in_file", [
        ("nl\nx = 1", False), ("sp ", False), ("a ;b", False), ("a #b", False), ("cont\n  x", True),
        ("nul\x00x", False), ("nul\x00x", True),
    ], ids=["newline", "trailing-space", "semicolon", "hash", "continuation-line", "nul-byte", "nul-byte-in-file"])
    def test_an_out_dir_that_would_not_read_back_is_refused(self, tmp_path, capsys, name, in_file):
        """resolved.cfg echoes out_dir on one `key = value` line, so a line
        break, an edge space or a ';' or '#' after a space read back as
        another key or a shorter path ("unknown key 'x'", '.../sp',
        '.../a').  Each run exited 0 and wrote that resolved.cfg.  No path
        may hold a NUL byte: that run ended in os.makedirs' ValueError
        "embedded null byte", with a traceback instead of "isoflow: error"."""
        out = str(tmp_path / "run" / name)
        text = "[density]\nweight = zero\n" + (f"[run]\nout_dir = {out}\n" if in_file else "")
        cfg = write_cfg(tmp_path, text)
        out = None if in_file else out
        with pytest.raises(ConfigError, match=r"\[run\] out_dir .* would not read back from resolved\.cfg"):
            load_config(cfg, out_dir=out)
        assert main(["profile", "--config", cfg] + ([] if in_file else ["--out", out])) == 1
        assert os.listdir(tmp_path) == ["run.cfg"]
        assert "would not read back" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a;b", "a#b", "in side", "tab\tin", "=:[%]"])
    def test_an_out_dir_that_reads_back_is_kept(self, tmp_path, name):
        """';' and '#' start a comment only after a space, and inner spaces
        are kept: resolved.cfg loads back as the same run."""
        config = load_config(GAUSSIAN_CFG, out_dir=str(tmp_path / name))
        echoed = write_cfg(tmp_path, resolved_config_text(config), "resolved.cfg")
        assert load_config(echoed).sections == config.sections

    def test_piecewise_weight_built_from_flat_pairs(self, tmp_path):
        config = load_config(
            write_cfg(
                tmp_path,
                "[density]\nweight = piecewise_linear\nparams = -1, 0, 0, 0.3, 1, 0\n",
            )
        )
        density = config.density
        assert density.weight.value(0.0) == pytest.approx(0.3)

    def test_log_power_exponent_kept_fractional(self, tmp_path):
        text = "[density]\nweight = log_power\nparams = 2.5\nslab = 0, inf\n"
        assert load_config(write_cfg(tmp_path, text)).density.weight.m == 2.5

    def test_infinite_slab_literals(self, tmp_path):
        config = load_config(write_cfg(tmp_path, "[density]\nweight = zero\nslab = -inf, inf\n"))
        assert config.density.slab == (-float("inf"), float("inf"))

    def test_resolved_text_roundtrip(self, tmp_path):
        config = load_config(QUADRATIC_CFG)
        echoed = write_cfg(tmp_path, resolved_config_text(config), "resolved.cfg")
        assert load_config(echoed).sections == config.sections

    @pytest.mark.parametrize("in_file", [None, "false", "true"])
    @pytest.mark.parametrize("flag", [False, True])
    def test_the_flag_sets_expect_bound(self, tmp_path, in_file, flag):
        """--expect-bound sets [run] expect_bound; without it the file's value holds."""
        text = "[density]\nweight = zero\n" + (f"[run]\nexpect_bound = {in_file}\n" if in_file else "")
        config = load_config(write_cfg(tmp_path, text), expect_bound=flag)
        assert config.value("run", "expect_bound") is (flag or in_file == "true")
        echoed = write_cfg(tmp_path, resolved_config_text(config), "resolved.cfg")
        assert load_config(echoed).sections == config.sections


@pytest.fixture(scope="module")
def gaussian_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("gauss"))
    code = main(["all", "--config", GAUSSIAN_CFG, "--out", out])
    return code, out


@pytest.fixture(scope="module")
def quadratic_record(tmp_path_factory):
    """The exit code, the output directory and every (section, key) read
    through RunConfig.value.  resolved.cfg echoes every key, so reads made
    while writing it do not count."""
    out = str(tmp_path_factory.mktemp("quad"))
    read = set()
    value = RunConfig.value

    def recording(self, section, key):
        if sys._getframe(1).f_code.co_name != "resolved_config_text":
            read.add((section, key))
        return value(self, section, key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunConfig, "value", recording)
        code = main(["all", "--config", QUADRATIC_CFG, "--out", out])
    return code, out, read


@pytest.fixture(scope="module")
def quadratic_run(quadratic_record):
    code, out, _ = quadratic_record
    return code, out


# sha256 of every CSV `isoflow all` writes for each bundled config, recorded
# with numpy 2.4.6: spectrum.csv passes through BLAS products, whose last bits
# another numpy build may move
GOLDEN_NUMPY = "2.4.6"
GOLDEN_CSV_SHA256 = {
    "gaussian": {
        "chord.csv": "d0c0de66921e69bc52da59a2b598c1eb97ef40a579a109c2385e11c84f06d0e9",
        "jacobi.csv": "495eea3c631527fb1817fbec4886bb5d20d3fb158dc603da3104aa5bdad0a402",
        "jacobi_curve.csv": "1bfc576dbe98cb94a7ecacbba14fd5a63a25453d9f9fb813ef8b14ca07e8fe37",
        "optimize_trace.csv": "c507f526bdf1dfa158e458d9f89d35dcd1ab8fc107d07bf04f316d4d46b3900e",
        "profile_parallel.csv": "8901e38966bfa5831a58484a036542af699673ec8c45bc302d9f89bd634a9ed7",
        "profile_perp.csv": "5df770e52de16a0a6105106fc95e3dba2a69179f0a38d4a564a47273a671eb2e",
        "spectrum.csv": "0a18509d4b515c483d9709b522fe293db08ec25dc75e0b451fb5c631d2857758",
        "transport.csv": "15e3b3bf613b6d10e760ae6522e578c1ed0bfa0d357c5ede8123397d04aede21",
    },
    "quadratic": {
        "chord.csv": "422b5c72ad4497bbc2b37ebeb968b445ab40ceafd5f73e9edc6794b855ef3d43",
        "jacobi.csv": "839263c10f77f4cb01cd588c5062c314396da94f43d38787b9f4c3e750982b2f",
        "jacobi_curve.csv": "04fb30eb18759daf9c4d3bf0586cd2d4e4c94d2e939b49f558bdb8da07261cc7",
        "optimize_trace.csv": "4726869db1fa7e763fd619a98bedb911730c500d781f72667f49feca1b1bcea0",
        "profile_parallel.csv": "d8001fd39161787b99f6ac54fc6749eb25972ad18f122b34a06c29a860c9d6a0",
        "profile_perp.csv": "57e761d38fb316dfcc9583978ff145cce0584d6d08c934c5e25d79e4f015b63c",
        "spectrum.csv": "79aa2a2b988beef16550c786630e25fe6dea6e6521efdffbad2e20c1d7042774",
        "transport.csv": "39cd0bebd96e126c99fbe2032b5b60806131e7fbebbf09ebfd4eee24e4b7f6ff",
    },
}


# sha256 of every JSON record of the same runs, taken over
# json.dumps(record, sort_keys=True) with each wall_time_s dropped, so that a
# moved value, a changed key or a flipped sign of zero moves a digest
GOLDEN_JSON_SHA256 = {
    "gaussian": {
        "compare.json": "634874ba7e4127b93782d167bd08fa941a0fb2f75d8b73f55f8d6bc9d4b1cf3e",
        "jacobi.json": "765c06a980a4f3ba35cc4883ec9b6c08e6d9435e87125f24f80ae11b2b854428",
        "optimize.json": "e5c0f2b3c1f24f4e6b30346742078b51aaadcafe8df66331a7265939539d8b29",
        "spectrum.json": "adaf8a3eccff557580492a0b3cc8397c92edbbd2363d88f9d4da45c87e456246",
        "stability.json": "7ac3e75ff568236ac163da259d0ea2c33451908bf5207e17399d8335e2913831",
        "summary.json": "ef848f19e217e4dbbce8c84670222483b6374165e7f73b88a13ee0b5325a2b28",
        "transport.json": "1b116f97d8196883f4afed01c403c7e12e7e8f4c37ce6a7d427a2e2d0c9d5ee4",
    },
    "quadratic": {
        "compare.json": "907f33fc3ca694c28f188fb68e4ecb5492434c678cd2190ba10eeca28f18658b",
        "jacobi.json": "3b4453170dcefad1b38fdb69d310bbb5eb76ff30f568655a03f2906ac8f88148",
        "optimize.json": "e56d897073e0df5ec926baa751fccccc5c039d10784983ad10bc780b8b4e7007",
        "spectrum.json": "fef21417fe871a54a13c2d1748256caf8ec87b1814834652fd63d0957f63b2ca",
        "stability.json": "5dc91ccdaa5d8f8edb3b3c20ed3359a799efb9f5105605a85c4b761737061c98",
        "summary.json": "197f71c1476c36a81acaa51e5a56181884e883056de93b38e4db405cc1521414",
        "transport.json": "44d91a2d6bfb7b323aa12e2b6d6d4a1ec9cd12749c7d95606f835b004b229b55",
    },
}

golden_numpy = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"digests were recorded with numpy {GOLDEN_NUMPY}, and spectrum.csv and the "
    "spectral records pass through BLAS products")


def csv_digests(out_dir) -> dict:
    return {name: hashlib.sha256(Path(out_dir, name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")}


def json_digests(out_dir) -> dict:
    digests = {}
    for name in sorted(n for n in os.listdir(out_dir) if n.endswith(".json")):
        record = read_json(out_dir, name)
        for verdict in record.get("verdicts", [record]):
            del verdict["wall_time_s"]
        text = json.dumps(record, sort_keys=True)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@golden_numpy
class TestGoldenCsvDigests:
    """Byte-identical CSVs as a check that can fail: a change that moves
    any output bit of either bundled config moves a digest."""

    def test_gaussian_config(self, gaussian_run):
        assert csv_digests(gaussian_run[1]) == GOLDEN_CSV_SHA256["gaussian"]

    def test_quadratic_config(self, quadratic_record):
        assert csv_digests(quadratic_record[1]) == GOLDEN_CSV_SHA256["quadratic"]


@golden_numpy
class TestGoldenJsonDigests:
    """Every verdict record and summary.json of either bundled config,
    apart from its wall times, as recorded at the same commit as the CSVs."""

    def test_gaussian_config(self, gaussian_run):
        assert json_digests(gaussian_run[1]) == GOLDEN_JSON_SHA256["gaussian"]

    def test_quadratic_config(self, quadratic_record):
        assert json_digests(quadratic_record[1]) == GOLDEN_JSON_SHA256["quadratic"]


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

    @pytest.mark.parametrize("command, threshold", [
        ("profile", 1e-8), ("transport", 1e-6), ("stability", 1e-6), ("jacobi", 3.5),
        ("spectrum", 1e-6), ("optimize", 5e-3),
    ])
    def test_a_record_echoes_its_fixed_threshold(self, gaussian_run, command, threshold):
        """No config sets a check's threshold, so every run's record names the same one."""
        _, out = gaussian_run
        verdicts = read_json(out, "summary.json")["verdicts"]
        assert [v["tolerance"] for v in verdicts if v["command"] == command] == [threshold]

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
        assert transport["metrics"]["pushforward_max_residual"] <= 1e-13
        assert transport["metrics"]["pushforward_tolerance"] == 1e-13

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
        original = load_config(GAUSSIAN_CFG, out_dir=out)
        assert resolved.sections == original.sections


# the CSVs of the gaussian run that serialize a library object's arrays, each
# with its header; jacobi.csv, the table of the run's own residuals and their
# ratios, is pinned by its digest
TABLES = {
    "profile_parallel.csv": "s,V,A,v,F,dF,ddF",
    "profile_perp.csv": "s,V,A,v,F,dF,ddF",
    "transport.csv": "s,rho,drho",
    "jacobi_curve.csv": "x,t,Nx,Nt,k",
    "spectrum.csv": "t,w,u1",
    "optimize_trace.csv": "iter,length,area_err,grad_norm",
    "chord.csv": "x,t,Nx,Nt,k",
}


@pytest.fixture(scope="module")
def gaussian_columns() -> dict:
    """Each TABLES file's columns, rebuilt from the library for the gaussian config."""
    config = load_config(GAUSSIAN_CFG)
    d, value = config.density, config.value

    def curve(c):
        return (*c.points.T, *c.normals.T, c.curvature)

    profiles = {kind: build_profile(d, kind, grid_size=_PROFILE_GRID) for kind in ("parallel", "perpendicular")}
    tmap, certificate = build_transport(d), poincare_certify(d)
    shot = cmc_shoot(d, value("jacobi", "target_hf"), (value("jacobi", "start_x"), value("jacobi", "start_t")),
                     value("jacobi", "angle"), step=_JACOBI_STEPS[-1], max_length=value("jacobi", "max_length"))
    final, trace = minimize(make_straight_chord(d, value("optimize", "x_bottom"), value("optimize", "x_top")),
                            value("optimize", "target_fraction") * total_weighted_volume(d))
    columns = {f"profile_{name}.csv": (p.s, p.V, p.A, p.v, p.F, p.dF, p.ddF)
               for name, p in (("parallel", profiles["parallel"]), ("perp", profiles["perpendicular"]))}
    return columns | {
        "transport.csv": (tmap.s, tmap.rho, tmap.drho),
        "jacobi_curve.csv": curve(shot),
        "spectrum.csv": (certificate.problem.nodes, certificate.problem.masses, certificate.eigenvector),
        "optimize_trace.csv": (trace.iterations, trace.lengths, trace.area_errors, trace.gradient_norms),
        "chord.csv": curve(chord_curve(final)),
    }


@pytest.mark.parametrize("name", TABLES)
def test_a_csv_reads_back_as_its_columns(gaussian_run, gaussian_columns, name):
    """Its header, a row per entry, and every cell parsing back to its value bit for bit."""
    header, *rows = Path(gaussian_run[1], name).read_text().splitlines()
    columns = gaussian_columns[name]
    assert header == TABLES[name] and len(header.split(",")) == len(columns)
    assert len(rows) == len(columns[0])
    cells = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    assert np.array_equal(cells.view(np.uint64), np.column_stack(columns).astype(float).view(np.uint64))


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
        assert read_json(out, "spectrum.json")["metrics"]["vertical_index_min"] >= -1e-6

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


class TestLightSlab:
    """On a slab whose weighted volume is near 1e-15 or below, the start
    chord's area error fell under the absolute early exit 1e-15·(1 + target)
    of the area restoration, so the chord was never restored: the descent
    stopped at iteration 0 with the area 40-64% off, the chord enclosed too
    little, and optimize read a false `violated`.  The restoration now runs;
    the absolute gradient stop (ROADMAP item 19) still ends these descents
    at a non-stationary chord, an error."""

    @pytest.mark.parametrize("density, code", [
        ("weight = affine\nparams = -0.5486, -2.8073\nc = 4.935\nslab = 2.9498, inf\n", 1),
        # stability reads a false violated here too (ROADMAP item 10), so only optimize is asserted
        ("weight = log_power\nparams = 0.0791\nc = 4.863\nslab = 2.4993, 6.8019\n", None),
    ], ids=["affine_half_line", "log_power_far_slab"])
    def test_the_start_chord_is_restored_and_optimize_is_not_violated(self, tmp_path, density, code, capsys):
        cfg = write_cfg(tmp_path, f"[density]\n{density}")
        out = str(tmp_path / "out")
        exit_code = main(["all", "--config", cfg, "--out", out])
        verdicts = read_json(out, "summary.json")["verdicts"]
        assert [v["status"] for v in verdicts if v["command"] == "optimize"] == ["error"]
        assert "non-stationary" in read_json(out, "optimize_error.json")["metrics"]["message"]
        if code is not None:
            assert exit_code == code
            assert all(v["status"] != "violated" for v in verdicts)
        volume = total_weighted_volume(load_config(cfg).density)
        with open(os.path.join(out, "optimize_trace.csv"), encoding="utf-8") as handle:
            first = handle.read().splitlines()[1].split(",")
        assert first[0] == "0" and abs(float(first[2])) <= 1e-12 * volume
        capsys.readouterr()


# the convex counterexample ω = 0.2t² on ℝ: its descent stalls, an error
CONVEX_DENSITY = "[density]\nweight = quadratic\nparams = -0.2, 0, 0\nc = 0.5\nslab = -inf, inf\n"


@pytest.fixture(scope="module")
def convex_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("convex")
    out = str(root / "out")
    code = main(["all", "--config", write_cfg(root, CONVEX_DENSITY), "--out", out, "--expect-bound"])
    return code, out


class TestRunRecords:
    def test_every_verdict_reports_its_wall_time(self, convex_run):
        """The optimize error ran hundreds of descent steps; its record read 0.0."""
        code, out = convex_run
        assert code == 2
        verdicts = read_json(out, "summary.json")["verdicts"]
        assert [v["command"] for v in verdicts] == list(ALL_COMMANDS)
        assert [v["status"] for v in verdicts if v["command"] == "optimize"] == ["error"]
        assert all(v["wall_time_s"] > 0.0 for v in verdicts)
        assert read_json(out, "optimize_error.json")["wall_time_s"] == verdicts[-1]["wall_time_s"]

    def test_an_error_record_has_a_null_tolerance(self, convex_run):
        _, out = convex_run
        record = read_json(out, "optimize_error.json")
        assert record["status"] == "error"
        assert "tolerance" in record and record["tolerance"] is None

    @pytest.mark.parametrize("error_last", [True, False], ids=["verified_then_error", "error_then_verified"])
    def test_a_reused_directory_describes_only_its_last_run(self, tmp_path, error_last, capsys):
        """Each stage keeps one record file, and chord.csv only from a converged descent."""
        runs = [GAUSSIAN_CFG, write_cfg(tmp_path, CONVEX_DENSITY)]
        if not error_last:
            runs.reverse()
        out = tmp_path / "out"
        for cfg in runs:
            main(["all", "--config", cfg, "--out", str(out)])
        verdicts = read_json(out, "summary.json")["verdicts"]
        optimize = [v["status"] for v in verdicts if v["command"] == "optimize"]
        assert optimize == (["error"] if error_last else ["verified"])
        records = {p.name for p in out.glob("*.json")}
        assert records == {"summary.json"} | {record_file(v) for v in verdicts}
        assert (out / "chord.csv").exists() == (not error_last)
        capsys.readouterr()


    def test_a_run_of_another_configuration_clears_the_directory(self, tmp_path, capsys):
        """`all` on gaussian_slab, then a failing `profile` of a piecewise
        density into the same directory: the first run's CSVs, its other
        records and a summary whose profile read `verified` stayed next to
        the piecewise run's resolved.cfg.  Files isoflow does not name stay."""
        out = tmp_path / "out"
        assert main(["all", "--config", GAUSSIAN_CFG, "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
        cfg = write_cfg(tmp_path, "[density]\nweight = piecewise_linear\nparams = -1, 0, 0, 0.3, 1, 0\n")
        assert main(["profile", "--config", cfg, "--out", str(out)]) == 1
        assert {p.name for p in out.iterdir()} == {"resolved.cfg", "profile_error.json", "notes.txt"}
        assert read_json(out, "profile_error.json")["status"] == "error"
        assert load_config(str(out / "resolved.cfg")).value("density", "weight") == "piecewise_linear"
        capsys.readouterr()

    def test_an_undecodable_resolved_cfg_is_another_configuration(self, tmp_path, capsys):
        """A leftover resolved.cfg that is not UTF-8 raised UnicodeDecodeError
        out of main.  It now counts as another configuration."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "resolved.cfg").write_bytes(b"\xff\xfe\x00bad")
        for name in ("transport.json", "summary.json", "notes.txt"):
            (out / name).write_text("{}\n")
        assert main(["profile", "--config", GAUSSIAN_CFG, "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        assert files == {"resolved.cfg", "profile_parallel.csv", "profile_perp.csv", "compare.json", "notes.txt"}
        assert (out / "resolved.cfg").read_text(encoding="utf-8") == resolved_config_text(
            load_config(GAUSSIAN_CFG, out_dir=str(out)))
        assert "Traceback" not in capsys.readouterr().err

    def test_expect_bound_is_part_of_the_configuration(self, tmp_path, capsys):
        """`all` without --expect-bound, then `spectrum` with it: the flag was
        not in resolved.cfg, so the directory looked unchanged and kept the
        other stages' records, written without the flag."""
        cfg = write_cfg(tmp_path, CONVEX_DENSITY)
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 2
        assert read_json(out, "spectrum.json")["status"] == "verified"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--expect-bound"]) == 2
        assert {p.name for p in out.iterdir()} == {"resolved.cfg", "spectrum.json", "spectrum.csv"}
        assert read_json(out, "spectrum.json")["status"] == "violated"
        assert "\nexpect_bound = true\n" in (out / "resolved.cfg").read_text()
        assert load_config(str(out / "resolved.cfg")).value("run", "expect_bound") is True
        assert main(["spectrum", "--config", str(out / "resolved.cfg"), "--out", str(out)]) == 2
        capsys.readouterr()


class TestUnconvergedDescent:
    def test_the_error_names_the_descent_status(self, tmp_path, capsys):
        """The convex counterexample ω = 0.2t² on ℝ: the descent reaches the
        parallel cut's length but its projected gradient stays above the
        tolerance.  The record names that status, not a failure to resample
        the unconverged chord, and only the trace is written."""
        cfg = write_cfg(tmp_path, CONVEX_DENSITY)
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out), "--expect-bound"]) == 1
        message = read_json(out, "optimize_error.json")["metrics"]["message"]
        assert "'stalled'" in message or "'max_iterations'" in message
        assert "did not converge" in capsys.readouterr().err
        assert (out / "optimize_trace.csv").exists()
        assert not (out / "chord.csv").exists()

    def test_a_non_finite_shape_gradient_is_named_in_the_record(self, tmp_path, capsys):
        """log_power -0.5 on (0, 3): f is +inf on the wall t = 0, so the shape
        gradient's first entry is -inf.  The multiplier subtracted it, a
        RuntimeWarning on stderr, and the record read LAPACK's "Eigenvalues did
        not converge"; the record now names the gradient."""
        cfg = write_cfg(tmp_path, "[density]\nweight = log_power\nparams = -0.5\nslab = 0, 3\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 1
        message = read_json(out, "optimize_error.json")["metrics"]["message"]
        assert message == "shape gradient is not finite: dP/dx_0 = -inf"
        assert message in capsys.readouterr().err
        assert not (out / "optimize_trace.csv").exists()


# the convex omega = 0.2 t^2 on R, checked by transport and stability
CONVEX_LINE = "[density]\nweight = quadratic\nparams = -0.2, 0, 0\nslab = -inf, inf\n"


class TestNonConcaveTransport:
    """[run] expect_bound is the one switch that admits a non-concave
    weight: transport refuses it without the flag, as spectrum reports its
    gap without judging it."""

    def test_the_convex_weight_is_an_error_without_the_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["transport", "--config", write_cfg(tmp_path, CONVEX_LINE), "--out", str(out)]) == 1
        message = read_json(out, "transport_error.json")["metrics"]["message"]
        assert "requires a concave weight" in message and "--expect-bound" in message
        assert not (out / "transport.csv").exists()
        assert "kappa=-0.2 < 0" in capsys.readouterr().err

    def test_the_flag_judges_the_convex_map(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, CONVEX_LINE)
        assert main(["transport", "--config", cfg, "--out", str(out), "--expect-bound"]) == 2
        record = read_json(out, "transport.json")
        assert record["status"] == "violated"
        assert record["metrics"]["max_derivative"] == pytest.approx(1.0 / math.sqrt(0.6), rel=1e-9)
        assert (out / "transport.csv").exists()


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
            ("[density]\nweight = zero\nc = nan\n", "[density] c"),
            ("[density]\nweight = quadratic\nparams = -0.3, nan, 0\n", "[density] params"),
            ("[density]\nweight = zero\n[stability]\nt0 = nan\n", "[stability] t0"),
            ("[density]\nweight = zero\n[jacobi]\ntarget_hf = nan\n", "[jacobi] target_hf"),
            ("[density]\nweight = zero\n[jacobi]\nangle = nan\n", "[jacobi] angle"),
            ("[density]\nweight = zero\n[jacobi]\nstart_x = nan\n", "[jacobi] start_x"),
            ("[density]\nweight = zero\n[jacobi]\nstart_t = nan\n", "[jacobi] start_t"),
            ("[density]\nweight = zero\n[jacobi]\nmax_length = nan\n", "[jacobi] max_length"),
            ("[density]\nweight = zero\n[optimize]\ntarget_fraction = nan\n",
             "[optimize] target_fraction"),
            ("[density]\nweight = zero\n[optimize]\nx_bottom = nan\n", "[optimize] x_bottom"),
            ("[density]\nweight = zero\n[optimize]\nx_top = nan\n", "[optimize] x_top"),
        ],
        ids=["density_c", "density_params", "stability_t0", "jacobi_target_hf",
             "jacobi_angle", "jacobi_start_x", "jacobi_start_t", "jacobi_max_length", "optimize_target_fraction",
             "optimize_x_bottom", "optimize_x_top"],
    )
    def test_nan_setting_exits_one_at_load(self, tmp_path, capsys, text, key):
        """No setting may be NaN: the run exits 1 at load, names the key and writes nothing."""
        out = str(tmp_path / "never")
        assert main(["all", "--config", write_cfg(tmp_path, text), "--out", out]) == 1
        assert not os.path.exists(out)
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("[density]\nweight = piecewise_linear\nparams = -1, 0, 0, 1, 1\n", "must be knot/value pairs"),
            ("[density]\nweight = zero\nslab = 1\n", "slab must be two endpoints"),
            ("[density]\nweight = zero\nslab = -1, 0, 1\n", "slab must be two endpoints"),
            ("[density]\nweight = zero\n[density]\nc = 1\n", "section 'density' already exists"),
            ("weight = zero\n[density]\n", "no section headers"),
        ],
        ids=["piecewise_linear_odd_params", "slab_one_end", "slab_three_ends", "repeated_section",
             "key_before_any_section"],
    )
    def test_a_malformed_density_or_file_exits_one_at_load(self, tmp_path, capsys, text, problem):
        """The run exits 1 at load, names the problem and writes nothing."""
        out = str(tmp_path / "never")
        assert main(["all", "--config", write_cfg(tmp_path, text), "--out", out]) == 1
        assert not os.path.exists(out)
        assert problem in capsys.readouterr().err

    def test_the_first_bad_setting_in_schema_order_is_named(self, tmp_path):
        """A setting's range is checked as its key is read, so a Jacobi
        max_length below a step is named before an unparsable [optimize]
        target_fraction."""
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\n[jacobi]\nmax_length = 0.003\n"
                                  "[optimize]\ntarget_fraction = many\n")
        with pytest.raises(ConfigError, match=r"\[jacobi\] max_length = 0\.003 must lie in \[0\.008, 5000\.0\]"):
            load_config(cfg)

    @pytest.mark.parametrize("max_length", ["-1", "0.003", "0.0041", "1e7"])
    def test_a_max_length_no_jacobi_step_can_use_exits_one_at_load(self, tmp_path, capsys, max_length):
        """Each passed load, wrote resolved.cfg and jacobi_error.json, and
        exited 1 from cmc_shoot: a length not above the coarsest step, one
        step of it (three nodes are needed), or more than 5e6 of the finest."""
        out = str(tmp_path / "never")
        cfg = write_cfg(tmp_path, f"[density]\nweight = zero\n[jacobi]\nmax_length = {max_length}\n")
        with pytest.raises(ConfigError, match=r"\[jacobi\] max_length"):
            load_config(cfg)
        assert main(["jacobi", "--config", cfg, "--out", out]) == 1
        assert not os.path.exists(out)
        assert "[jacobi] max_length" in capsys.readouterr().err

    @pytest.mark.parametrize("max_length", ["0.008", "5000"])
    def test_the_ends_of_the_max_length_range_run(self, tmp_path, max_length):
        """Two coarsest steps and 5e6 finest ones are both shot: the zero
        weight's line from (1, 0) at 1 rad meets the wall long before 5000."""
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, f"[density]\nweight = zero\n[jacobi]\nmax_length = {max_length}\n")
        assert main(["jacobi", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out, "jacobi.json")["status"] == "verified"

    def test_jacobi_steps_are_not_a_setting(self, tmp_path, capsys):
        """The gaussian_slab section with steps 1e-4 and 5e-5 read residual
        ratio 0.265, a false `violated` and exit 2: second differences at
        rounding.  The steps are the check's own grid."""
        text = ("[density]\nweight = zero\nc = 0.5\nslab = -1, 1\n[jacobi]\ntarget_hf = 0.0\n"
                "start_x = 1.0\nstart_t = 0.0\nangle = 1.0\nsteps = 0.0001, 0.00005\nmax_length = 0.9\n")
        out = str(tmp_path / "never")
        assert main(["jacobi", "--config", write_cfg(tmp_path, text), "--out", out]) == 1
        assert not os.path.exists(out)
        assert "unknown key 'steps' in section [jacobi]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("optimize", "target_fraction", "0"),
            ("optimize", "target_fraction", "1"),
            ("optimize", "x_bottom", "inf"),
            ("jacobi", "angle", "inf"),
            ("jacobi", "target_hf", "inf"),
            ("jacobi", "start_x", "inf"),
            ("jacobi", "max_length", "inf"),
            ("density", "params", "-inf"),
            ("density", "slab", "-1, nan"),
            ("density", "weight", "cubic"),
            ("stability", "t0", "1.0"),
            ("stability", "t0", "3"),
            ("jacobi", "start_t", "-2"),
        ],
    )
    def test_unusable_setting_exits_one_at_load(self, tmp_path, capsys, section, key, value):
        """Most of these ended in a stage error after 14-16 files were
        written: each size, fraction, infinite setting, and height on or
        outside a wall of the slab."""
        out = str(tmp_path / "never")
        cfg = write_cfg(tmp_path, f"[{section}]\n{key} = {value}\n")  # the zero weight by default
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            load_config(cfg)
        assert main(["all", "--config", cfg, "--out", out]) == 1
        assert not os.path.exists(out)
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("check, loosened, command, flags, named", [
        ("[density]\nweight = quadratic\nparams = -0.3, 0, 0\n", "[profile]\ntolerance = 1e300\n",
         "profile", [], "section [profile]"),
        (CONVEX_LINE, "[transport]\ntolerance = 1e300\n",
         "transport", ["--expect-bound"], "section [transport]"),
        (CONVEX_LINE, "[spectrum]\ntolerance = 1e300\n",
         "spectrum", ["--expect-bound"], "section [spectrum]"),
    ], ids=["profile", "transport", "spectrum"])
    def test_a_config_cannot_loosen_a_check(self, tmp_path, capsys, check, loosened, command, flags,
                                            named):
        """Each check fails on its density: omega = 0.3 t^2 on the slab; the
        convex omega = 0.2 t^2 on R, with rho' 1.29 and vertical index minimum
        -0.4.  Each loosened setting read verified and exited 0."""
        out = str(tmp_path / "out")
        assert main([command, "--config", write_cfg(tmp_path, check), "--out", out, *flags]) == 2
        never = str(tmp_path / "never")
        cfg = write_cfg(tmp_path, check + loosened, name="loosened.cfg")
        assert main([command, "--config", cfg, "--out", never, *flags]) == 1
        assert not os.path.exists(never)
        assert named in capsys.readouterr().err

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
        assert plain["metrics"]["vertical_index_min"] < -plain["tolerance"]
        assert main(["spectrum", "--config", cfg, "--out", out, "--expect-bound"]) == 2
        flagged = read_json(out, "spectrum.json")
        assert flagged["status"] == "violated"
        assert flagged["witness"] == {
            "location": "vertical line, slab-factor eigenfunction",
            "value": plain["metrics"]["vertical_index_min"],
        }
        capsys.readouterr()

    def test_violation_dominates_in_summary(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = quadratic\nparams = -4, 0, 0\nc = 0.5\nslab = -1, 1\n",
        )
        out = str(tmp_path / "out")
        code = main(["all", "--config", cfg, "--out", out, "--expect-bound"])
        assert code in (1, 2)
        summary = read_json(out, "summary.json")
        statuses = {r["command"]: r["status"] for r in summary["verdicts"]}
        assert statuses["spectrum"] == "violated"
        capsys.readouterr()


class TestAtomicWrite:
    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys, step):
        """A full disk left resolved.cfg.tmp.<pid> in the output directory."""

        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class FullFile(io.FileIO):
            write = full_disk

        def opener(path, mode="r", **kwargs):
            if "w" not in mode:
                return open(path, mode, **kwargs)
            return io.TextIOWrapper(io.BufferedWriter(FullFile(path, "w")), **kwargs)

        if step == "write":
            monkeypatch.setattr(cli, "open", opener, raising=False)
        else:
            monkeypatch.setattr(cli.os, "replace", full_disk)
        out = tmp_path / "out"
        assert main(["profile", "--config", GAUSSIAN_CFG, "--out", str(out)]) == 1
        assert "io error" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_a_failed_summary_write_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        """A full disk at summary.json escaped main as a traceback."""
        write = cli._atomic_write

        def full_at_summary(config, filename, text):
            if filename == "summary.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write(config, filename, text)

        monkeypatch.setattr(cli, "_atomic_write", full_at_summary)
        out = tmp_path / "out"
        assert main(["all", "--config", GAUSSIAN_CFG, "--out", str(out)]) == 1
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert capsys.readouterr().err == f"isoflow: io error: {full}\n"
        assert not (out / "summary.json").exists()
        assert (out / "optimize.json").exists()

    def test_a_failed_stage_write_is_an_io_error_that_names_its_stage(self, tmp_path, monkeypatch, capsys):
        write = cli._atomic_write
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full_at_transport(config, filename, text):
            if filename == "transport.csv":
                raise full
            write(config, filename, text)

        monkeypatch.setattr(cli, "_atomic_write", full_at_transport)
        out = tmp_path / "out"
        assert main(["all", "--config", GAUSSIAN_CFG, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"isoflow: transport: io error: {full}\n"
        assert (out / "compare.json").exists()


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
            "angle = 1.5707963267948966\nmax_length = 0.9\n",
        )
        out = tmp_path / "out"
        assert main(["jacobi", "--config", cfg, "--out", str(out)]) == 0
        record = read_json(out, "jacobi.json")
        assert max(record["metrics"]["max_residuals"]) <= 1e-9
        # zero residuals at every step: each ratio is inf, null in the strict JSON
        assert record["metrics"]["ratios"] == [None, None]
        assert (out / "jacobi.csv").read_text().splitlines()[-1] == "0.001,0.0,inf"

    def test_spectrum_solves_the_pencil_once(self, tmp_path, monkeypatch):
        built = count_pencils(monkeypatch)
        assert main(["spectrum", "--config", GAUSSIAN_CFG, "--out", str(tmp_path)]) == 0
        assert len(built) == 1


class TestProfileWitness:
    def test_a_failed_perpendicular_equality_is_its_own_witness(self, tmp_path, monkeypatch):
        """The witness of a perpendicular ODE defect below -tol was the
        parallel family's defect, which passed."""
        build = cli.build_profile

        def perpendicular_f_scaled(density, family, *args, **kwargs):
            p = build(density, family, *args, **kwargs)
            if family != "perpendicular":
                return p
            return Profile(p.s, p.V, p.A, p.v, p.F * (1.0 + 1e-3), p.dF, p.ddF, p.v_total)

        monkeypatch.setattr(cli, "build_profile", perpendicular_f_scaled)
        out = str(tmp_path / "out")
        assert main(["profile", "--config", GAUSSIAN_CFG, "--out", out]) == 2
        record = read_json(out, "compare.json")
        metrics = record["metrics"]
        assert (record["status"], metrics["perpendicular_ode"], metrics["parallel_ode"]) == (
            "violated", "inequality", "equality")
        assert metrics["perpendicular_max_defect"] < -_PROFILE_TOLERANCE
        assert record["witness"] == {"location": None, "value": metrics["perpendicular_max_defect"]}


class TestOnePencilPerRun:
    @pytest.mark.parametrize(
        "text, pencils",
        [
            (None, 1),
            ("[density]\nweight = zero\nc = 0.5\nslab = -inf, inf\n[jacobi]\nmax_length = 0.9\n", 2),
        ],
        ids=["gaussian_slab", "zero_on_R"],
    )
    def test_only_spectrum_solves_the_pencil(self, tmp_path, monkeypatch, text, pencils):
        # an infinite slab adds the 1.25x wider truncation check, once;
        # stability judges the parallel half-space alone and solves none
        built = count_pencils(monkeypatch)
        cfg = GAUSSIAN_CFG if text is None else write_cfg(tmp_path, text)
        main(["all", "--config", cfg, "--out", str(tmp_path / "out")])
        assert len(built) == pencils
        verdicts = read_json(str(tmp_path / "out"), "summary.json")["verdicts"]
        assert [v["command"] for v in verdicts] == list(ALL_COMMANDS)
        assert main(["stability", "--config", cfg, "--out", str(tmp_path / "alone")]) == 0
        assert len(built) == pencils


class TestRunContext:
    """The resolved RunConfig carries the run: its density belongs to it,
    and spectrum certifies that density."""

    def test_each_run_certifies_its_own_density(self, tmp_path):
        lambdas = []
        for cfg in (GAUSSIAN_CFG, QUADRATIC_CFG):
            out = str(tmp_path / Path(cfg).stem)
            assert main(["all", "--config", cfg, "--out", out]) == 0
            config = load_config(cfg)
            fresh = poincare_certify(config.density)
            lambdas.append(read_json(out, "spectrum.json")["metrics"]["lambda"])
            assert lambdas[-1] == fresh.lambda_value
        assert lambdas[0] != lambdas[1]


class TestOneEnginePerRun:
    def test_all_builds_the_slab_factor_engine_once(self, tmp_path, engine_builds):
        """Profiles, transport and the optimizer's target area share the run
        density's one engine; the other build is the transport source line's."""
        assert main(["all", "--config", GAUSSIAN_CFG, "--out", str(tmp_path / "out")]) == 0
        assert len(engine_builds) == 2
        assert engine_builds[0].slab == (-1.0, 1.0) and engine_builds[1] is transport._source_grid(0.5)[0]

    def test_an_unset_height_reuses_the_run_density(self, tmp_path, engine_builds):
        """The slab-factor median that fills an unset height comes from the
        run's one Density, so its engine is built once, not twice."""
        cfg = write_cfg(tmp_path, "[density]\nweight = log_power\nparams = 2\nc = 0.5\nslab = 0, inf\n"
                        "[jacobi]\nmax_length = 0.9\n")
        main(["all", "--config", cfg, "--out", str(tmp_path / "out")])
        assert len(engine_builds) == 2
        assert engine_builds[0].slab == (0.0, math.inf) and engine_builds[1] is transport._source_grid(0.5)[0]
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

    def test_a_median_that_rounds_onto_a_wall_is_refused_at_load(self, tmp_path, capsys):
        """log_power -0.9999, c = 1/2 on (0, 1): the slab factor's mass up to t
        grows as t^1e-4, so its median 2^-10000 underflows to exactly 0.0.  The
        run wrote t0 = start_t = 0.0 into resolved.cfg, which did not read back."""
        cfg = write_cfg(tmp_path, "[density]\nweight = log_power\nparams = -0.9999\nc = 0.5\nslab = 0, 1\n")
        with pytest.raises(ConfigError, match=r"\[stability\] t0 = 0\.0 \(unset, so the slab factor's median\) "
                                              r"must lie strictly inside the slab \(0\.0, 1\.0\)"):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count("isoflow: error:") == 1


class TestStability:
    """stability judges the parallel half-space; spectrum judges vertical
    lines by the exact pencil minimum lambda_1 - 2c."""

    def test_log_power_on_slab_touching_zero(self, tmp_path):
        # a vertical chord node on t = 0 used to evaluate omega'' at 0
        cfg = write_cfg(
            tmp_path,
            "[density]\nweight = log_power\nparams = 2\nc = 0.5\nslab = 0, 1\n"
            "[stability]\nt0 = 0.5\n",
        )
        out = str(tmp_path / "out")
        for command in ("stability", "spectrum"):
            assert main([command, "--config", cfg, "--out", out]) == 0
            assert read_json(out, f"{command}.json")["status"] == "verified"

    def test_whole_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nc = 0.5\nslab = -inf, inf\n")
        out = str(tmp_path / "out")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        record = read_json(out, "spectrum.json")
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
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        plain = read_json(out, "spectrum.json")
        assert plain["status"] == "verified"
        assert plain["metrics"]["vertical_index_min"] == pytest.approx(-0.7704, abs=1e-4)
        assert main(["spectrum", "--config", cfg, "--out", out, "--expect-bound"]) == 2
        flagged = read_json(out, "spectrum.json")
        assert flagged["status"] == "violated"
        assert flagged["witness"] == {
            "location": "vertical line, slab-factor eigenfunction",
            "value": plain["metrics"]["vertical_index_min"],
        }
        capsys.readouterr()


class TestOneOwnerOfTheVerticalLine:
    """spectrum alone judges lambda_1 - 2c >= -tolerance on vertical lines.
    stability used to judge the same number with a slack of 1e-6 and
    spectrum with 2c * 5e-3, so the two verdicts could disagree."""

    def test_a_nearly_gaussian_convex_weight_fails_spectrum_alone(self, tmp_path, capsys):
        # kappa = -0.002 flattens c = 1/2 to 0.498: lambda_1 = 0.996, 2c = 1.
        # spectrum read verified against 2c (1 - 5e-3) = 0.995, stability violated
        cfg = write_cfg(tmp_path, "[density]\nweight = quadratic\nparams = -0.002, 0, 0\nc = 0.5\n"
                        "slab = -inf, inf\n")
        out = str(tmp_path / "out")
        assert main(["spectrum", "--config", cfg, "--out", out, "--expect-bound"]) == 2
        record = read_json(out, "spectrum.json")
        assert record["status"] == "violated"
        assert record["witness"]["value"] == pytest.approx(-0.004, abs=1e-6)
        assert main(["stability", "--config", cfg, "--out", out, "--expect-bound"]) == 0
        assert read_json(out, "stability.json")["status"] == "verified"
        capsys.readouterr()

    def test_a_gap_just_below_2c_violates_on_a_concave_weight(self, tmp_path, monkeypatch):
        """A planted gap of 2c - 2e-6 on the bundled Gaussian slab: the
        concave weight needs no flag, and only spectrum reads the gap."""
        c = load_config(GAUSSIAN_CFG).density.c

        def planted(problem):
            _, eigenvector = spectral_gap_1d(problem)
            return 2.0 * c - 2e-6, eigenvector

        monkeypatch.setattr("isoflow.spectrum.spectral_gap_1d", planted)
        out = str(tmp_path / "out")
        assert main(["all", "--config", GAUSSIAN_CFG, "--out", out]) == 2
        statuses = {v["command"]: v["status"] for v in read_json(out, "summary.json")["verdicts"]}
        assert statuses == {**dict.fromkeys(ALL_COMMANDS, "verified"), "spectrum": "violated"}
        record = read_json(out, "spectrum.json")
        assert record["witness"]["value"] == pytest.approx(-2e-6, rel=1e-9)
        assert record["metrics"]["hyperplane_gap"] == record["metrics"]["lambda"]


class TestTransportReadsItsMap:
    @pytest.mark.parametrize("cfg", [GAUSSIAN_CFG, QUADRATIC_CFG], ids=["gaussian", "quadratic"])
    def test_a_scaled_engine_quantile_violates_transport_alone(self, tmp_path, monkeypatch, cfg):
        """An engine quantile 1e-6 too large moves the map rho and nothing
        the other stages judge.  The random pushforward intervals never
        read rho, so both configs exited 0 with every verdict verified."""
        quantile = CumulativeDensity1D.quantile
        monkeypatch.setattr(CumulativeDensity1D, "quantile",
                            lambda self, *args: quantile(self, *args) * (1.0 + 1e-6))
        out = str(tmp_path / "out")
        assert main(["all", "--config", cfg, "--out", out]) == 2
        statuses = {v["command"]: v["status"] for v in read_json(out, "summary.json")["verdicts"]}
        assert statuses == {**dict.fromkeys(ALL_COMMANDS, "verified"), "transport": "violated"}
        record = read_json(out, "transport.json")
        assert record["metrics"]["contraction_certified"] is True
        s = np.loadtxt(os.path.join(out, "transport.csv"), delimiter=",", skiprows=1)[:, 0]
        assert record["witness"]["location"] in s


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


def far_quadratic_cfg(tmp_path, a: str) -> str:
    """omega = -t^2, c = 1/2 on (a, inf): all of the slab lies beyond the
    exact square's Gaussian cutoff (6.24) when a >= 6."""
    return write_cfg(tmp_path, f"[density]\nweight = quadratic\nparams = 1, 0, 0\nc = 0.5\nslab = {a}, inf\n")


class TestOneTailRule:
    @pytest.mark.parametrize("a", ["5", "6", "7"])
    def test_spectrum_verifies_on_a_far_one_sided_slab(self, tmp_path, a):
        """The pencil's cut lies inside the slab: (5, inf) and (6, inf) ended
        spectrum in error ("empty computational interval"), and (7, inf) was
        refused at load."""
        out = str(tmp_path / "out")
        assert main(["spectrum", "--config", far_quadratic_cfg(tmp_path, a), "--out", out]) == 0
        record = read_json(out, "spectrum.json")
        assert record["status"] == "verified"
        assert record["metrics"]["lambda"] > 1.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: stability gates its witness at an absolute "
                       "-1e-6, below any index form value on a far slab")
    @pytest.mark.parametrize("a", ["5", "7"])
    def test_stability_on_a_far_slab_reads_its_exact_witness(self, tmp_path, a):
        """The witness equals its closed form omega''(t0) e^{omega(t0) - c t0^2}
        sqrt(pi/c) / (2c), -1.3e-16 at t0 = 5.045 on (5, inf), and is judged
        unstable; the absolute tolerance reads it as violated."""
        out = str(tmp_path / "out")
        code = main(["stability", "--config", far_quadratic_cfg(tmp_path, a), "--out", out])
        record = read_json(out, "stability.json")
        t0, c = record["metrics"]["t0"], 0.5
        exact = -2.0 * math.exp(-t0 * t0 - c * t0 * t0) * math.sqrt(math.pi / c) / (2.0 * c)
        assert record["witness"]["value"] == pytest.approx(exact, rel=1e-6, abs=0.0)
        assert record["metrics"]["parallel_verdict"] == "unstable"
        assert (code, record["status"]) == (0, "verified")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: stability gates its witness at an absolute "
                       "-1e-6, below a barely concave weight's witness")
    def test_stability_on_a_barely_concave_weight_reads_its_exact_witness(self, tmp_path):
        """omega = -1e-7 t^2, c = 1/2 on (-1, 1) is concave.  Its witness at
        t0 = 0 equals its closed form omega'' sqrt(pi/c) / (2c) = -2e-7 sqrt(2 pi),
        -5.01e-7, and is judged unstable; the absolute tolerance reads it as
        violated, and the run exits 2."""
        cfg = write_cfg(tmp_path, "[density]\nweight = quadratic\nparams = 1e-7, 0, 0\nc = 0.5\nslab = -1, 1\n")
        out = str(tmp_path / "out")
        code = main(["stability", "--config", cfg, "--out", out])
        record = read_json(out, "stability.json")
        assert record["metrics"]["witness_index_value"] == pytest.approx(-2e-7 * math.sqrt(2.0 * math.pi), rel=1e-6,
                                                                         abs=0.0)
        assert record["metrics"]["parallel_verdict"] == "unstable"
        assert (code, record["status"]) == (0, "verified")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: stability reads the sign of a rounding-level "
                       "witness, not its closed form")
    def test_stability_on_a_rounding_level_weight_reads_its_exact_witness(self, tmp_path):
        """omega = 1e-300 log t, c = 1/2 on (0, 1) is concave, with
        omega''(t0) = -5.1e-300 at t0 = 0.4418.  Its witness should equal the
        closed form omega''(t0) e^{omega(t0) - c t0^2} sqrt(pi/c) / (2c); it
        reads +4.4e-16, rounding noise of the wrong sign, and the run exits 2."""
        cfg = write_cfg(tmp_path, "[density]\nweight = log_power\nparams = 1e-300\nc = 0.5\nslab = 0, 1\n")
        out = str(tmp_path / "out")
        code = main(["stability", "--config", cfg, "--out", out])
        record = read_json(out, "stability.json")
        t0, m, c = record["metrics"]["t0"], 1e-300, 0.5
        exact = -m / (t0 * t0) * math.exp(m * math.log(t0) - c * t0 * t0) * math.sqrt(math.pi / c) / (2.0 * c)
        assert record["metrics"]["witness_index_value"] == pytest.approx(exact, rel=1e-6, abs=0.0)  # the witness is of order 1e-299
        assert record["metrics"]["parallel_verdict"] == "unstable"
        assert (code, record["status"]) == (0, "verified")

    def test_a_slab_too_wide_for_the_engine_exits_1_at_load(self, tmp_path, capsys):
        """Zero weight, c = 1: on (-1e4, 1e4) a panel spans 47 Gaussian widths.
        The run exited 2 with profile, transport and optimize violated and
        spectrum in error; it is now refused before anything is written.  On
        (-600, 600), 2.8 widths, it loads."""
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nc = 1\nslab = -1e4, 1e4\n")
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "too wide" in err and "infinite" in err
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nc = 1\nslab = -600, 600\n", "wide.cfg")
        assert load_config(cfg).density.slab == (-600.0, 600.0)

    def test_a_half_infinite_slab_too_wide_for_the_engine_exits_1_at_load(self, tmp_path, capsys):
        """Zero weight, c = 1/2 on (-1e4, inf) is cut to (-1e4, 10.88), so a
        panel spans 16.7 Gaussian widths and the engine total was off by
        -9.67e-3 relative.  The refusal names the cut, and asks for no
        infinite side, which the slab already has."""
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nc = 0.5\nslab = -1e4, inf\n")
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "too wide" in err and "cut to (-10000.0, 10.88" in err and "infinite" not in err

    def test_a_slab_whose_mass_underflows_exits_1_at_load(self, tmp_path, capsys):
        """Zero weight, c = 1/2 on (40, inf): the slab factor underflows to 0.
        The run ended in a ZeroDivisionError traceback."""
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nc = 0.5\nslab = 40, inf\n")
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert "slab mass 0.0: " in capsys.readouterr().err

    @pytest.mark.parametrize("density", [
        "weight = affine\nparams = 0, 800\nslab = -1, 1\n",
        "weight = affine\nparams = 0, 709\nslab = -1, 1\n",
        "weight = affine\nparams = 1e10\nslab = -1, 1\n",
        "weight = quadratic\nparams = 0, 0, -800\nslab = -1, 1\n",
        "weight = zero\nslab = 40, 41\n[stability]\nt0 = 40.5\n[jacobi]\nstart_t = 40.5\n",
    ], ids=["affine-0-800", "affine-0-709", "affine-1e10", "quadratic-0-0--800", "zero-40-41"])
    def test_a_slab_mass_that_under_or_overflows_exits_1_at_load(self, tmp_path, capsys, density):
        """c = 1/2: the slab factor overflows (b0 = 800, a0 = 1e10), its
        mass is finite but its weighted volume overflows (b0 = 709), or it
        underflows to 0 (b0 = -800; the zero weight on (40, 41)).  The engine
        was built on first use, so with heights that need no median every
        stage ran: the first two exited 2 on a stability "violated" with a
        nan witness, the overflows printed RuntimeWarnings, and the rest
        read "verified" on a zero mass."""
        cfg = write_cfg(tmp_path, f"[density]\nc = 0.5\n{density}")
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("isoflow: error: [density] slab mass ")

    @pytest.mark.parametrize("a", ["1e17", "1e300"])
    def test_a_slab_cut_to_nothing_exits_1_at_load(self, tmp_path, capsys, a):
        """Zero weight, c = 1/2 on (a, inf): the cut's step past a rounds away.
        (1e17, inf) was cut to an empty interval; (1e300, inf) printed an
        overflow RuntimeWarning before its "slab mass 0.0" refusal."""
        cfg = write_cfg(tmp_path, f"[density]\nweight = zero\nc = 0.5\nslab = {a}, inf\n")
        out = tmp_path / "out"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("isoflow: error: ") and "rounds onto the finite end" in err[0]


class TestGapWithTheMassAtTheRightEnd:
    @pytest.mark.parametrize("weight, params, slab", [("affine", "30, 0", "-inf, 20"),
                                                      ("quadratic", "1, 60, 0", "-inf, 15")])
    def test_spectrum_verifies(self, tmp_path, weight, params, slab):
        """Concave weights whose mass sits at the pencil's right end: the
        Green's solve pinned u at the left end and read lambda = 0.0740 and
        0.105, a false violation of lambda >= 2c = 1 (exit 2)."""
        cfg = write_cfg(tmp_path, f"[density]\nweight = {weight}\nparams = {params}\nc = 0.5\nslab = {slab}\n")
        out = str(tmp_path / "out")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        record = read_json(out, "spectrum.json")
        assert record["status"] == "verified"
        assert record["metrics"]["lambda"] > 30.0


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
    def test_every_schema_key_is_read(self, quadratic_record):
        """A knob no command reads does nothing: one `all` run reads every
        schema key, and nothing else."""
        code, _, read = quadratic_record
        assert code == 0
        assert read == {(section, key) for section, keys in _SCHEMA.items() for key in keys}


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
        # every JSON record too, the pushforward residual included, once
        # the wall times are dropped
        records = sorted(n for n in os.listdir(out_a) if n.endswith(".json"))
        assert "transport.json" in records and "summary.json" in records
        for name in records:
            a, b = read_json(out_a, name), read_json(out_b, name)
            for record in (a, b):
                for verdict in record.get("verdicts", [record]):
                    del verdict["wall_time_s"]
            assert a == b, name

    def test_vertical_index_minimum_reproduces(self, tmp_path):
        values = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            assert main(["spectrum", "--config", GAUSSIAN_CFG, "--out", out]) == 0
            values.append(read_json(out, "spectrum.json")["metrics"]["vertical_index_min"])
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
        # a shot that leaves the slab at once ends in the command's error record
        cfg = write_cfg(tmp_path, "[density]\nweight = zero\nslab = -1, 1\n[jacobi]\nstart_t = 0.999\n"
                        "angle = 1.5707963267948966\n", name="jacobi.cfg")
        out = tmp_path / "jacobi"
        proc = subprocess.run(
            [sys.executable, "-m", "isoflow", "jacobi", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert read_json(str(out), "jacobi_error.json")["status"] == "error"
        assert "curve left the slab before 3 nodes were laid down" in proc.stderr
