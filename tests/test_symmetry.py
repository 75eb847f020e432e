"""Mirror and shift cells of the metamorphic matrix: `isoflow all` under
t -> -t and under omega -> omega + b0.

The mirror t -> -t sends the paper's problem to itself: the weight becomes
omega(-t) (a0 -> -a0 for the affine and quadratic weights) and the slab
(a, b) becomes (-b, -a).  A mirrored run mirrors the config's geometric
keys too: the Jacobi shot starts at angle -1 rad instead of 1, and the
chord's wall ends trade places (x_bottom <-> x_top).  The default heights
([stability] t0, [jacobi] start_t: 0, or else the slab factor's median)
mirror by themselves.

Each pair must read the same exit code and stage statuses, and every
metric the same, except that transport's max_location and stability's t0
change sign and the optimizer's bottom and top wall angles (also in its
error message) trade places.  A numeric metric m of one run and its image
m' of the other agree when |m - m'| <= RTOL max(|m|, |m'|) + ATOL.

Tolerances, as measured on the three pairs below:
  * RTOL = ATOL = 1e-14.  Every metric agreed within 1.4e-15 relative
    (spectrum lambda, transport beta and max_derivative, optimize
    benchmark), except the differences and rounding-floor values: the
    pushforward residual, relative gap, area error, wall angles, the
    stability witness, hf_spread (2.2e-11) and truncation_shift (4.3e-7,
    the difference of two gaps), which differed by at most 1.2e-15
    absolute.
  * JACOBI_HALF_RTOL = 1e-5 for the Jacobi residuals and ratios of the
    one-sided pair, measured 4.6e-6: there the default start height, the
    slab factor's median, mirrors only to 6 ulps (1.0080604331857101
    against -1.0080604331857088), and the residual's second differences
    at h = 2e-3 carry that shift.  Shot from exactly mirrored heights,
    the two curves' residuals agree bit for bit.

The one-sided pair ends, on both sides, in the optimize `error` of the
half-space runs (ROADMAP item 2).

The shift omega -> omega + b0 multiplies the measure by e^b0 and leaves the
problem unchanged: every verdict must read as at b0 = 0, lengths and
volumes must scale by e^b0, and the spectral gap and the Jacobi residual
ratios must not move.  The cells are both bundled configs, with the
constant written into the weight (gaussian_slab as `affine 0, b0`,
quadratic_slab as `quadratic 1, 0, b0`), at b0 in {-60, -30, 30, 60}.  The
lengths are optimize's final chord and benchmark, the volume is the slab
factor's mass 1/beta from transport.  SHIFT_RTOL = 1e-14 relative: the
cells that read these metrics agreed within 2.7e-15 (lambda), 1.9e-15
(1/beta) and 5.2e-16 (lengths), and the Jacobi ratios bit for bit.  Each
failing cell is pinned as it reads, as a strict xfail that names the
ROADMAP item that mends it: item 17 for the absolute descent stop and
beaten margin, item 10 for the absolute stability gate.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from isoflow import cli

RTOL = ATOL = 1e-14
JACOBI_HALF_RTOL = 1e-5

MIRROR_KEYS = "[jacobi]\nangle = -1.0\n[optimize]\nx_bottom = 0.3\nx_top = -0.3\n"

# (weight, params, slab) and its mirror image, the exit code both read, and
# the relative tolerance of any stage measured apart
PAIRS = {
    "affine_0.7_on_(-1,1)": (("affine", "0.7, 0", "-1, 1"), ("affine", "-0.7, 0", "-1, 1"), 0, {}),
    "quadratic_0.5_0.2_0_on_(-1,1)": (
        ("quadratic", "0.5, 0.2, 0", "-1, 1"), ("quadratic", "0.5, -0.2, 0", "-1, 1"), 0, {}),
    "affine_0.7_on_(0,inf)": (
        ("affine", "0.7, 0", "0, inf"), ("affine", "-0.7, 0", "-inf, 0"), 1, {"jacobi": JACOBI_HALF_RTOL}),
}

NUMBER = re.compile(r"[-+]?\d[\d.e+-]*")


def run_all(tmp_path, name: str, text: str):
    """Exit code and {stage: (status, metrics)} of `isoflow all` on one config text."""
    config = tmp_path / f"{name}.cfg"
    config.write_text(text, encoding="utf-8")
    code = cli.main(["all", "--config", str(config), "--out", str(tmp_path / name)])
    summary = json.loads((tmp_path / name / "summary.json").read_text(encoding="utf-8"))
    return code, {v["command"]: (v["status"], v["metrics"]) for v in summary["verdicts"]}


def density_text(weight: str, params: str, slab: str) -> str:
    """The [density] section of one weight on one slab at c = 1/2."""
    return f"[density]\nweight = {weight}\nparams = {params}\nc = 0.5\nslab = {slab}\n"


def mirror_image(stage: str, metrics: dict) -> dict:
    """The metrics a mirrored run should read, from the original run's."""
    image = dict(metrics)
    if stage == "transport":
        image["max_location"] = -metrics["max_location"]
    elif stage == "stability":
        image["t0"] = -metrics["t0"]
    elif stage == "optimize" and "angle_bottom_deg" in metrics:
        image["angle_bottom_deg"] = metrics["angle_top_deg"]
        image["angle_top_deg"] = metrics["angle_bottom_deg"]
    return image


def agree(want, got, rtol: float) -> bool:
    if isinstance(want, list):
        return len(want) == len(got) and all(agree(w, g, rtol) for w, g in zip(want, got))
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(want, got, rel_tol=rtol, abs_tol=ATOL)
    return type(want) is type(got) and want == got


@pytest.mark.parametrize("pair", list(PAIRS))
def test_the_mirror_reads_the_same(tmp_path, pair):
    original, mirrored, exit_code, loose = PAIRS[pair]
    code, stages = run_all(tmp_path, "original", density_text(*original))
    mirror_code, mirror_stages = run_all(tmp_path, "mirrored", density_text(*mirrored) + MIRROR_KEYS)
    assert (mirror_code, code) == (exit_code, exit_code)
    assert {s: v[0] for s, v in mirror_stages.items()} == {s: v[0] for s, v in stages.items()}
    for stage, (_, metrics) in stages.items():
        want, got, rtol = mirror_image(stage, metrics), mirror_stages[stage][1], loose.get(stage, RTOL)
        assert set(got) == set(want), stage
        if "message" in want:  # an error message: the same numbers, the wall angles swapped
            assert sorted(NUMBER.findall(got.pop("message"))) == sorted(NUMBER.findall(want.pop("message")))
        bad = {key: (want[key], got[key]) for key in want if not agree(want[key], got[key], rtol)}
        assert not bad, (stage, bad)
    if exit_code:
        assert stages["optimize"][0] == "error"


SHIFT_RTOL = 1e-14

# bundled config -> its weight with the shift b0 in its constant term, and its other sections
SHIFTED = {
    "gaussian_slab": ("affine", "0, {b0}", "[jacobi]\ntarget_hf = 0.0\nstart_x = 1.0\nstart_t = 0.0\n"
                      "angle = 1.0\nmax_length = 0.9\n[optimize]\nx_bottom = -0.3\nx_top = 0.3\n"),
    "quadratic_slab": ("quadratic", "1, 0, {b0}", "[jacobi]\ntarget_hf = -0.5\nstart_x = 0.5\n"
                       "start_t = 0.0\nangle = 1.0\nmax_length = 0.9\n[optimize]\nx_bottom = -0.25\n"
                       "x_top = 0.25\n"),
}

# the descent stops on an absolute projected-gradient norm of 1e-6, which scales with e^b0
_STOPS_AT_START = "item 17: optimize error, a non-stationary chord: the descent stops at its start"
_NEVER_STOPS = "item 17: optimize error, max_iterations: the gradient's rounding stays above 1e-6"
_NO_CHORD = "item 17: optimize error, so the run has no chord length to scale"
_STABILITY = ("items 10 and 17: stability violated, the witness e^b0 * (-5.01) does not reach the "
              "absolute -1e-6 gate; optimize error, the descent stops at its start")


# (config, b0) -> why the verdicts, and why the scaled metrics, fail today (None: they hold); a
# failing verdict cell fails its assertion, a failing metric cell lacks the optimize lengths
SHIFT_CELLS = {
    ("gaussian_slab", -60): (_STOPS_AT_START, _NO_CHORD),
    ("gaussian_slab", -30): (_STOPS_AT_START, _NO_CHORD),
    ("gaussian_slab", 30): ("item 17: optimize violated, the chord beats the benchmark by 0.016, "
                            "4 ulps of an e^30 length, against the absolute margin 1e-6", None),
    ("gaussian_slab", 60): (_NEVER_STOPS, _NO_CHORD),
    ("quadratic_slab", -60): (_STABILITY, _NO_CHORD),
    ("quadratic_slab", -30): (_STABILITY, _NO_CHORD),
    ("quadratic_slab", 30): (None, None),
    ("quadratic_slab", 60): (None, None),
}


def shift_cells(column: int) -> list:
    """The cells as parameters, each failing one a strict xfail with its reason."""
    raises = (AssertionError, KeyError)[column]
    return [pytest.param(config, b0, id=f"{config}_b0={b0}", marks=[
                pytest.mark.xfail(strict=True, raises=raises, reason=why[column])] if why[column] else [])
            for (config, b0), why in SHIFT_CELLS.items()]


@pytest.fixture(scope="module")
def shifted_run(tmp_path_factory):
    """Exit code and {stage: (status, metrics)} of `isoflow all` on a bundled config shifted by b0."""
    root, runs = tmp_path_factory.mktemp("shift"), {}

    def run(config, b0):
        if (config, b0) not in runs:
            weight, params, sections = SHIFTED[config]
            text = f"[density]\nweight = {weight}\nparams = {params.format(b0=b0)}\nc = 0.5\nslab = -1, 1\n"
            runs[config, b0] = run_all(root, f"{config}_{b0}", text + sections)
        return runs[config, b0]

    return run


@pytest.mark.parametrize("config", list(SHIFTED))
def test_the_unshifted_config_verifies(shifted_run, config):
    code, stages = shifted_run(config, 0)
    assert code == 0
    assert {s: v[0] for s, v in stages.items()} == dict.fromkeys(cli._STAGES, "verified")


@pytest.mark.parametrize("config, b0", shift_cells(0))
def test_a_shift_keeps_every_verdict(shifted_run, config, b0):
    code, stages = shifted_run(config, b0)
    base_code, base = shifted_run(config, 0)
    assert (code, {s: v[0] for s, v in stages.items()}) == (base_code, {s: v[0] for s, v in base.items()})


@pytest.mark.parametrize("config, b0", shift_cells(1))
def test_a_shift_scales_lengths_and_volumes_only(shifted_run, config, b0):
    (_, stages), (_, base) = shifted_run(config, b0), shifted_run(config, 0)
    scale = math.exp(b0)
    assert stages["jacobi"][1]["ratios"] == base["jacobi"][1]["ratios"]
    for stage, key, power in (("transport", "beta", -1), ("spectrum", "lambda", 0),
                              ("optimize", "final_length", 1), ("optimize", "benchmark", 1)):
        want, got = base[stage][1][key] * scale**power, stages[stage][1][key]
        assert math.isclose(got, want, rel_tol=SHIFT_RTOL), (stage, key, got, want)
