"""Mirror cells of the metamorphic matrix: `isoflow all` under t -> -t.

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


def run_all(tmp_path, name: str, weight: str, params: str, slab: str, mirrored: bool):
    """Exit code and {stage: (status, metrics)} of `isoflow all` on one density at c = 1/2."""
    config = tmp_path / f"{name}.cfg"
    text = f"[density]\nweight = {weight}\nparams = {params}\nc = 0.5\nslab = {slab}\n"
    config.write_text(text + (MIRROR_KEYS if mirrored else ""), encoding="utf-8")
    code = cli.main(["all", "--config", str(config), "--out", str(tmp_path / name)])
    summary = json.loads((tmp_path / name / "summary.json").read_text(encoding="utf-8"))
    return code, {v["command"]: (v["status"], v["metrics"]) for v in summary["verdicts"]}


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
    code, stages = run_all(tmp_path, "original", *original, mirrored=False)
    mirror_code, mirror_stages = run_all(tmp_path, "mirrored", *mirrored, mirrored=True)
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
