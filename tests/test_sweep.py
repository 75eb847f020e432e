"""Sweep snapshot: `isoflow all` in-process on the 60-run sweep and both bundled configs.

The sweep is 5 weights x 4 slabs x c in {1/4, 1/2, 2}, at default settings:

    zero; affine 0.7, 0; quadratic 0.5, 0.2, 0; log_power 2;
    piecewise_linear -50, -10, 0, 0, 50, -20
  x (-1, 1), (0, inf), (-inf, 0), R

Each run's exit code and the status of each stage (profile, transport,
stability, jacobi, spectrum, optimize) must read as in the table below, run
for run.  A change that moves any of them shows here, and rewrites the rows
it moves on purpose, saying which and why.  Two changes on the ROADMAP will
rewrite rows:

  * item 2 (stationarity where the mass is) turns the 24 optimize errors of
    the one-sided runs and of the quadratic weight on R into verified runs
    that exit 0;
  * item 4 (the whole hypothesis class runs) replaces the piecewise linear
    weight's profile, stability and jacobi errors on (-1, 1).

Runs refused at load (the slab outside the weight's domain) exit 1 and run
no stage.  Pytest turns every warning into an error, so a run that warns
fails here too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import isoflow
from isoflow.cli import main

CONFIGS = Path(isoflow.__file__).parent / "configs"

WEIGHTS = {
    "zero": "",
    "affine": "0.7, 0",
    "quadratic": "0.5, 0.2, 0",
    "log_power": "2",
    "piecewise_linear": "-50, -10, 0, 0, 50, -20",
}
SLABS = ("-1, 1", "0, inf", "-inf, 0", "-inf, inf")
CS = ("0.25", "0.5", "2")

# stage statuses in stage order: v verified, x violated, e error; "-" a run
# refused at load, which runs no stage
LETTERS = {"verified": "v", "violated": "x", "error": "e"}
LOAD_ERROR = "------"

# (weight, slab) -> "exit-code statuses", the same at every c of the sweep
TABLE = {
    ("zero", "-1, 1"): "0 vvvvvv",
    ("zero", "0, inf"): "1 vvvvve",
    ("zero", "-inf, 0"): "1 vvvvve",
    ("zero", "-inf, inf"): "0 vvvvvv",
    ("affine", "-1, 1"): "0 vvvvvv",
    ("affine", "0, inf"): "1 vvvvve",
    ("affine", "-inf, 0"): "1 vvvvve",
    ("affine", "-inf, inf"): "0 vvvvvv",
    ("quadratic", "-1, 1"): "0 vvvvvv",
    ("quadratic", "0, inf"): "1 vvvvve",
    ("quadratic", "-inf, 0"): "1 vvvvve",
    ("quadratic", "-inf, inf"): "1 vvvvve",
    ("log_power", "-1, 1"): "1 ------",
    ("log_power", "0, inf"): "1 vvvvve",
    ("log_power", "-inf, 0"): "1 ------",
    ("log_power", "-inf, inf"): "1 ------",
    ("piecewise_linear", "-1, 1"): "1 eveevv",
    ("piecewise_linear", "0, inf"): "1 ------",
    ("piecewise_linear", "-inf, 0"): "1 ------",
    ("piecewise_linear", "-inf, inf"): "1 ------",
}

RUNS = [
    pytest.param(
        f"[density]\nweight = {weight}\nparams = {WEIGHTS[weight]}\nc = {c}\nslab = {slab}\n",
        expected, id=f"{weight}-({slab})-c{c}",
    )
    for (weight, slab), expected in TABLE.items()
    for c in CS
] + [
    pytest.param((CONFIGS / f"{name}.cfg").read_text(encoding="utf-8"), "0 vvvvvv", id=name)
    for name in ("gaussian_slab", "quadratic_slab")
]


def test_the_table_holds_17_clean_runs_and_45_failing_ones():
    codes = [run.values[1][0] for run in RUNS]
    assert (len(RUNS), codes.count("0"), codes.count("1")) == (62, 17, 45)


@pytest.mark.parametrize("text, expected", RUNS)
def test_each_run_reads_as_recorded(tmp_path, capsys, text, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["all", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    summary = out / "summary.json"
    if os.path.exists(summary):
        verdicts = json.loads(summary.read_text(encoding="utf-8"))["verdicts"]
        statuses = "".join(LETTERS[verdict["status"]] for verdict in verdicts)
    else:
        statuses = LOAD_ERROR
    assert f"{code} {statuses}" == expected
