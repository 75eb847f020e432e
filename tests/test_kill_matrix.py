"""Kill matrix: every stage must fail on a planted fault.

Each row plants one fault in a numerical primitive with monkeypatch, in
every isoflow module that binds the primitive's name (the place of the
patch decides the row: a module that imported the name keeps the original
unless it is patched too), and runs `isoflow all` in-process on both
bundled configs.  The exit code and every stage's status must read as in
TABLE.

Several faults survive today: every stage still reads `verified`, or the
stage that should catch the fault does not.  Each such cell is pinned as
it reads, and has an `xfail(strict=True)` case in CATCHES that asserts the
catch, a stage that verifies today reading `violated`, and names the
ROADMAP item expected to turn it.  The change that turns a cell makes its
pinned row fail and its xfail case pass, and rewrites both.  No fault may
be resized so that it passes, and no row dropped.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import isoflow
from isoflow import cli, geometry, optimize, profiles, spectrum, transport, weights
from isoflow.cli import main
from isoflow.profiles import Profile
from isoflow.weights import CumulativeDensity1D

CONFIGS = Path(isoflow.__file__).parent / "configs"
MODULES = (weights, geometry, profiles, transport, spectrum, optimize, cli)
STAGES = ("profile", "transport", "stability", "jacobi", "spectrum", "optimize")


def plant(name: str, wrap, modules=MODULES):
    """The fault that replaces name by wrap(original) in every module of
    modules that binds it."""
    def apply(monkeypatch):
        bound = [module for module in modules if hasattr(module, name)]
        original = getattr(bound[0], name)
        assert all(getattr(module, name) is original for module in bound)
        faulty = wrap(original)
        for module in bound:
            monkeypatch.setattr(module, name, faulty)
    return apply


def shifted(delta: float):
    return lambda f: lambda *args: f(*args) + delta


def scaled(factor: float):
    return lambda f: lambda *args: f(*args) * factor


def parallel_f_scaled(build):
    """build_profile whose parallel profile values F are 0.1% too large."""
    def faulty(density, family, *args, **kwargs):
        p = build(density, family, *args, **kwargs)
        if family != "parallel":
            return p
        return Profile(p.s, p.V, p.A, p.v, p.F * (1.0 + 1e-3), p.dF, p.ddF, p.v_total)
    return faulty


def gap_scaled(solve):
    def faulty(problem):
        lam, eigenvector = solve(problem)
        return lam * (1.0 - 1e-3), eigenvector
    return faulty


def engine_quantile_scaled(monkeypatch):
    quantile = CumulativeDensity1D.quantile
    monkeypatch.setattr(CumulativeDensity1D, "quantile",
                        lambda self, *args: quantile(self, *args) * (1.0 + 1e-6))


FAULTS = {
    "none": lambda monkeypatch: None,
    "bakry_emery_curvature+0.05": plant("bakry_emery_curvature", shifted(0.05)),
    "index_form-1e-3": plant("index_form", shifted(-1e-3)),
    "index_form+1e-3": plant("index_form", shifted(1e-3)),
    "parallel_F*(1+1e-3)": plant("build_profile", parallel_f_scaled),
    "spectral_gap*(1-1e-3)": plant("spectral_gap_1d", gap_scaled),
    "vertical_chord_length*(1-1e-3)": plant("vertical_chord_length", scaled(1.0 - 1e-3)),
    "vertical_chord_length*(1+1e-3)": plant("vertical_chord_length", scaled(1.0 + 1e-3)),
    "gaussian_quantile+1e-4_in_transport": plant("gaussian_quantile", shifted(1e-4), (transport,)),
    "gaussian_quantile+1e-4_elsewhere": plant(
        "gaussian_quantile", shifted(1e-4), tuple(m for m in MODULES if m is not transport)),
    "engine_quantile*(1+1e-6)": engine_quantile_scaled,
}

# fault -> (gaussian_slab, quadratic_slab), each the exit code and the stages
# that read violated; every other stage reads verified
TABLE = {
    "none": ((0, ()), (0, ())),
    "bakry_emery_curvature+0.05": ((2, ("stability", "jacobi")), (2, ("jacobi",))),
    "index_form-1e-3": ((2, ("stability",)), (0, ())),
    "index_form+1e-3": ((0, ()), (0, ())),
    "parallel_F*(1+1e-3)": ((0, ()), (0, ())),
    "spectral_gap*(1-1e-3)": ((0, ()), (0, ())),
    "vertical_chord_length*(1-1e-3)": ((0, ()), (0, ())),
    "vertical_chord_length*(1+1e-3)": ((2, ("optimize",)), (2, ("optimize",))),
    "gaussian_quantile+1e-4_in_transport": ((0, ()), (0, ())),
    "gaussian_quantile+1e-4_elsewhere": ((0, ()), (0, ())),
    "engine_quantile*(1+1e-6)": ((2, ("transport",)), (2, ("transport",))),
}
CONFIG_NAMES = ("gaussian_slab", "quadratic_slab")

# surviving cells: (fault, config, the ROADMAP item expected to turn it and where)
CATCHES = [
    ("bakry_emery_curvature+0.05", "quadratic_slab", "item 10: stability compares its witness "
     "with the closed form"),
    ("index_form-1e-3", "quadratic_slab", "item 10: stability compares its witness with the closed form"),
    *((fault, config, reason) for config in CONFIG_NAMES for fault, reason in (
        ("index_form+1e-3", "item 10: stability compares its witness with the closed form"),
        ("parallel_F*(1+1e-3)", "item 10: the profile ODE defect read from the tabulated F"),
        ("spectral_gap*(1-1e-3)", "item 6: spectrum tolerance from its own error estimate"),
        ("vertical_chord_length*(1-1e-3)", "item 6: optimize tolerance from the quadrature error"),
        ("gaussian_quantile+1e-4_in_transport", "item 3: the transported perimeter bound reads "
         "_inverse_map"),
        ("gaussian_quantile+1e-4_elsewhere", "items 6 and 8: measured tolerances, and optimize at "
         "fractions where G(v) is not flat in the quantile"),
    )),
]


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    """(exit code, {stage: status}) of `isoflow all` on a bundled config
    under a fault, each run once and shared by its row and its xfail case."""
    runs = {}

    def run(fault: str, config: str):
        if (fault, config) not in runs:
            out = tmp_path_factory.mktemp("kill") / "out"
            with pytest.MonkeyPatch.context() as monkeypatch:
                FAULTS[fault](monkeypatch)
                code = main(["all", "--config", str(CONFIGS / f"{config}.cfg"), "--out", str(out)])
            verdicts = json.loads((out / "summary.json").read_text(encoding="utf-8"))["verdicts"]
            runs[fault, config] = code, {v["command"]: v["status"] for v in verdicts}
        return runs[fault, config]

    return run


def test_every_fault_has_a_row():
    assert list(TABLE) == list(FAULTS)


@pytest.mark.parametrize("config", CONFIG_NAMES)
@pytest.mark.parametrize("fault", list(TABLE))
def test_each_fault_reads_as_recorded(outcome, fault, config):
    code, violated = TABLE[fault][CONFIG_NAMES.index(config)]
    expected = {stage: "violated" if stage in violated else "verified" for stage in STAGES}
    assert outcome(fault, config) == (code, expected)


@pytest.mark.parametrize("fault, config", [
    pytest.param(fault, config, marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP {reason}"))
    for fault, config, reason in CATCHES
])
def test_a_surviving_fault_is_caught(outcome, fault, config):
    """A stage that verifies under this fault today reads violated."""
    code, statuses = outcome(fault, config)
    _, violated = TABLE[fault][CONFIG_NAMES.index(config)]
    assert code == 2
    assert any(statuses[stage] == "violated" for stage in STAGES if stage not in violated)
