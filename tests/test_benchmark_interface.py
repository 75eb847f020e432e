"""The frozen benchmark's view of isoflow still resolves.

benchmark/ is kept unchanged between measurements, so every name it calls
or wraps must stay: inproc.py calls `iso.<name>(...)` on the package, and
tracer.py wraps the methods of CumulativeDensity1D, ChordSpline.__post_init__
and each weight class.  The benchmark's files are read as source, never
imported or run, so a deletion that would crash the benchmark fails here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import isoflow
from isoflow import optimize, weights

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCHMARK / name).read_text(encoding="utf-8"))


def _package_calls() -> list[ast.Call]:
    """Every call `iso.<name>(...)` in inproc.py, where `iso` is isoflow."""
    return [node for node in ast.walk(_tree("inproc.py"))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "iso"]


def _tracer_constant(name: str):
    """A module-level literal assigned in tracer.py."""
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py assigns no {name}")


def test_inproc_calls_the_package():
    assert len(_package_calls()) >= 10


@pytest.mark.parametrize("call", _package_calls(), ids=lambda call: f"{call.func.attr}:{call.lineno}")
def test_each_package_call_resolves_and_binds(call):
    """The name is on isoflow and takes the call's positional count and keywords."""
    target = getattr(isoflow, call.func.attr, None)
    assert target is not None, f"isoflow.{call.func.attr} is gone"
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    keywords = [keyword.arg for keyword in call.keywords]
    assert None not in keywords  # no **mapping, whose keys the source does not show
    inspect.signature(target).bind(*[None] * len(call.args), **dict.fromkeys(keywords))


def test_the_traced_engine_methods_exist():
    methods = _tracer_constant("CUM_METHODS")
    assert methods
    for name in methods:
        assert name in vars(weights.CumulativeDensity1D), f"CumulativeDensity1D.{name} is gone"


# span names in tracer.py's GROUPS whose functions are gone; the harness
# mend of ROADMAP item 1 drops them from the tracer
STALE_SPANS = {"weights.integrate_weighted", "weights.integrate_weighted_report", "weights.normalizers"}


def test_the_stale_span_names_are_still_stale():
    groups = _tracer_constant("GROUPS")
    for span in STALE_SPANS:
        assert span in groups and not hasattr(weights, span.split(".")[1]), span


@pytest.mark.parametrize("span", sorted(set(_tracer_constant("GROUPS")) - STALE_SPANS))
def test_each_timed_span_resolves(span):
    """A span's name is `<module>.<attribute path>` on isoflow.  The tracer
    wraps only the functions a module lists in __all__, so a top-level
    function missing from it would leave its group's `.calls` reading 0."""
    module_name, *path = span.split(".")
    module = importlib.import_module(f"isoflow.{module_name}")
    target = module
    for attr in path:
        target = getattr(target, attr, None)
        assert target is not None, f"{span} is gone"
    if len(path) == 1:
        assert inspect.isfunction(target) and path[0] in module.__all__, span


def test_the_traced_chord_constructor_hook_exists():
    assert "__post_init__" in vars(optimize.ChordSpline)


def test_the_traced_weight_classes_exist():
    names = _tracer_constant("WEIGHT_CLASSES")
    assert names
    for name in names:
        assert inspect.isclass(getattr(weights, name, None)), f"weights.{name} is gone"
