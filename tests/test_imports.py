"""Import guard: isoflow runs on numpy alone and imports no part of scipy.

Importing scipy.special or scipy.linalg alone costs more than the rest of a
cold run, so the runtime computes its Gaussian CDF and quantile (a numpy
erfc and Wichura's AS241), the chords' spline basis (one dense slope
solve per control count) and the spectral gap (Lanczos on the pencil's
Green's operator) in numpy.

isoflow also loads neither numpy.random nor numpy.polynomial: it draws
no random number, and its Gauss-Legendre rules are tabulated.  Nor does it
load dataclasses: a frozen dataclass generates its methods by exec when
its module is imported, so isoflow's records are plain immutable classes.

The guard imports every isoflow module and runs a full `isoflow all` on
both bundled configs, then reads sys.modules.  Two more guards read the
source: every field of isoflow's NamedTuple reports and _Frozen records
has a reader outside the tests, and every public function a caller.  One
more reads it for records built whole: no field is filled after __init__.
A last one reads README.md: every code reference there still resolves.
"""

import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, json, pkgutil, sys
from pathlib import Path
import isoflow
from isoflow.cli import main

modules = sorted(m.name for m in pkgutil.iter_modules(isoflow.__path__, "isoflow."))
for name in modules:
    importlib.import_module(name)
configs = Path(isoflow.__file__).parent / "configs"
codes = [main(["all", "--config", str(configs / f"{name}.cfg"), "--out", str(Path(sys.argv[1]) / name)])
         for name in ("gaussian_slab", "quadratic_slab")]
numpy_extras = sorted(m for m in sys.modules if m.startswith(("numpy.random", "numpy.polynomial")))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"modules": modules, "codes": codes, "loaded": loaded, "numpy_extras": numpy_extras,
                  "dataclasses": "dataclasses" in sys.modules}))
"""


def test_cli_all_loads_no_heavy_scipy_subpackage(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert "isoflow.weights" in report["modules"]
    assert report["codes"] == [0, 0]
    assert report["loaded"] == []
    assert report["numpy_extras"] == []
    assert report["dataclasses"] is False


# record fields that no program reads yet, each with the ROADMAP item
# whose check will read it
AWAITING_A_READER = {
    ("PerimeterBoundReport", "weighted_perimeter"): "item 3, the transport theorem as a verdict",
    ("PerimeterBoundReport", "gaussian_bound"): "item 3, the transport theorem as a verdict",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _writes_fields(node: ast.AST) -> bool:
    """vars(self), self.__dict__ or a _float_arrays(self, ...) call: the
    routes by which a _Frozen record's fields are written."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id in ("vars", "_float_arrays")
                and bool(node.args) and _is_self(node.args[0]))
    return isinstance(node, ast.Attribute) and node.attr == "__dict__" and _is_self(node.value)


def _stored_fields(record: ast.ClassDef) -> set[str]:
    """The fields a _Frozen record stores: the keywords of its
    vars(self).update(...) and _float_arrays(self, ...) calls, and the
    names of its vars(self)["name"] = ... stores."""
    names = set()
    for call in ast.walk(record):
        if isinstance(call, ast.Subscript) and isinstance(call.ctx, ast.Store) and _writes_fields(call.value):
            names.add(call.slice.value)
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        update = (isinstance(func, ast.Attribute) and func.attr == "update" and isinstance(func.value, ast.Call)
                  and isinstance(func.value.func, ast.Name) and func.value.func.id == "vars"
                  and len(func.value.args) == 1 and _is_self(func.value.args[0]))
        arrays = (isinstance(func, ast.Name) and func.id == "_float_arrays" and call.args
                  and _is_self(call.args[0]))
        if update or arrays:
            names |= {keyword.arg for keyword in call.keywords}
    return names


def test_every_report_field_is_read_outside_the_tests():
    """A report field that only tests read is a number no check, record or
    benchmark uses.  Every field of every NamedTuple in src/isoflow, and
    every field a _Frozen record stores, must be read as an attribute in
    src/, scripts/ or benchmark/.  The scan matches attribute names only,
    so it misses a field whose name another object's attribute shares."""
    fields = set()
    for path in sorted((ROOT / "src" / "isoflow").glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases):
                fields |= {(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)}
            fields |= {(node.name, name) for name in _stored_fields(node)}
    read = {node.attr for folder in ("src", "scripts", "benchmark")
            for path in sorted((ROOT / folder).rglob("*.py")) for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert ("PoincareCertificate", "lambda_value") in fields
    assert {("SpectralProblem", "masses"), ("Profile", "v_total"), ("DiscreteCurve", "curvature")} <= fields
    assert {field for field in fields if field[1] not in read} == set(AWAITING_A_READER)


def test_every_record_is_built_whole():
    """A field filled after __init__, by a functools.cached_property or a
    write on first use, waits for its first read to run its refusals, so a
    record can be built from inputs its numerics cannot carry.  No
    src/isoflow module uses cached_property, and the routes that write a
    record's fields (vars(self), self.__dict__, _float_arrays(self, ...))
    appear only inside an __init__."""
    lazy, late = [], []
    for path in sorted((ROOT / "src" / "isoflow").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lazy += [path.name] if "cached_property" in source else []
        for function in ast.walk(ast.parse(source)):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) and function.name != "__init__":
                late += [f"{path.name}:{node.lineno} in {function.name}" for node in ast.walk(function)
                         if _writes_fields(node)]
    assert lazy == []
    assert late == []


def _public_names(module: ast.Module) -> set[str]:
    """The names a module lists in its __all__ (the package's, a union of the others, lists none)."""
    return {name.value for node in module.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
            for target in node.targets if isinstance(target, ast.Name) and target.id == "__all__"
            for name in node.value.elts}


def test_every_public_function_is_called_outside_the_tests():
    """A public function that only tests call is code no program runs.
    Every function in a module's __all__ must be called, by name or as an
    attribute, in src/, scripts/, benchmark/ or the README's Python example."""
    functions = set()
    for path in sorted((ROOT / "src" / "isoflow").glob("*.py")):
        module = _parse(path)
        public = _public_names(module)
        functions |= {(path.stem, node.name) for node in module.body
                      if isinstance(node, ast.FunctionDef) and node.name in public}
    trees = [_parse(path) for folder in ("src", "scripts", "benchmark")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    examples = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    trees += [ast.parse(example) for example in examples]
    called = {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
              for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert examples and {("cli", "main"), ("weights", "check_concavity")} <= functions
    assert {function for function in functions if function[1] not in called} == set()


def test_every_readme_code_reference_resolves():
    """A README that names a helper the code no longer has sends its reader
    to nothing.  Every backticked dotted name in README.md, a call's
    arguments aside, whose head is an isoflow module or a name in
    isoflow.__all__ must resolve by getattr from that head."""
    import isoflow

    modules = {path.stem for path in (ROOT / "src" / "isoflow").glob("*.py")}
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    names = {match[1] for span in spans
             if (match := re.fullmatch(r"(([A-Za-z_]\w*)(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?", span))
             and (match[2] in modules or match[2] in isoflow.__all__)}
    stale = []
    for name in sorted(names):
        head, *path = name.split(".")
        target = importlib.import_module(f"isoflow.{head}") if head in modules else getattr(isoflow, head)
        try:
            functools.reduce(getattr, path, target)
        except AttributeError:
            stale.append(name)
    assert {"Density._cut", "weights._TAIL_MASS", "cli._SCHEMA"} <= names
    assert stale == []
