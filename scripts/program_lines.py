"""List the statements of src/isoflow that no program run reaches.

Runs `isoflow all` in process on both bundled configs (with --sweep, on the
60-run sweep of tests/test_sweep.py too) under a sys.settrace line tracer, then
prints `file:line: source` for every statement no run executed, leaving out
`raise` statements, definitions and docstrings, then the count.  A listed line
is code only the tests run; the list is a report, not a gate.
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import itertools
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # trace this checkout's isoflow

WEIGHTS = {"zero": "", "affine": "0.7, 0", "quadratic": "0.5, 0.2, 0", "log_power": "2",
           "piecewise_linear": "-50, -10, 0, 0, 50, -20"}
SLABS = ("-1, 1", "0, inf", "-inf, 0", "-inf, inf")
CS = ("0.25", "0.5", "2")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Raise)


def sweep_configs() -> list[str]:
    """The 60-run sweep's config texts: every weight on every slab at every c, default settings."""
    return [f"[density]\nweight = {weight}\nparams = {WEIGHTS[weight]}\nc = {c}\nslab = {slab}\n"
            for weight, slab, c in itertools.product(WEIGHTS, SLABS, CS)]


def run_all(configs: list[str], out: Path, package: str) -> set:
    """The (file, line) pairs of the package that the runs execute."""
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename.startswith(package) else None)
    try:
        from isoflow.cli import main  # imported under the tracer, so module-level lines count
        for n, config in enumerate(configs):
            with contextlib.redirect_stderr(io.StringIO()):
                main(["all", "--config", config, "--out", str(out / f"out{n}")])
    finally:
        sys.settrace(None)
    return {(Path(name), line) for name, line in reached}


def statements(path: Path):
    """(first line, own lines) of each listed statement: the lines of its
    source that are not inside a statement it contains."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or docstring:
            continue
        inner = (range(child.lineno, child.end_lineno + 1) for child in ast.walk(node)
                 if child is not node and isinstance(child, ast.stmt))
        yield node.lineno, set(range(node.lineno, node.end_lineno + 1)).difference(*inner)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", action="store_true", help="also run the 60-run sweep")
    args = parser.parse_args()
    package = Path(importlib.util.find_spec("isoflow").submodule_search_locations[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        configs = [str(package / "configs" / name) for name in ("gaussian_slab.cfg", "quadratic_slab.cfg")]
        for n, text in enumerate(sweep_configs() if args.sweep else ()):
            path = Path(tmp) / f"sweep{n}.cfg"
            path.write_text(text)
            configs.append(str(path))
        reached = run_all(configs, Path(tmp), str(package))
    unreached = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        unreached += [f"{path.relative_to(package.parents[1])}:{first}: {source[first - 1].strip()}"
                      for first, own in sorted(statements(path)) if reached.isdisjoint((path, n) for n in own)]
    print(*unreached, f"{len(unreached)} statements no run reached", sep="\n")


if __name__ == "__main__":
    main()
