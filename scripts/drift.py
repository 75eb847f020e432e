"""Compare every output of the in-process `isoflow all` runs between a parent and this checkout.

    python scripts/drift.py PARENT

PARENT is a git revision of this repository, or a directory that holds
src/isoflow.  Each side's src/isoflow is copied, without __pycache__, into a
temporary directory, and one child process per side runs `isoflow all` in
process from that copy on each config, with the same relative config and
output paths on both sides.  The runs are the 63 of a change's evidence:
both bundled configs, the 60-run sweep of scripts/program_lines.py and the
convex counterexample (quadratic -0.2, 0, 0 on R) with expect_bound.
drift(parent, configs) runs any other set, given as config texts by name.

Prints what differs run by run: the exit code, stderr, each record's status
and each file.  For a CSV or JSON file whose content moved it prints the
largest absolute and relative move of each column or leaf (wall_time_s, the
one leaf that differs between identical runs, is left out of every
record).  Exits 1 when anything differs, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))
from program_lines import sweep_configs  # noqa: E402  (the one sweep list)

CONVEX = ("[density]\nweight = quadratic\nparams = -0.2, 0, 0\nc = 0.5\nslab = -inf, inf\n"
          "\n[run]\nexpect_bound = true\n")

# run in each side's work directory with that side's src first on the path:
# every config under cfg/, its outputs under out/, one JSON line of results
CHILD = """
import contextlib, io, json, os, sys, traceback
from isoflow.cli import main
results = {}
for name in sorted(os.listdir("cfg")):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(["all", "--config", "cfg/" + name, "--out", "out/" + name])
        except Exception:
            code, err = "raised", io.StringIO(traceback.format_exc())
    results[name] = {"code": code, "stderr": err.getvalue()}
print(json.dumps(results))
"""


def copy_side(parent: str, dest: Path) -> None:
    """src/isoflow of the parent (a directory or a git revision) under dest."""
    ignore = shutil.ignore_patterns("__pycache__")
    if Path(parent).is_dir():
        shutil.copytree(Path(parent) / "src" / "isoflow", dest / "src" / "isoflow", ignore=ignore)
        return
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", parent, "src/isoflow"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar:  # the archive of src/isoflow: its directories and regular files
            if member.isfile():
                path = dest / member.name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())


def start_side(work: Path, configs: dict[str, str]) -> subprocess.Popen:
    (work / "cfg").mkdir(parents=True)
    for name, text in configs.items():
        (work / "cfg" / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-c", CHILD], cwd=work, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish_side(child: subprocess.Popen) -> dict:
    out, err = child.communicate()
    if child.returncode != 0:
        sys.exit(f"drift: a side's child process failed:\n{err}")
    return json.loads(out.splitlines()[-1])


def without_timings(node):
    if isinstance(node, dict):
        return {key: without_timings(value) for key, value in node.items() if key != "wall_time_s"}
    if isinstance(node, list):
        return [without_timings(value) for value in node]
    return node


def leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}/{i}")
    else:
        yield path, node


def statuses(out: Path) -> dict:
    """Each JSON record's status and its verdicts' statuses, by file."""
    found = {}
    for path in sorted(out.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        found[path.name] = [record.get("status"), *(v.get("status") for v in record.get("verdicts", []))]
    return found


def move(a: str, b: str) -> tuple[float, float] | None:
    """The absolute and relative move between two numbers written as text, None if either is not one."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    gap = abs(x - y)
    if not math.isfinite(gap):  # an infinity or a nan on one side only
        return math.inf, math.inf
    return gap, gap / max(abs(x), abs(y))


def field_moves(pairs) -> list[str]:
    """One line per field whose values moved: its largest absolute and relative move, or 'changed'."""
    moved = {}
    for field, a, b in pairs:
        if a == b:
            continue
        gap = move(a, b) if not isinstance(a, bool) and not isinstance(b, bool) else None
        worst = moved.setdefault(field, [0.0, 0.0, 0, gap is None])
        worst[2] += 1
        if gap is None:
            worst[3] = True
        else:
            worst[0], worst[1] = max(worst[0], gap[0]), max(worst[1], gap[1])
    return [f"{field}: {'changed' if text else f'max abs {gap:.3e}, max rel {rel:.3e}'} ({count} moved)"
            for field, (gap, rel, count, text) in moved.items()]


def compare_file(a: Path, b: Path) -> list[str] | None:
    """None when the two files hold the same output, else what moved."""
    if a.suffix == ".json":
        ra, rb = (without_timings(json.loads(p.read_text(encoding="utf-8"))) for p in (a, b))
        if json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True):
            return None
        la, lb = dict(leaves(ra)), dict(leaves(rb))
        keys = [k for k in la if k in lb]
        lines = field_moves((k, la[k], lb[k]) for k in keys)
        lines += [f"{k}: only in parent" for k in la if k not in lb] + [f"{k}: only here" for k in lb if k not in la]
        return lines or ["a signed zero moved"]
    if a.read_bytes() == b.read_bytes():
        return None
    if a.suffix != ".csv":
        return ["bytes differ"]
    ta, tb = (list(csv.reader(io.StringIO(p.read_text(encoding="utf-8")))) for p in (a, b))
    if len(ta) != len(tb) or not ta or ta[0] != tb[0]:
        return [f"shape or header differs: {len(ta)} against {len(tb)} rows"]
    header = ta[0]
    return field_moves((header[i] if i < len(header) else f"column {i}", x, y)
                       for ra, rb in zip(ta[1:], tb[1:]) for i, (x, y) in enumerate(zip(ra, rb))) or [
        "rows differ in length"]


def evidence_configs() -> dict[str, str]:
    """The 63 runs of a change's evidence, config text by name."""
    bundled = ROOT / "src" / "isoflow" / "configs"
    configs = {name: (bundled / name).read_text(encoding="utf-8") for name in ("gaussian_slab.cfg", "quadratic_slab.cfg")}
    configs.update({f"sweep{n:02d}.cfg": text for n, text in enumerate(sweep_configs())})
    configs["convex.cfg"] = CONVEX
    return configs


def drift(parent: str, configs: dict[str, str]) -> int:
    """Run configs on the parent and on this checkout, print what differs; 1 if anything does, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp, "parent"), "here": Path(tmp, "here")}
        copy_side(parent, sides["parent"])
        copy_side(str(ROOT), sides["here"])
        children = {side: start_side(work, configs) for side, work in sides.items()}
        results = {side: finish_side(child) for side, child in children.items()}
        drifted = files = 0
        for name in configs:
            a, b = results["parent"][name], results["here"][name]
            out_a, out_b = (sides[side] / "out" / name for side in ("parent", "here"))
            lines = []
            if a["code"] != b["code"]:
                lines.append(f"exit code {a['code']} -> {b['code']}")
            if a["stderr"] != b["stderr"]:
                lines.append(f"stderr {a['stderr']!r} -> {b['stderr']!r}")
            st_a, st_b = statuses(out_a) if out_a.is_dir() else {}, statuses(out_b) if out_b.is_dir() else {}
            lines += [f"{f} statuses {st_a.get(f)} -> {st_b.get(f)}" for f in sorted(st_a.keys() | st_b.keys())
                      if st_a.get(f) != st_b.get(f)]
            names_a = {p.name for p in out_a.iterdir()} if out_a.is_dir() else set()
            names_b = {p.name for p in out_b.iterdir()} if out_b.is_dir() else set()
            lines += [f"{f}: only in parent" for f in sorted(names_a - names_b)]
            lines += [f"{f}: only here" for f in sorted(names_b - names_a)]
            for f in sorted(names_a & names_b):
                files += 1
                moved = compare_file(out_a / f, out_b / f)
                lines += [f"{f} {line}" for line in moved or ()]
            if lines:
                drifted += 1
                print(f"{name}:", *(f"  {line}" for line in lines), sep="\n")
    print(f"{drifted} of {len(configs)} runs drift; {files} files compared")
    return 1 if drifted else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision, or a directory holding src/isoflow")
    return drift(parser.parse_args().parent, evidence_configs())


if __name__ == "__main__":
    sys.exit(main())
