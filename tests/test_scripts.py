"""Smoke tests for scripts/program_lines.py, scripts/drift.py and the README's Python example."""

import importlib.util
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_readme_python_example_prints_what_it_says():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    # each print line ends in a comment that gives its output
    expected = [line.split("#", 1)[1].strip().replace("'", "")
                for line in block.splitlines() if line.startswith("print(")]
    done = run_python("-c", block)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == expected


def test_program_lines_lists_unreached_statements_with_defaults():
    done = run_python(str(ROOT / "scripts" / "program_lines.py"))
    assert done.returncode == 0, done.stderr
    *listed, last = done.stdout.splitlines()
    assert last == f"{len(listed)} statements no run reached"
    assert listed and all(line.startswith("src/isoflow/") for line in listed)
    assert not any(line.split(": ", 1)[1].startswith("raise") for line in listed)


def test_program_lines_traces_its_own_checkout_without_pythonpath():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "program_lines.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    *listed, last = done.stdout.splitlines()
    assert last == f"{len(listed)} statements no run reached"


def load_drift():
    spec = importlib.util.spec_from_file_location("drift", ROOT / "scripts" / "drift.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drift_reads_no_move_against_itself_and_a_planted_ulp(tmp_path, capsys):
    """The checkout against itself drifts nowhere; one ulp planted in the
    transport grid's span moves transport.csv and the pushforward residual,
    and drift says so and returns 1."""
    drift = load_drift()
    configs = {"gaussian_slab.cfg": (ROOT / "src" / "isoflow" / "configs" / "gaussian_slab.cfg").read_text(encoding="utf-8")}
    assert drift.drift(str(ROOT), configs) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 1 runs drift; 16 files compared"]

    shutil.copytree(ROOT / "src" / "isoflow", tmp_path / "src" / "isoflow", ignore=shutil.ignore_patterns("__pycache__"))
    transport = tmp_path / "src" / "isoflow" / "transport.py"
    span = "7.3487961028006765"
    text = transport.read_text(encoding="utf-8")
    assert text.count(span) == 1
    transport.write_text(text.replace(span, repr(math.nextafter(float(span), 8.0))), encoding="utf-8")
    assert drift.drift(str(tmp_path), configs) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gaussian_slab.cfg:" and lines[-1] == "1 of 1 runs drift; 16 files compared"
    assert any(line.startswith("  transport.csv s: max abs ") for line in lines)
    assert any("/metrics/pushforward_max_residual: max abs" in line for line in lines)


def test_drift_copies_a_git_revision_file_for_file(tmp_path):
    """A revision's src/isoflow is copied from git's archive byte for byte,
    every tracked file and nothing else."""
    git = ["git", "-C", str(ROOT)]
    if shutil.which("git") is None or subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("the checkout is not a git work tree")
    load_drift().copy_side("HEAD", tmp_path)
    tracked = subprocess.run([*git, "ls-tree", "-r", "--name-only", "HEAD", "src/isoflow"],
                             capture_output=True, text=True, check=True).stdout.split()
    copied = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert tracked and copied == sorted(tracked)
    for name in tracked:
        blob = subprocess.run([*git, "show", f"HEAD:{name}"], capture_output=True, check=True).stdout
        assert (tmp_path / name).read_bytes() == blob
