"""Smoke tests for scripts/program_lines.py and the README's Python example."""

import os
import subprocess
import sys
from pathlib import Path

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
