"""The benchmark's own tests: smoke run and the no-sources refusal.

Run from the checkout root:  python -m pytest benchmark/test_benchmark.py
(about two minutes; not part of the Tier-1 suite, whose testpaths is tests/).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.getcwd()


def test_smoke_emits_every_metric_and_catches_a_planted_failure():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_without_sources():
    """A directory with only BENCHMARK.json and benchmark/ must be refused."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(RUN), os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        for workload in ("cli_all", "transport_sweep"):
            proc = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            assert proc.returncode != 0, workload
            assert proc.stdout.strip() == "", workload
    finally:
        shutil.rmtree(bare, ignore_errors=True)
