"""The test settings report a failing test.

pyproject.toml turns every warning into an error.  The hypothesis plugin
raises a DeprecationWarning ("mypy_extensions.TypedDict is deprecated")
inside its pytest_runtest_makereport hook while it reports a failing
@given test; as an error, that warning ends the whole run in INTERNALERROR
with no FAILED line.  The settings ignore that one warning, after "error",
since pytest applies the last matching entry.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers(0, 0))
def test_planted_failure(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    """A planted failing @given test, run under the repo's pytest settings,
    prints its FAILED line and no INTERNALERROR.  Plain asserts spare the
    child rewriting the hypothesis package (about 2 s without cached
    bytecode); the report fails the same way either way."""
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "--assert=plain", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output, output
    assert "FAILED test_planted.py::test_planted_failure" in output, output
