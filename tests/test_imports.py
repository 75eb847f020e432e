"""Import guard: a full `isoflow all` run imports numpy and no part of scipy.

Importing scipy.special or scipy.linalg alone costs more than the rest of a
cold run, so the runtime computes its Gaussian CDF and quantile (a numpy
erfc and Wichura's AS241), the spline's tridiagonal solve (a dgtsv port) and
the spectral gap (Lanczos on the pencil's Green's operator) in numpy.  Only
the unequal-grid branch of `compare_profiles`, which no command takes,
imports scipy's PCHIP.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path
import isoflow
from isoflow.cli import main

configs = Path(isoflow.__file__).parent / "configs"
codes = [main(["all", "--config", str(configs / f"{name}.cfg"), "--out", str(Path(sys.argv[1]) / name)])
         for name in ("gaussian_slab", "quadratic_slab")]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "loaded": loaded}))
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
    assert report["codes"] == [0, 0]
    assert report["loaded"] == []
