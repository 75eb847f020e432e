"""Import guard: isoflow runs on numpy alone and imports no part of scipy.

Importing scipy.special or scipy.linalg alone costs more than the rest of a
cold run, so the runtime computes its Gaussian CDF and quantile (a numpy
erfc and Wichura's AS241), the spline's tridiagonal solve (a dgtsv port),
the spectral gap (Lanczos on the pencil's Green's operator) and the
unequal-grid profile comparison (a cubic Hermite interpolant through each
profile's exact slopes) in numpy.  The guard covers a full `isoflow all`
on both bundled configs and a tilted-vs-perpendicular comparison on
different volume grids.

A cold `isoflow all` also loads neither numpy.random nor numpy.polynomial:
its one random draw (the pushforward intervals) uses the standard
library's random.Random, and its Gauss-Legendre rules are tabulated.  Only
the tilted whole-space profile loads numpy.polynomial, for hermgauss, so
that check reads sys.modules before the tilted profile is built.
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
numpy_extras = sorted(m for m in sys.modules if m.startswith(("numpy.random", "numpy.polynomial")))
d = isoflow.Density(isoflow.QuadraticWeight(1.0, 0.3, 0.0), 0.5, 2, (-float("inf"), float("inf")))
tilted = isoflow.tilted_profile_wholespace(d, [0.6, 0.8], grid_size=33)
cmp = isoflow.compare_profiles(tilted, isoflow.build_profile(d, "perpendicular", grid_size=49))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "n_grid": int(cmp.grid.size), "verdict": cmp.verdict, "loaded": loaded,
                  "numpy_extras": numpy_extras}))
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
    assert report["n_grid"] == 49  # the grids differ, so the profiles were interpolated
    assert report["verdict"] != "violation"
    assert report["loaded"] == []
    assert report["numpy_extras"] == []
