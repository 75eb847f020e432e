"""Import guard: a full `isoflow all` run needs only scipy.special and scipy.linalg.

scipy.integrate, scipy.optimize and scipy.interpolate dominate the cold
start of the command line; the runtime replaces them with small numpy
code (spline, adaptive quadrature, safeguarded Newton).  Only the unequal
grid branch of `compare_profiles`, which no command takes, imports PCHIP.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.interpolate", "scipy.sparse")

SCRIPT = """
import json, sys
from pathlib import Path
import isoflow
from isoflow.cli import main

configs = Path(isoflow.__file__).parent / "configs"
codes = [main(["all", "--config", str(configs / f"{name}.cfg"), "--out", str(Path(sys.argv[1]) / name)])
         for name in ("gaussian_slab", "quadratic_slab")]
print(json.dumps({"codes": codes, "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)


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
