"""Import cost: `import spirallike` must not load scipy.optimize.

scipy.optimize costs most of scipy's import time; the package has no use
for it since refine_jump bisects the monotone boundary trace.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        "import sys, spirallike; "
        "print(spirallike.__file__); print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    module_file, loaded = out.stdout.split()
    assert Path(module_file).resolve().is_relative_to(SRC)
    assert loaded == "False"
