"""Import cost: importing the package or its CLI must not load scipy.

The runtime needs numpy only; scipy is a test extra.  scipy.special alone
used to be most of a cold `spirallike` call.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["spirallike", "spirallike.cli"])
def test_import_loads_no_scipy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (
        f"import sys, {module}, spirallike; print(spirallike.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    module_file, loaded = out.stdout.splitlines()
    assert Path(module_file).resolve().is_relative_to(SRC)
    assert loaded == "[]"
