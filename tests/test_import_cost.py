"""Import cost: importing the package or its CLI must not load scipy.

The runtime needs numpy only; scipy is a test extra.  scipy.special alone
used to be most of a cold `spirallike` call.  Nor may the import build the
analysis module's scan tables, which the first call that needs one builds,
or load the standard modules that only some calls use: json (--measure and
--format json import it where they read or write) and fractions/decimal
(the polylog tables are float literals).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code):
    """stdout lines of a fresh interpreter that runs code with this checkout's src/ on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


@pytest.mark.parametrize("module", ["spirallike", "spirallike.cli"])
def test_import_loads_no_scipy(module):
    module_file, loaded = _run(
        f"import sys, {module}, spirallike; print(spirallike.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert Path(module_file).resolve().is_relative_to(SRC)
    assert loaded == "[]"


def test_import_builds_no_scan_table():
    sizes = _run(
        "import spirallike, spirallike.analysis as a; "
        "print(a._unit_circle.cache_info().currsize, a._goodman_ladder.cache_info().currsize)"
    )
    assert sizes == ["0 0"]


def test_cli_import_loads_no_unused_module():
    (loaded,) = _run(
        "import sys, spirallike.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('fractions', 'decimal', 'json', 'scipy')))"
    )
    assert loaded == "[]"
