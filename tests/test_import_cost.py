"""Import cost: importing the package or its CLI must not load scipy.

The runtime needs numpy only; scipy, mpmath and hypothesis are test extras.
scipy.special alone used to be most of a cold `spirallike` call.  Nor may
the import build the analysis module's scan tables, which the first call
that needs one builds, or load the standard modules that only some calls
use: json (--measure and --format json import it where they read or write),
fractions/decimal (the polylog tables are float literals) and dataclasses
(the package's record types are built without it).

A cold process compiles every package module it imports when no bytecode
is cached, so `import spirallike` loads no submodule, `import spirallike.cli`
only the errors, and each subcommand the modules its branch runs.  The
package's public names still resolve, on first access, to the objects their
defining modules hold.
"""

import json
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


# top-level packages that neither the CLI import nor a subcommand may load
_FORBIDDEN = (
    "sorted(m for m in sys.modules if m.split('.')[0] in "
    "('dataclasses', 'decimal', 'fractions', 'hypothesis', 'json', 'mpmath', 'scipy'))"
)


def test_cli_import_loads_no_unused_module():
    (loaded,) = _run(f"import sys, spirallike.cli; print({_FORBIDDEN})")
    assert loaded == "[]"


# the public names by defining module
HOME = {
    "analysis": [
        "BetaTrace", "GrowthReport", "JumpEstimate", "beta_trace", "default_r_schedule",
        "detect_maximal_sector", "estimate_max_jump", "goodman_check", "growth_exponent",
        "hansen_ratio", "max_modulus", "refine_jump", "spirallikeness_margin",
    ],
    "boundary_measure": ["BoundaryMeasure", "load_measure"],
    "correspondence": ["spirallike_of", "starlike_of"],
    "errors": [
        "AccuracyError", "ConfigError", "DomainError", "InconsistencyError",
        "MeasureValidationError", "ParameterError", "SpirallikeError",
    ],
    "gallery": [
        "G0Function", "HansenFunction", "HansenParams", "counterexample_for",
        "g0_correction", "hansen_build", "koebe_power", "lemma_c_margins",
    ],
    "polylog": ["li2", "li3"],
    "representation": ["MeasureFunction", "SpiralFunction"],
    "spiral_geometry": [
        "STARLIKE", "SpiralAngle", "SpiralSector", "arg_lambda", "principal_angle",
        "sector_contains", "spiral_point",
    ],
    "threshold": ["DEFAULT_C0", "q_function"],
}

_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'spirallike')"
MEASURE_BRANCH = ["boundary_measure", "cli", "errors", "polylog", "representation",
                  "spiral_geometry"]
GALLERY_BRANCH = ["analysis", "cli", "correspondence", "errors", "gallery", "polylog",
                  "representation", "spiral_geometry", "threshold"]
# and the CSV writer, for the subcommands that print a table
TABLE_BRANCH = sorted(GALLERY_BRANCH + ["formatting"])
# qtheta prints the Q table: no function handle, no analysis routine
QTHETA_BRANCH = ["cli", "errors", "formatting", "threshold"]


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("spirallike", ["spirallike"]),
        ("spirallike.cli", ["spirallike", "spirallike.cli", "spirallike.errors"]),
        # the argument checks live in errors, so neither loads spiral_geometry
        ("spirallike.polylog", ["spirallike", "spirallike.errors", "spirallike.polylog"]),
        ("spirallike.threshold", ["spirallike", "spirallike.errors", "spirallike.threshold"]),
    ],
    ids=["spirallike", "spirallike.cli", "spirallike.polylog", "spirallike.threshold"],
)
def test_import_loads_only_these_package_modules(module, loaded):
    assert _run(f"import sys, {module}; print({_LOADED})") == [str(loaded)]


# the calls of one cold CLI cycle in the benchmark
@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["eval", "--gallery", "koebe", "--z", "0.5"], MEASURE_BRANCH),
        (["verify", "--gallery", "hansen", "--lambda", "0.7853981633974483",
          "--A", "3.141592653589793"], GALLERY_BRANCH),
        (["growth", "--gallery", "hansen", "--lambda", "0.7853981633974483",
          "--A", "3.141592653589793", "--r-k", "2:8"], TABLE_BRANCH),
        (["beta", "--gallery", "g0", "--lambda", "0.6"], TABLE_BRANCH),
        (["qtheta"], QTHETA_BRANCH),
    ],
    ids=["eval", "verify", "growth", "beta", "qtheta"],
)
def test_subcommand_loads_only_its_modules(argv, loaded):
    rc, names, forbidden = _run(
        "import os, sys, spirallike.cli as cli; "
        f"print(cli.main({argv!r} + ['--out', os.devnull])); print({_LOADED}); "
        f"print({_FORBIDDEN})"
    )
    assert rc == "0"
    assert names == str(["spirallike"] + [f"spirallike.{m}" for m in loaded])
    assert forbidden == "[]"


def test_public_names_are_their_defining_modules_objects():
    (report,) = _run(
        "import importlib, json, spirallike\n"
        "from spirallike import *\n"
        f"home = {HOME!r}\n"
        "out = {'all': spirallike.__all__, 'bad': []}\n"
        "for module, names in home.items():\n"
        "    mod = importlib.import_module('spirallike.' + module)\n"
        "    for name in names:\n"
        "        obj = vars(mod)[name]\n"
        "        if not (globals()[name] is obj and getattr(spirallike, name) is obj):\n"
        "            out['bad'].append(name)\n"
        "print(json.dumps(out))"
    )
    out = json.loads(report)
    assert sorted(out["all"]) == sorted(name for names in HOME.values() for name in names)
    assert out["bad"] == []


@pytest.mark.parametrize("name", ["section_search_max", "g0_log_derivative"])
def test_retired_names_are_not_public(name):
    # section_search_max is the former name of analysis's internal
    # _section_search; g0_log_derivative was an
    # alias of G0Function().log_derivative
    import spirallike

    with pytest.raises(AttributeError):
        getattr(spirallike, name)


def test_package_attribute_follows_its_module():
    # a submodule read from the package before any import is the submodule;
    # a rebinding in the defining module (a monkeypatch, a tracer's wrapper)
    # and its undoing both show through the package
    lines = _run(
        "import sys, spirallike\n"
        "print('spirallike.analysis' in sys.modules)\n"
        "analysis = spirallike.analysis\n"
        "print(analysis is sys.modules['spirallike.analysis'])\n"
        "original = spirallike.beta_trace\n"
        "analysis.beta_trace = stand_in = lambda *a: None\n"
        "print(spirallike.beta_trace is stand_in)\n"
        "analysis.beta_trace = original\n"
        "print(spirallike.beta_trace is original)\n"
        "print(spirallike.gallery.__name__)\n"
        "print(hasattr(spirallike, 'no_such_name'))"
    )
    assert lines == ["False", "True", "True", "True", "spirallike.gallery", "False"]


def test_dir_lists_every_public_name():
    import spirallike

    assert set(spirallike.__all__) <= set(dir(spirallike))
