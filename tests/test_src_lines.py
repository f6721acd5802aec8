"""perf/src_lines.py: the source counts, read from a small package written here."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULES = {
    "__init__.py": '''
        """A package."""

        _EXPORTS = {"shapes": ("Square", "area"), "other": ("Other",)}
    ''',
    "shapes.py": '''
        """Shapes."""

        import math

        import numpy as np


        class Square:
            """Counted: side, area, scaled, unit; not _half, __init__ or Inner's."""

            size = 1.0

            def __init__(self, size):
                self.size = size

            @property
            def side(self):
                return self.size

            def area(self):
                # a comment line
                return self.size**2

            def _half(self):
                return self.size / 2

            async def scaled(self, k):
                return Square(k * self.size)

            @classmethod
            def unit(cls):
                return cls(1.0)

            class Inner:
                def hidden(self):
                    return None


        class Helper:
            def not_exported(self):
                return math.pi


        def area(shape):
            return np.float64(shape.area())
    ''',
    "other.py": '''
        class Other:
            def method(self):
                return 0
    ''',
}


def test_counts_of_a_small_package(tmp_path):
    package = tmp_path / "spirallike"
    package.mkdir()
    for name, text in MODULES.items():
        (package / name).write_text(textwrap.dedent(text).lstrip("\n"), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    counts = json.loads(out)
    assert counts["public_names"] == 3
    # Square's side, area, scaled and unit, and Other's method
    assert counts["public_methods"] == 5
    assert counts["runtime_dependencies"] == ["numpy"]
    assert counts["code_lines_per_module"] == {"__init__": 1, "other": 3, "shapes": 26}
    assert counts["code_lines"] == 30
    assert counts["physical_lines"] == sum(
        len(textwrap.dedent(text).lstrip("\n").splitlines()) for text in MODULES.values()
    )
