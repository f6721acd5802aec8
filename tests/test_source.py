"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    # invariants raise package errors; an assert vanishes under python -O
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no modules under {SRC}"
    hits = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert hits == []
