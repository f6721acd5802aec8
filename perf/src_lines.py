"""Size of the package source: lines, code lines, public surface, runtime dependencies.

    python perf/src_lines.py [SRC]

SRC is the directory that holds the `spirallike` package (default: the
repository's src/).  Prints one JSON object:

- physical_lines: every line of every module;
- code_lines: lines that hold a token of code, so no blank line, no line
  that is only a comment, and no docstring line (the first statement of a
  module, class or function when it is a string), per module and in total;
- public_names: len(spirallike.__all__), read from the package's _EXPORTS
  table without importing it;
- public_methods: the methods and properties whose names do not start with
  an underscore, defined in the body of a class that _EXPORTS names, read
  from the module _EXPORTS lists the class under;
- runtime_dependencies: the top-level modules that the package imports and
  that are neither the standard library nor the package itself.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """Lines of text that hold code: no blank, comment-only or docstring line."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def _imported_modules(tree):
    """Top-level names of the absolute imports in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def _exports(init_tree):
    """The _EXPORTS table of the package's __init__: {module: names}."""
    for node in init_tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError("no _EXPORTS table in the package's __init__")


def _public_methods(trees, exports):
    """The public methods and properties defined in the classes that exports names."""
    return sum(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
        for module, names in exports.items()
        for node in trees[module].body
        if isinstance(node, ast.ClassDef) and node.name in names
        for item in node.body
    )


def count(src):
    """The counts for the spirallike package under the directory src, as a dict."""
    package = Path(src) / "spirallike"
    modules, trees, physical, imported = {}, {}, 0, set()
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        trees[path.stem] = tree = ast.parse(text)
        physical += len(text.splitlines())
        modules[path.stem] = code_lines(text)
        imported |= _imported_modules(tree)
    exports = _exports(trees["__init__"])
    external = imported - set(sys.stdlib_module_names) - {"spirallike"}
    return {
        "physical_lines": physical,
        "code_lines": sum(modules.values()),
        "code_lines_per_module": modules,
        "public_names": len({name for names in exports.values() for name in names}),
        "public_methods": _public_methods(trees, exports),
        "runtime_dependencies": sorted(external),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src = argv[0] if argv else Path(__file__).resolve().parents[1] / "src"
    print(json.dumps(count(src), indent=2))


if __name__ == "__main__":
    main()
