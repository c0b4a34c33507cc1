"""The package keeps exactly the memos that the README lists.

The README's "Conventions worth knowing" names every definition of
`src/heckelab/*.py` that keeps its results through `functools.cache`,
`functools.lru_cache` or `functools.cached_property`.  This test parses the
package and compares the decorated definitions with that list.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckelab"
MEMO_DECORATORS = {"cache", "lru_cache", "cached_property"}

# module.qualified name of each memoised definition, as the README lists
# them.  Shared data is handed on as arguments instead; this list may only
# shrink.
MEMOS = {
    "scheme.build_scheme",
}


def _decorator_name(node):
    """`cache` for @cache, @functools.cache and @lru_cache(...) alike."""
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _memoised():
    out = set()

    def walk(body, prefix):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                walk(stmt.body, f"{prefix}{stmt.name}.")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if MEMO_DECORATORS & {_decorator_name(d) for d in stmt.decorator_list}:
                    out.add(f"{prefix}{stmt.name}")
                walk(stmt.body, f"{prefix}{stmt.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()).body, f"{path.stem}.")
    return out


def test_the_memoised_definitions_are_the_listed_ones():
    assert _memoised() == MEMOS


def test_the_readme_names_every_listed_memo():
    readme = (ROOT / "README.md").read_text()
    for name in MEMOS:
        _, _, short = name.partition(".")
        assert f"`{short}`" in readme, short
