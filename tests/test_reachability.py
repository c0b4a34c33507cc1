"""Every top-level definition of the package, and every method of its
classes, is reached by the package or the scripts, not only by the tests.

A definition counts as reached when its identifier appears as a name, an
attribute or an imported name in some other part of `src/heckelab/*.py`
(`__init__.py` excluded: an export is not a use) or anywhere in
`scripts/*.py`.  The other parts of a class are its other methods and
statements; a method is reached from another method of its own class, a
class only from outside it.  Special methods (`__init__`, `__eq__`, ...)
are reached by the language and are not listed.  The match is by
identifier, so it is conservative: it never calls a used name unused.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckelab"
SCRIPTS = ROOT / "scripts"

# Certificates of paper statements that only the tests run, and constructors
# the tests build values with.  ROADMAP item 7 wires each into a suite or
# deletes it; this list may only shrink.
AWAITING_A_SUITE = {
    "generator_test",
    "sl2_spherical_restrictions",
    "center_elements",
    "freeness_check",
    "build_tilde_z",
    "restrict_to_sl2",
    "pgl2_reduce",
}

# Methods that only the tests call, as Class.method; this list may only
# shrink.
ONLY_TESTS_CALL = {
    "FieldCtx.coords_of",
    "FieldCtx.generator_idx",
    "ChainPoint.is_node",
}


def _identifiers(node):
    """Identifiers used in `node` as names, attributes or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
    return out


def _parts(stmt):
    """The parts of a top-level statement whose uses are told apart: a
    class's header and each statement of its body, else the statement."""
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.bases, *stmt.keywords, *stmt.decorator_list, *stmt.body]
    return [stmt]


def _unreached():
    """{name: module file} of the top-level definitions and the methods (as
    Class.method) whose identifier is used nowhere in the package outside
    their own definition, nor in the scripts."""
    uses = {}  # identifier -> the parts of top-level statements that use it
    definitions = []  # (name, identifier, its own parts, module file)
    for path in sorted(SCRIPTS.glob("*.py")):
        for name in _identifiers(ast.parse(path.read_text())):
            uses.setdefault(name, set()).add(path)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            parts = _parts(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((stmt.name, stmt.name, set(parts), path.name))
            if isinstance(stmt, ast.ClassDef):
                definitions += [
                    (f"{stmt.name}.{sub.name}", sub.name, {sub}, path.name)
                    for sub in stmt.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                ]
            for part in parts:
                for name in _identifiers(part):
                    uses.setdefault(name, set()).add(part)
    return {
        name: module
        for name, identifier, own, module in definitions
        if not uses.get(identifier, set()) - own
    }


ALLOWED = AWAITING_A_SUITE | ONLY_TESTS_CALL


def test_every_definition_is_reached_or_awaits_a_suite():
    stray = {name: module for name, module in _unreached().items() if name not in ALLOWED}
    assert not stray, f"defined but used by neither the package nor the scripts: {stray}"


def test_the_allowlist_only_names_unreached_definitions():
    stale = ALLOWED - set(_unreached())
    assert not stale, f"gone or now reached, drop from its allowlist: {sorted(stale)}"
