"""Every top-level definition of the package is reached by the package or the
scripts, not only by the tests.

A definition counts as reached when its identifier appears as a name, an
attribute or an imported name in some other part of `src/heckelab/*.py`
(`__init__.py` excluded: an export is not a use) or anywhere in
`scripts/*.py`.  The match is by identifier, so it is conservative: it never
calls a used name unused.
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
    "weyl_inv",
    "delta_seq",
    "identity_elt",
    "iota_elt",
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


def _unreached():
    """{name: module file} of the top-level definitions whose identifier is
    used nowhere in the package outside their own definition, nor in the
    scripts."""
    uses = {}  # identifier -> the top-level statements that use it
    definitions = []
    for path in sorted(SCRIPTS.glob("*.py")):
        for name in _identifiers(ast.parse(path.read_text())):
            uses.setdefault(name, set()).add(path)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((stmt, path.name))
            for name in _identifiers(stmt):
                uses.setdefault(name, set()).add(stmt)
    return {
        stmt.name: module
        for stmt, module in definitions
        if not uses.get(stmt.name, set()) - {stmt}
    }


def test_every_definition_is_reached_or_awaits_a_suite():
    stray = {name: module for name, module in _unreached().items() if name not in AWAITING_A_SUITE}
    assert not stray, f"defined but used by neither the package nor the scripts: {stray}"


def test_the_allowlist_only_names_unreached_definitions():
    stale = AWAITING_A_SUITE - set(_unreached())
    assert not stale, f"gone or now reached, drop from AWAITING_A_SUITE: {sorted(stale)}"
