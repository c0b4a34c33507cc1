"""Per-layer spans for the traced run, installed from outside the library.

`install` wraps each target callable and rebinds the wrapper in every
`heckelab` module that bound the original at import time (for example `cli`
imports `verify_model`, `models` imports `hecke_mul`, `fdmod` imports the
`linalg` routines).  Function-local imports resolve through the defining
module's attribute at call time, so they pick up the wrapper too.  Methods are
wrapped on their class.

A span's self time is its duration minus the time covered by its child spans;
its total time counts only the outermost activation of the callable, so
recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# module -> callables; a dotted callable is a method of a class in that module.
TARGETS = {
    "cli": [
        "suite_blocks",
        "suite_models",
        "suite_modules",
        "suite_scheme",
        "suite_dga",
        "suite_endo",
    ],
    "gf": ["FieldCtx.__init__"],
    "torus": ["GroupAlgElt.conv", "orbit_idempotent"],
    "hecke": ["hecke_mul", "is_central", "enumerate_supersingular"],
    "rings": ["Mat2.mul", "Mat2.add", "Mat2.sub", "LaurentPoly.mul"],
    "models": [
        "verify_model",
        "build_model",
        "ModelMap.image_of_block",
        "ModelMap.image_of_weyl",
        "os_resolution_check",
        "_relation_checks",
        "_hom_check",
        "_independence_check",
        "_power_identity_checks",
        "_parity_check",
    ],
    "linalg": ["rref", "rank", "nullspace", "solve", "inverse", "Span.add"],
    "fdmod": [
        "decompose",
        "ext_group",
        "ext_nodal_line",
        "stable_hom_S",
        "stable_endo_supersingular",
        "supersingular_restriction_splits",
    ],
    "scheme": ["correspondence_table"],
    "dga": ["dga_d", "dga_mul", "leibniz_defect", "dga_cohomology", "degree0_check"],
}

# verify_model's phase helpers are reported as models.verify.<phase>.
PHASES = {
    "_relation_checks": "relations",
    "_hom_check": "hom",
    "_independence_check": "independence",
    "_power_identity_checks": "power_identities",
    "_parity_check": "parity",
}

# Spans whose total time (not only self time) is reported.
TOTAL_TIME = {f"cli.{name}" for name in TARGETS["cli"]} | {
    "models.verify_model",
    *(f"models.verify.{phase}" for phase in PHASES.values()),
}


def span_name(module, callable_name):
    if module == "models" and callable_name in PHASES:
        return f"models.verify.{PHASES[callable_name]}"
    return f"{module}.{callable_name}"


def span_names():
    return [span_name(m, c) for m, names in TARGETS.items() for c in names]


def _hecke_term_pairs(x, y, *args, **kwargs):
    return len(x.terms) * len(y.terms)


# span -> counter computed from the call's arguments, reported as <span>.<counter>
ARG_COUNTERS = {"hecke.hecke_mul": ("term_pairs", _hecke_term_pairs)}


class Tracer:
    """Span statistics kept in memory for one traced run."""

    def __init__(self):
        self._stack = []  # one [child seconds] cell per open span
        self._depth = Counter()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = Counter()

    def wrap(self, name, fn):
        stack, depth = self._stack, self._depth
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        counter = ARG_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counters[f"{name}.{counter[0]}"] += counter[1](*args, **kwargs)
            cell = [0.0]
            stack.append(cell)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += elapsed - cell[0]
                if not depth[name]:
                    total_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def metrics(self):
        """Flat `<span>.calls` / `.self_s` / `.total_s` / counter values."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if name in TOTAL_TIME:
                out[f"{name}.total_s"] = self.total_s[name]
        for name, (counter, _) in ARG_COUNTERS.items():
            out[f"{name}.{counter}"] = self.counters[f"{name}.{counter}"]
        return out


def _rebind(original, wrapped):
    """Replace `original` by `wrapped` in every loaded heckelab module.

    Values of module-level dicts are replaced too: `cli` dispatches its suites
    through such a table.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "heckelab" or mod_name.startswith("heckelab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


def install(tracer):
    """Wrap every target; return {span name: reason} for targets not found."""
    absent = {}
    for mod_name, names in TARGETS.items():
        try:
            module = importlib.import_module(f"heckelab.{mod_name}")
        except ImportError as exc:
            for c in names:
                absent[span_name(mod_name, c)] = f"cannot import heckelab.{mod_name}: {exc}"
            continue
        for c in names:
            name = span_name(mod_name, c)
            owner_name, _, attr = c.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if not callable(raw):
                    absent[name] = f"heckelab.{mod_name}.{c} not found"
                    continue
                setattr(owner, attr, tracer.wrap(name, raw))
            else:
                raw = getattr(module, attr, None)
                if not callable(raw):
                    absent[name] = f"heckelab.{mod_name}.{c} not found"
                    continue
                _rebind(raw, tracer.wrap(name, raw))
    return absent
