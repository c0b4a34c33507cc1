"""Verification CLI: runs the named suites and emits tables or JSON reports.

Exit codes: 0 all selected suites pass, 1 a suite failed, 2 bad configuration.
JSON output is byte-identical for identical (config, seed); wall-clock timings
appear only in the human-readable table.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field

from .dga import degree0_check, derivation_check, dga_cohomology
from .errors import ComparisonFailure, ConfigError, HeckeError, RelationViolation, WrongRegularity
from .fdmod import (
    decompose,
    ext_group,
    ext_nodal_line,
    stable_endo_nodes,
    stable_endo_supersingular,
    stable_hom,
    stable_hom_S,
    std_chi,
    std_module,
)
from .gf import FieldCtx, check_table_size, prime_power
from .hecke import enumerate_supersingular, idempotent_system
from .models import build_model, os_resolution_check, verify_models
from .scheme import correspondence_table
from .torus import GroupKind, TorusCtx, orbit_list_faults, orbit_pairs

SCHEMA_VERSION = 1
ALL_SUITES = ("blocks", "models", "modules", "scheme", "dga", "endo")


@dataclass
class RunConfig:
    q: int
    p: int = field(init=False)  # q = p^e, set from q
    e: int = field(init=False)
    ambient_degree: int = 0
    kinds: tuple = (GroupKind.GL2, GroupKind.SL2, GroupKind.PGL2)
    lambdas: tuple = ()  # exponents of the generator; empty means all units
    lmax: int = 6
    trunc_degree: int = 8
    window: int = 6
    suites: tuple = ALL_SUITES
    fmt: str = "table"
    seed: int = 0

    def __post_init__(self):
        p, e = prime_power(self.q)
        self.p, self.e = p, e
        # lambda = zeta^k depends on k mod q-1 only
        units = {k % (self.q - 1) for k in self.lambdas}
        if len(units) != len(self.lambdas):
            raise ConfigError(
                f"lambda exponents {list(self.lambdas)} name the same unit twice (mod {self.q - 1})"
            )
        for name, values in (("group", self.kinds), ("suite", self.suites)):
            repeated = sorted({str(v) for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"--{name} {', '.join(repeated)} named more than once")
        if not self.ambient_degree:
            self.ambient_degree = e
        if self.ambient_degree < 1 or self.ambient_degree % e != 0:
            raise ConfigError("ambient degree must be a positive multiple of e")
        check_table_size(p, self.ambient_degree)
        needs_odd = "scheme" in self.suites or GroupKind.PGL2 in self.kinds
        if needs_odd and p == 2:
            raise ConfigError("p = 2 is excluded for PGL2 and for the scheme suite")
        # GL2 has (q - 1)(q - 2) / 2 regular orbits, none at q = 2
        if "endo" in self.suites and self.q == 2:
            raise ConfigError("the endo suite needs a regular GL2 orbit, and q = 2 has none")
        if any(s not in ALL_SUITES for s in self.suites):
            raise ConfigError(f"unknown suite in {self.suites}")
        for name in ("lmax", "window", "trunc_degree"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if "models" in self.suites and self.trunc_degree < 2:
            raise ConfigError("the models suite needs trunc_degree >= 2")

    def to_obj(self):
        return {
            "q": self.q,
            "p": self.p,
            "e": self.e,
            "ambient_degree": self.ambient_degree,
            "kinds": [str(k) for k in self.kinds],
            "lambdas": list(self.lambdas),
            "lmax": self.lmax,
            "trunc_degree": self.trunc_degree,
            "window": self.window,
            "suites": list(self.suites),
            "seed": self.seed,
        }


def _tctx(config):
    fld = FieldCtx(config.p, config.ambient_degree)
    return TorusCtx(fld, config.q)


def _lambda_exponents(tctx, config):
    """The exponents e of the units lam = g^e to run: `--lambda`'s, or all."""
    return list(config.lambdas) or list(range(tctx.q - 1))


def _lambda_indices(tctx, config):
    return [tctx.value_i(e) for e in _lambda_exponents(tctx, config)]


# -- suites -------------------------------------------------------------------


def suite_blocks(tctx, config, lists):
    """Per kind, `idempotent_system`: the premises of `hecke.idempotent_system`
    and the list certificate (`counts_match`) on the run's `orbit_pairs`,
    `lists[kind]` = (classes, their `orbit_list_faults`)."""
    details = {}
    ok = True
    for kind in config.kinds:
        classes, (bad, fault) = lists[kind]
        orbits = sum(map(len, classes.values()))
        counts_ok = fault is None and not any(bad.values())
        good = idempotent_system(tctx, kind) and counts_ok
        reg = len(classes["regular"])
        details[str(kind)] = {
            "orbits": orbits,
            "regular": reg,
            "non_regular": orbits - reg,
            "idempotent_system": good,
            "counts_match": counts_ok,
        }
        ok = ok and good
    return ok, details


def suite_models(tctx, config, lists, gl2=None):
    """`verify_models` on the run's orbit lists, and the OS check on `gl2` =
    (the GL2 census, its verdict), passed when GL2 is in --group."""
    # a model that fails verification fails the suite but keeps the report
    details = {str(k): verify_models(tctx, k, config.lmax, lists[k]) for k in config.kinds}
    ok = all(det["all_pass"] for det in details.values())
    if gl2 is not None:
        census, certified = gl2
        lam_list = _lambda_indices(tctx, config)
        D = min(config.trunc_degree, 6)
        os_ok = True
        lambdas_resolved = orbit_checks = lambda_checks = 0
        if census.pairs:  # there is a regular GL2 orbit (q > 2)
            # the check reads the images of GL2_REG alone: any regular orbit
            # will do, and a first pair that is none fails with its census
            model = build_model(GroupKind.GL2, census.pairs[0], tctx)
            try:
                os_ok = all(rep["pass"] for rep in os_resolution_check(model, lam_list, D))
                lambdas_resolved = len(lam_list)
            except WrongRegularity:
                os_ok = False
            # every module the check resolves passes the census certificate;
            # a broken one fails the check but keeps the report
            orbit_checks, lambda_checks = len(census.pairs), len(census.lambdas)
            os_ok = os_ok and certified
        # `runs` and `module_checks` count the census modules (regular orbit x
        # lambda) that the checks cover, as `modules_covered` does
        covered = census.module_count
        details["os_resolution"] = {
            "D": D,
            "runs": covered,
            "module_checks": covered,
            "modules_covered": covered,
            "lambdas_resolved": lambdas_resolved,
            "orbit_checks": orbit_checks,
            "lambda_checks": lambda_checks,
            "pass": os_ok,
        }
        if not census.pairs:
            details["os_resolution"]["skipped"] = "no regular GL2 orbit"
        ok = ok and os_ok
    return ok, details


def suite_modules(tctx, config):
    ctx = tctx.field
    rng = random.Random(config.seed)
    ok = True
    # seeded random decompositions with certificates, changes of basis over
    # F_q (at the default ambient degree the draws are randrange(q)'s)
    entries = ctx.subfield_indices(tctx.q)
    n_random = 40
    failures = 0
    for _ in range(n_random):
        counts = [rng.randrange(3) for _ in range(4)]
        if sum(counts) == 0:
            counts[rng.randrange(2)] = 1
        while counts[0] + counts[1] + 2 * (counts[2] + counts[3]) > 6:
            idx = max(range(4), key=lambda k: counts[k] * (2 if k >= 2 else 1))
            counts[idx] -= 1
        M = std_module(ctx, *counts)
        conj = None
        while conj is None:
            C = [[rng.choice(entries) for _ in range(M.dim)] for _ in range(M.dim)]
            conj = M.conjugate(C)
        try:
            failures += decompose(conj) != tuple(counts)
        except RelationViolation:
            failures += 1
    ok &= failures == 0
    # stable hom and ext tables
    chi = [std_chi(ctx, i) for i in (1, 2)]
    try:
        table_ok = all(stable_hom(m, n)[0] == int(m is n) for m in chi for n in chi)
    except RelationViolation:
        table_ok = False
    try:
        ext_ok = ext_group(chi[0], chi[0], config.trunc_degree) == [
            1 - n % 2 for n in range(config.trunc_degree + 1)
        ]
    except RelationViolation:
        ext_ok = False
    # A-side table
    D = config.trunc_degree
    aside_ok = ext_nodal_line(ctx, 1, 0, D) == [1] * D
    for j in range(1, 7):
        dims = ext_nodal_line(ctx, 1, j, D)
        if j % 2 == 1:
            aside_ok &= all(d == 0 for d in dims)
        else:
            aside_ok &= dims[0] == 1 and all(d == 0 for d in dims[1:])
    ok = ok and table_ok and ext_ok and aside_ok
    return ok, {
        "random_decompositions": n_random,
        "decomposition_failures": failures,
        "stable_hom_table": table_ok,
        "ext_periodicity": ext_ok,
        "a_side_table": aside_ok,
    }


def suite_scheme(tctx, config, *censuses):
    """Per (census, the run's verdict on its `SupersingularCensus.check`) in
    `censuses`, the correspondence table; `verdict` needs both to hold."""
    details = {}
    ok = True
    for census, certified in censuses:
        kind = census.kind
        table = correspondence_table(census)
        if kind is GroupKind.SL2:
            good = table.image_is_nodes and table.fibers_match_L_packets
        else:
            good = table.injective and table.image_is_nodes
        good = good and certified
        details[str(kind)] = {
            "modules": table.module_count,
            "nodes": table.node_count,
            "verdict": good,
        }
        ok = ok and good
    return ok, details


def suite_dga(tctx, config):
    L = config.window
    derivation = derivation_check(tctx.field, L)
    ranks_ok = True
    stable_ok = True
    for n in range(-4, 5):
        c1 = dga_cohomology(tctx, n, L=abs(n) + 2)
        r1 = c1["block_ranks"]
        r2 = dga_cohomology(tctx, n, L=abs(n) + 4)["block_ranks"]
        stable_ok &= r1 == r2
        want = [[1, 0], [0, 1]] if n % 2 == 0 else [[0, 1], [1, 0]]
        # each rank-one block is generated by its certified constant iota
        ranks_ok &= r1 == want and sorted(c1["representative"]) == [
            (i, j) for i in range(2) for j in range(2) if want[i][j]
        ]
    deg0_ok = all(degree0_check(tctx, l)["pass"] for l in range(1, min(4, L) + 1))
    ok = all(derivation.values()) and ranks_ok and stable_ok and deg0_ok
    return ok, {
        **derivation,
        "cohomology_pattern": ranks_ok,
        "window_stable": stable_ok,
        "degree0_dictionary": deg0_ok,
    }


def suite_endo(tctx, config, gl2):
    """The stable endomorphism table at every lambda and the verdict of `gl2`
    = (GL2 census, its certificate), whatever `--group` says (the details say
    `"kind": "GL2"`).  The table reads no orbit: it is the same for every
    regular one."""
    ctx = tctx.field
    lam_idx = _lambda_indices(tctx, config)
    dims_ok = all(
        stable_hom_S(ctx, i, j, lam) == 1
        for lam in lam_idx
        for i in (1, 2)
        for j in (1, 2)
    )
    # a table that does not match R fails the suite but keeps the report;
    # failed nodes fail it at every lambda
    exponents, failures = _lambda_exponents(tctx, config), []
    try:
        nodes = stable_endo_nodes(ctx)
    except ComparisonFailure as exc:
        failures = [{"lambda": e, "counterexample": str(exc)} for e in exponents]
    else:
        for e, lam in zip(exponents, lam_idx):
            try:
                stable_endo_supersingular(nodes, lam)
            except ComparisonFailure as exc:
                failures.append({"lambda": e, "counterexample": str(exc)})
    # every census module passes its certificate; a broken one fails the suite
    # but keeps the report
    _, glue_ok = gl2
    details = {
        "kind": str(GroupKind.GL2),
        "hom_dims_all_one": dims_ok,
        "tables_verified": len(lam_idx) - len(failures),
        "restriction_splits": glue_ok,
    }
    if failures:
        details["failures"] = failures
    return dims_ok and glue_ok and not failures, details


_SUITES = {
    "blocks": suite_blocks,
    "models": suite_models,
    "modules": suite_modules,
    "scheme": suite_scheme,
    "dga": suite_dga,
    "endo": suite_endo,
}


def _census_kinds(name, config):
    """The kinds whose supersingular census the suite `name` reads: `models`
    GL2's when GL2 is in --group, `endo` GL2's always, `scheme` every kind's."""
    if name == "scheme":
        return config.kinds
    if name == "endo" or name == "models" and GroupKind.GL2 in config.kinds:
        return (GroupKind.GL2,)
    return ()


def run(config: RunConfig):
    """Run the suites in order.  Each kind's orbit list, its list certificate
    (read by `blocks` and `models`), census and census certificate are made
    once, timed with the first suite that reads them and handed to the rest."""
    tctx = _tctx(config)
    orbits, faults, censuses = {}, {}, {}
    suites = []
    timings = {}
    for name in config.suites:
        start = time.perf_counter()
        kinds = _census_kinds(name, config)
        listed = config.kinds if name in ("blocks", "models") else ()
        for kind in (*listed, *kinds):
            if kind not in orbits:
                orbits[kind] = orbit_pairs(kind, tctx.q)
            if kind in listed and kind not in faults:
                faults[kind] = orbit_list_faults(kind, tctx.q, orbits[kind])
        for kind in kinds:
            if kind not in censuses:
                lams = _lambda_indices(tctx, config) if kind is GroupKind.GL2 else None
                census = enumerate_supersingular(tctx, kind, lambdas=lams, classes=orbits[kind])
                try:
                    censuses[kind] = census, census.check()
                except RelationViolation:
                    censuses[kind] = census, False
        shared = [{kind: (orbits[kind], faults[kind]) for kind in listed}] if listed else []
        shared += [censuses[kind] for kind in kinds]
        passed, details = _SUITES[name](tctx, config, *shared)
        timings[name] = time.perf_counter() - start
        suites.append({"name": name, "pass": passed, "details": details})
    report = {
        "version": SCHEMA_VERSION,
        "config": config.to_obj(),
        "suites": suites,
        "pass": all(s["pass"] for s in suites),
    }
    return report, timings


def emit(report, fmt="table", timings=None):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":"))
    lines = []
    cfg = report["config"]
    lines.append(f"q={cfg['q']} (p={cfg['p']}, e={cfg['e']}), seed={cfg['seed']}")
    lines.append(f"{'suite':<10} {'pass':<6} {'time':<8} details")
    for s in report["suites"]:
        t = f"{timings.get(s['name'], 0):.2f}s" if timings else "-"
        summary = json.dumps(s["details"], sort_keys=True)
        if len(summary) > 100:
            summary = summary[:97] + "..."
        lines.append(f"{s['name']:<10} {str(s['pass']):<6} {t:<8} {summary}")
    lines.append(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return "\n".join(lines)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="heckelab",
        description="verification runs for the rank-one Hecke block computations",
    )
    ap.add_argument("--q", type=int, required=True, help="residue field size (prime power)")
    ap.add_argument("--ambient-degree", type=int, default=0, help="ambient field degree over F_p")
    ap.add_argument(
        "--group",
        action="append",
        choices=["GL2", "SL2", "PGL2"],
        help="group kind (repeatable; default all)",
    )
    ap.add_argument(
        "--lambda",
        dest="lambdas",
        action="append",
        type=int,
        help="unit parameter as a power of the fixed generator (repeatable; default all)",
    )
    ap.add_argument("--max-length", type=int, default=6)
    ap.add_argument("--trunc-degree", type=int, default=8)
    ap.add_argument("--window", type=int, default=6)
    ap.add_argument("--suite", action="append", choices=list(ALL_SUITES))
    ap.add_argument("--format", choices=["table", "json"], default="table")
    ap.add_argument("--seed", type=int, default=0)
    return ap


def config_from_args(args):
    kinds = tuple(GroupKind(k) for k in args.group or GroupKind)
    return RunConfig(
        q=args.q,
        ambient_degree=args.ambient_degree,
        kinds=kinds,
        lambdas=tuple(args.lambdas or ()),
        lmax=args.max_length,
        trunc_degree=args.trunc_degree,
        window=args.window,
        suites=tuple(args.suite) if args.suite else ALL_SUITES,
        fmt=args.format,
        seed=args.seed,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report, timings = run(config)
    except HeckeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(emit(report, config.fmt, timings))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
