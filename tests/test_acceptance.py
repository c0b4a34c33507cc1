"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every numeric target is exact (integer equality); the stated wall-clock
budgets are asserted as test conditions.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import random
import time

import pytest

from heckelab.dga import WindowHomElt, degree0_check, dga_cohomology, dga_d, leibniz_defect
from heckelab.fdmod import (
    decompose,
    ext_group,
    ext_nodal_line,
    stable_endo_supersingular,
    stable_hom,
    stable_hom_S,
    std_chi,
)
from heckelab.gf import field_create
from heckelab.hecke import (
    HeckeElt,
    enumerate_supersingular,
    hecke_mul,
    hecke_one,
    is_central,
    orbit_idempotent,
    supersingular_characters,
)
from heckelab.models import all_models, build_model, os_resolution_check, verify_model
from heckelab.scheme import correspondence_table
from heckelab.torus import (
    GroupKind,
    TorusCtx,
    enumerate_characters,
    orbit_partition,
)

from .oracles import brute_force_counts, random_scrambled_module

QS = (3, 5, 7, 9)
KINDS = (GroupKind.GL2, GroupKind.SL2, GroupKind.PGL2)
_CTX = {}


def tctx(q):
    if q not in _CTX:
        p, e = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]
        _CTX[q] = TorusCtx(field_create(p, e), q)
    return _CTX[q]


def report(num, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {label} {extra}".rstrip())
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_block_structure():
    for q in QS:
        start = time.perf_counter()
        t = tctx(q)
        for kind in KINDS:
            orbits = orbit_partition(kind, q)
            es = [orbit_idempotent(t, o) for o in orbits]
            total = None
            for e in es:
                assert hecke_mul(e, e) == e
                total = e if total is None else total.add(e)
            assert total == hecke_one(t, kind)
            for i in range(len(es)):
                for j in range(i + 1, len(es)):
                    assert hecke_mul(es[i], es[j]).is_zero()
            for e in es:
                assert is_central(e)
            if kind is GroupKind.GL2:
                reg = sum(1 for o in orbits if o.regular)
                nonreg = len(orbits) - reg
                assert nonreg == q - 1 and reg == (q - 1) * (q - 2) // 2
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"q={q} took {elapsed:.1f}s"
    report(1, "block idempotent systems and orbit counts, q in {3,5,7,9}", True)


def test_criterion_2_matrix_models():
    start = time.perf_counter()
    count = 0
    for q in QS:
        t = tctx(q)
        for kind in KINDS:
            for mm in all_models(t, kind):
                rep = verify_model(mm, Lmax=6)
                assert rep["pass"]
                count += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        f"verify_model Lmax=6 on {count} block models",
        elapsed < 60.0,
        f"({elapsed:.1f}s)",
    )


def test_criterion_3_classification_oracle():
    rng = random.Random(2024)
    total, brute_checked = 0, 0
    for _ in range(200):
        ctx = field_create(3) if rng.random() < 0.5 else field_create(5)
        M, counts = random_scrambled_module(ctx, rng, max_dim=6)
        d = decompose(M)  # raises unless the certificate verifies
        assert d == counts
        total += 1
        if M.dim <= 4 and brute_checked < 40:
            assert brute_force_counts(M) == counts
            brute_checked += 1
    report(
        3,
        f"{total} certified random decompositions, {brute_checked} brute-force cross-checks",
        total >= 200 and brute_checked >= 20,
    )


def test_criterion_4_stable_and_ext_tables():
    for ctx in (field_create(3), field_create(5)):
        for i in (1, 2):
            for j in (1, 2):
                assert stable_hom(std_chi(ctx, i), std_chi(ctx, j))[0] == (1 if i == j else 0)
        want = [1 - n % 2 for n in range(9)]
        assert ext_group(std_chi(ctx, 1), std_chi(ctx, 1), 8) == want
        assert ext_group(std_chi(ctx, 2), std_chi(ctx, 2), 8) == want
    # A-side table at truncation D = 8, degrees j <= 6
    ctx = field_create(3)
    D = 8
    for which in (1, 2):
        assert ext_nodal_line(ctx, which, 0, D) == [1] * D
        for j in (1, 3, 5):
            assert sum(ext_nodal_line(ctx, which, j, D)) == 0
        for j in (2, 4, 6):
            dims = ext_nodal_line(ctx, which, j, D)
            assert dims[0] == 1 and all(d == 0 for d in dims[1:])
    report(4, "stable hom is delta_ij; Ext parity table n <= 8; nodal-line table j <= 6", True)


def test_criterion_5_endomorphism_theorem():
    for q in (5, 7, 9):
        t = tctx(q)
        ctx = t.field
        reg_orbits = [o for o in orbit_partition(GroupKind.GL2, q) if o.regular]
        lam_all = [t.value_i(e) for e in range(q - 1)]
        for k, lam in enumerate(lam_all):
            for i in (1, 2):
                for j in (1, 2):
                    assert stable_hom_S(ctx, i, j, lam) == 1
            alg = stable_endo_supersingular(t, reg_orbits[k % len(reg_orbits)], lam)
            assert alg.dim == 4
        census = enumerate_supersingular(t, GroupKind.GL2)
        assert all(m.check() for m in census.modules)
        assert len(census.modules) == len(reg_orbits) * (q - 1)
    report(5, "stable endomorphism tables match R for q in {5,7,9}, all lambda", True)


def test_criterion_6_langlands_counts():
    start = time.perf_counter()
    for q in QS:
        t = tctx(q)
        rep = correspondence_table(t, GroupKind.GL2)
        assert rep.injective and rep.image_is_nodes
        assert rep.module_count == (q - 1) * (q - 2) // 2 * (q - 1)
        rep = correspondence_table(t, GroupKind.PGL2)
        assert rep.injective and rep.image_is_nodes
        assert rep.module_count == (q - 3) // 2
        rep = correspondence_table(t, GroupKind.SL2)
        assert rep.image_is_nodes and rep.fibers_match_L_packets
        expected = sorted(
            sorted(f) for f in [[(q - 1) // 2]] + [[i, q - 1 - i] for i in range(1, (q - 1) // 2)]
        )
        assert sorted(rep.fiber_partition) == expected
    elapsed = time.perf_counter() - start
    report(6, "parameter maps: GL2/PGL2 node bijections, SL2 L-packet fibers", elapsed < 30.0, f"({elapsed:.1f}s)")


def test_criterion_7_dga():
    t = tctx(5)
    ctx = t.field
    rng = random.Random(7)
    L = 6

    def random_elt(degree):
        terms = {
            (i, j, l, z): rng.randrange(ctx.q)
            for i in range(2)
            for j in range(2)
            for l in range(-L, L + 1)
            for z in range(-2, 3)
            if rng.random() < 0.3
        }
        return WindowHomElt(ctx, degree, -L, L, terms)

    for _ in range(100):
        x = random_elt(rng.choice([0, 1, 2]))
        assert dga_d(dga_d(x)).is_zero()
        y = random_elt(rng.choice([0, 1]))
        assert leibniz_defect(x, y).is_zero()
    for n in range(-4, 5):
        r1 = dga_cohomology(t, n, L=abs(n) + 2)["block_ranks"]
        r2 = dga_cohomology(t, n, L=abs(n) + 4)["block_ranks"]
        assert r1 == r2
        want = [[1, 0], [0, 1]] if n % 2 == 0 else [[0, 1], [1, 0]]
        assert r1 == want
    for Lw in (1, 2, 3, 4):
        assert degree0_check(t, Lw)["pass"]
    report(7, "d^2 = 0 and Leibniz on 100 samples; cohomology pattern; degree-0 dictionary", True)


def test_criterion_8_resolution_exactness():
    for q in (3, 5):
        t = tctx(q)
        lam_all = [t.value_i(e) for e in range(q - 1)]
        census = enumerate_supersingular(t, GroupKind.GL2, lambdas=lam_all)
        runs = 0
        for m in census.modules:
            rep = os_resolution_check(build_model(GroupKind.GL2, m.orbit, t), m.lam_idx, D=6)
            assert rep["pass"], rep
            runs += 1
        assert runs == (q - 1) ** 2 * (q - 2) // 2
    report(8, "resolution exactness at D=6 for all GL2 regular blocks, q in {3,5}", True)


def test_criterion_9_supersingular_census():
    for q in QS:
        chars = supersingular_characters(GroupKind.SL2, q)
        infinite = [c for c in chars if not c.finite_pd]
        assert len(infinite) == q - 2
        # the two-case definition, rechecked directly from the character data
        expected = set()
        for xi in enumerate_characters(GroupKind.SL2, q):
            if not xi.trivial_on_coroot_image():
                expected.add((xi.exps, 0, 0, False))
            else:
                expected.add((xi.exps, 0, -1, True))
                expected.add((xi.exps, -1, 0, True))
        got = {(c.restriction.exps, c.ts0_val, c.ts1_val, c.finite_pd) for c in chars}
        assert got == expected
    report(9, "SL2 infinite-pd census = q-2; two-case character census", True)
