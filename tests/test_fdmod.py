from __future__ import annotations

import random

import pytest

from heckelab import dga, fdmod
from heckelab.dga import dga_d, dga_mul, on_common_window
from heckelab.errors import ComparisonFailure, ZeroLambda
from heckelab.fdmod import (
    FDModule,
    decompose,
    ext_group,
    ext_nodal_line,
    ext_S_specialized,
    generator_test,
    hom_space,
    projective_cover,
    shift,
    sl2_spherical_restrictions,
    stable_endo_supersingular,
    stable_hom,
    stable_hom_S,
    std_chi,
    std_module,
    std_proj,
    supersingular_restriction_splits,
)
from heckelab.gf import field_create
from heckelab.hecke import SupersingModule, enumerate_supersingular
from heckelab.linalg import inverse, mat_mul
from heckelab.torus import GroupKind, TorusCtx, orbit_partition, torus_index

from .oracles import boundary_span_termwise

F3 = field_create(3)
F5 = field_create(5)


def rand_invertible(ctx, n, rng):
    while True:
        C = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]
        if inverse(ctx, C) is not None:
            return C


def rand_module(ctx, rng, max_dim=6):
    """Random direct sum of indecomposables in a scrambled basis."""
    counts = [0, 0, 0, 0]
    dim = 0
    while True:
        pick = rng.randrange(4)
        add = 1 if pick < 2 else 2
        if dim + add > max_dim:
            break
        counts[pick] += 1
        dim += add
        if dim == max_dim or rng.random() < 0.2:
            break
    if dim == 0:
        counts[0] = 1
    M = std_module(ctx, *counts)
    C = rand_invertible(ctx, M.dim, rng)
    return M.conjugate(C), tuple(counts)


# -- decomposition --------------------------------------------------------------


def test_decompose_projective():
    assert decompose(std_proj(F3, 1)) == (0, 0, 1, 0)


def test_decompose_chi_sum():
    M = std_chi(F3, 1).direct_sum(std_chi(F3, 2))
    assert decompose(M) == (1, 1, 0, 0)


def test_decompose_T_zero_dim4():
    # 4-dim module with T = 0 and dim e1M = 3: brute-force expectation (3,1,0,0)
    e1 = [[1 if i == j and i < 3 else 0 for j in range(4)] for i in range(4)]
    e2 = [[1 if i == j and i == 3 else 0 for j in range(4)] for i in range(4)]
    T = [[0] * 4 for _ in range(4)]
    M = FDModule(F5, 4, {"e1": e1, "e2": e2, "T": T})
    assert decompose(M) == (3, 1, 0, 0)


def test_decompose_random_seeded():
    rng = random.Random(42)
    for _ in range(60):
        ctx = rng.choice([F3, F5])
        M, counts = rand_module(ctx, rng)
        assert decompose(M) == counts


def test_krull_schmidt_additivity():
    rng = random.Random(7)
    for _ in range(10):
        M, cm = rand_module(F3, rng, max_dim=4)
        N, cn = rand_module(F3, rng, max_dim=4)
        s = decompose(M.direct_sum(N))
        assert s == tuple(a + b for a, b in zip(cm, cn))


def test_brute_force_agrees_dim_le_4():
    from .oracles import brute_force_counts
    rng = random.Random(5)
    for _ in range(12):
        M, counts = rand_module(F3, rng, max_dim=4)
        assert brute_force_counts(M) == counts == decompose(M)


# -- stable homs and Ext ---------------------------------------------------------


def test_stable_hom_values():
    for ctx in (F3, F5):
        for i in (1, 2):
            assert stable_hom(std_chi(ctx, i), std_chi(ctx, i))[0] == 1
            assert stable_hom(std_chi(ctx, i), std_chi(ctx, 3 - i))[0] == 0
        assert stable_hom(std_proj(ctx, 1), std_chi(ctx, 1))[0] == 0
        assert stable_hom(std_proj(ctx, 1), std_proj(ctx, 2))[0] == 0


def test_stable_hom_projective_precomposition():
    # any map chi1 -> Re1 -> X dies stably: [Re1, X] = 0 already checked;
    # here: representatives of [chi1, chi1] stay nonzero while the projective
    # factor of the identity of Re1 is stably zero
    dim, reps = stable_hom(std_chi(F3, 1), std_chi(F3, 1))
    assert dim == 1 and reps[0] in ([[1]], [[2]])


def test_factoring_through_any_projective_is_stably_zero():
    """Composites through the regular module land in the cover-factored span,
    so the cover really captures every projective factorisation."""
    import random as _r

    from heckelab.linalg import Span, mat_mul

    rng = _r.Random(13)
    ctx = F3
    Q = std_proj(ctx, 1).direct_sum(std_proj(ctx, 2))  # a projective, not a cover
    for _ in range(8):
        M, _c = rand_module(ctx, rng, max_dim=4)
        N, _c2 = rand_module(ctx, rng, max_dim=4)
        homs = hom_space(M, N)
        if not homs:
            continue
        P, pi = projective_cover(N)
        factored = Span(ctx, len(homs[0]))
        for u in hom_space(M, P):
            um = [u[i * M.dim : (i + 1) * M.dim] for i in range(P.dim)]
            fm = mat_mul(ctx, pi, um)
            factored.add([c for row in fm for c in row])
        into_q = hom_space(M, Q)
        out_q = hom_space(Q, N)
        for u in into_q:
            um = [u[i * M.dim : (i + 1) * M.dim] for i in range(Q.dim)]
            for g in out_q:
                gm = [g[i * Q.dim : (i + 1) * Q.dim] for i in range(N.dim)]
                comp = mat_mul(ctx, gm, um)
                flat = [c for row in comp for c in row]
                assert factored.contains(flat) or all(c == 0 for c in flat)


def test_ext_values_R():
    for n in range(0, 9):
        want = 1 if n % 2 == 0 else 0
        assert ext_group(std_chi(F3, 1), std_chi(F3, 1), n) == want
        assert ext_group(std_chi(F3, 2), std_chi(F3, 2), n) == want


def test_ext_chi1_chi2():
    # Hom of the periodic resolution into chi_2 alternates k, 0 with zero maps
    assert ext_group(std_chi(F3, 1), std_chi(F3, 2), 0) == 0
    assert ext_group(std_chi(F3, 1), std_chi(F3, 2), 1) == 1
    assert ext_group(std_chi(F3, 1), std_chi(F3, 2), 2) == 0
    assert ext_group(std_chi(F3, 1), std_chi(F3, 2), 3) == 1


def test_ext_of_a_projective_vanishes():
    P = std_proj(F5, 1)
    for n in range(1, 4):
        assert ext_group(P, P, n) == 0
        assert ext_group(P, std_chi(F5, 1), n) == 0


def test_ext_periodicity():
    for i in (1, 2):
        for j in (1, 2):
            dims = [ext_group(std_chi(F5, i), std_chi(F5, j), n) for n in range(1, 9)]
            assert dims[:6] == dims[2:]


def test_projective_cover_shape():
    M = std_chi(F3, 1).direct_sum(std_proj(F3, 2))
    P, pi = projective_cover(M)
    assert P.dim == 4  # Re1 (+) Re2
    from heckelab.linalg import rank

    assert rank(F3, pi) == M.dim


# -- shift ------------------------------------------------------------------------


def test_shift_swaps_chi():
    assert decompose(shift(std_chi(F3, 1))) == (0, 1, 0, 0)
    assert decompose(shift(std_chi(F3, 2))) == (1, 0, 0, 0)


def test_shift_projective_vanishes():
    assert shift(std_proj(F3, 1)).dim == 0


def test_shift_squared_identity():
    for i in (1, 2):
        assert decompose(shift(shift(std_chi(F5, i)))) == decompose(std_chi(F5, i))


# -- generator test ---------------------------------------------------------------


def test_generator_test():
    assert generator_test(std_proj(F3, 1).direct_sum(std_proj(F3, 2)))
    assert not generator_test(std_chi(F3, 1))
    rng = random.Random(3)
    M = std_module(F3, 0, 0, 2, 1).conjugate(rand_invertible(F3, 6, rng))
    assert generator_test(M)


# -- S-level Ext -------------------------------------------------------------------


def test_ext_S_examples():
    lam = 2  # nonzero in F5
    assert ext_S_specialized(F5, 2, 1, lam, 1) == 1
    assert ext_S_specialized(F5, 1, 2, lam, 0) == 0
    assert ext_S_specialized(F5, 1, 1, lam, 1) == 1


def test_ext_S_zero_lambda_raises():
    with pytest.raises(ZeroLambda):
        ext_S_specialized(F5, 1, 1, 0, 1)


def test_stable_hom_S_all_one():
    for ctx in (F5, field_create(7)):
        for lam in range(1, ctx.q):
            for i in (1, 2):
                for j in (1, 2):
                    assert stable_hom_S(ctx, i, j, lam) == 1


# -- stable endomorphism algebra ----------------------------------------------------


def test_stable_endo_q5():
    t = TorusCtx(F5, 5)
    orb = next(o for o in orbit_partition(GroupKind.GL2, 5) if o.regular)
    for lam in range(1, 5):
        alg = stable_endo_supersingular(t, orb, lam)
        assert alg.dim == 4
        tb = alg.table
        # e~_1 t~_1 = 0 and e~_2 t~_1 = t~_1
        assert tb[("e1~", "t1~")] == (0, 0, 0, 0)
        assert tb[("e2~", "t1~")] == (0, 0, 1, 0)
        # t~_1 t~_2 = 0
        assert tb[("t1~", "t2~")] == (0, 0, 0, 0)
        assert tb[("t1~", "e1~")] == (0, 0, 1, 0)


def test_stable_endo_table_matches_R_everywhere():
    t = TorusCtx(F5, 5)
    orb = next(o for o in orbit_partition(GroupKind.GL2, 5) if o.regular)
    alg = stable_endo_supersingular(t, orb, 1)
    # the dictionary e_i -> e~_i, T -> t~_1 + t~_2 is multiplicative: check
    # T.T = 0 and e_1 T = T e_2 through the table
    def mult(a, b):
        return alg.table[(a, b)]

    # (t1+t2)(t1+t2) = 0
    total = [0, 0, 0, 0]
    for x in ("t1~", "t2~"):
        for y in ("t1~", "t2~"):
            total = [F5.add_i(u, v) for u, v in zip(total, mult(x, y))]
    assert total == [0, 0, 0, 0]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_boundary_span_matches_termwise_oracle(q):
    ctx = field_create(q)
    for lam in range(1, q):
        K = {i: fdmod._koszul(ctx, i, lam) for i in (1, 2)}
        for i in (1, 2):
            for j in (1, 2):
                for zwin in (1, 3):
                    span, _ = fdmod._boundary_span(K[i], K[j], zwin)
                    assert span.rows == boundary_span_termwise(ctx, i, j, lam, zwin).rows


def _regular_q5():
    t = TorusCtx(F5, 5)
    return t, next(o for o in orbit_partition(GroupKind.GL2, 5) if o.regular)


def test_stable_endo_fails_on_an_unsigned_bracket(monkeypatch):
    # dga_d(f) + K_j f + f K_i for every degree: the identity is then no chain map
    def unsigned(Kj, f, Ki):
        d, left, right = on_common_window(dga_d(f), dga_mul(Kj, f), dga_mul(f, Ki))
        return d.add(left).add(right)

    monkeypatch.setattr(fdmod, "_bracket", unsigned)
    t, orb = _regular_q5()
    with pytest.raises(ComparisonFailure, match="not a chain map"):
        stable_endo_supersingular(t, orb, 1)


def test_stable_endo_fails_on_an_alternating_koszul_sign(monkeypatch):
    # the slot frame's (-1)^l (Z - lam), carried into the DGA frame unchanged
    koszul = fdmod._koszul

    def alternating(ctx, i, lam_idx):
        k = koszul(ctx, i, lam_idx)
        for row in k.blocks:
            for seq in row:
                for l in range(k.lo, k.hi + 1):
                    if l % 2:
                        seq.set(l, seq.get(l).scal(ctx.neg_i(1)))
        return k

    monkeypatch.setattr(fdmod, "_koszul", alternating)
    t, orb = _regular_q5()
    with pytest.raises(ComparisonFailure, match=r"D_1\^2 != 0"):
        stable_endo_supersingular(t, orb, 1)


def test_stable_endo_fails_on_unsigned_summands(monkeypatch):
    # delta = diag(1, 1) tau: dga_d(K_i) = 2 K_i, so D_i^2 != 0
    monkeypatch.setattr(dga, "_EPS", (1, 1))
    t, orb = _regular_q5()
    with pytest.raises(ComparisonFailure, match=r"D_1\^2 != 0"):
        stable_endo_supersingular(t, orb, 1)


def test_stable_endo_fails_on_a_wrong_product_of_R(monkeypatch):
    reference = fdmod._r_reference_table

    def corrupted(ctx):
        labels, table = reference(ctx)
        table[("Te1", "e1")] = (0, 0, 0, 0)
        return labels, table

    monkeypatch.setattr(fdmod, "_r_reference_table", corrupted)
    t, orb = _regular_q5()
    with pytest.raises(ComparisonFailure, match=r"product Te1\*e1 disagrees with R"):
        stable_endo_supersingular(t, orb, 1)


# -- restriction bookkeeping ---------------------------------------------------------


def test_supersingular_restriction_splits():
    t = TorusCtx(F5, 5)
    census = enumerate_supersingular(t, GroupKind.GL2)
    for m in census.modules[:6]:
        assert supersingular_restriction_splits(t, m)


def test_supersingular_restriction_splits_on_pgl2():
    t = TorusCtx(F5, 5)
    for m in enumerate_supersingular(t, GroupKind.PGL2).modules:
        assert supersingular_restriction_splits(t, m)


def test_supersingular_restriction_fails_on_a_corrupted_omega():
    t = TorusCtx(F5, 5)
    m = enumerate_supersingular(t, GroupKind.GL2, lambdas=[2]).modules[0]
    m.mats["Tomega"] = [[0, 1], [1, 0]]  # squares to 1, not lambda = 2
    assert not supersingular_restriction_splits(t, m)


@pytest.mark.parametrize("where", ["everywhere", "second_generator"])
def test_supersingular_restriction_fails_on_a_swapped_torus_action(monkeypatch, where):
    t = TorusCtx(F5, 5)
    m = enumerate_supersingular(t, GroupKind.GL2, lambdas=[1]).modules[0]
    first = torus_index(GroupKind.GL2, 5, (1, 0))
    honest = SupersingModule.torus_matrix

    def swapped(self, tt):
        (a, _), (_, b) = honest(self, tt)
        if where == "second_generator" and tt == first:
            return [[a, 0], [0, b]]
        return [[b, 0], [0, a]]

    monkeypatch.setattr(SupersingModule, "torus_matrix", swapped)
    assert not supersingular_restriction_splits(t, m)


def test_supersingular_restriction_fails_on_a_corrupted_character_memo():
    """torus_matrix reads its values from a per-(character, t) memo; the
    reference diagonals are evaluated on their own, so one wrong memo entry
    fails exactly the modules whose orbit holds that character."""
    t = TorusCtx(F5, 5)
    modules = enumerate_supersingular(t, GroupKind.GL2).modules
    assert all(supersingular_restriction_splits(t, m) for m in modules)
    chi = modules[0].orbit.pair()[1]
    gen = t.torus_table(GroupKind.GL2).gens[1]
    key = ("character_value", chi.exps, gen)
    assert t.cache[key] == chi.eval_i(t, gen)
    t.cache[key] = t.field.mul_i(t.cache[key], t.value_i(1))  # times zeta
    hit = [m for m in modules if chi in m.orbit.members]
    assert len(hit) == 4 < len(modules)  # one orbit, every lambda
    for m in modules:
        assert supersingular_restriction_splits(t, m) == (m not in hit)


def test_sl2_spherical_restriction_decompositions():
    D = 6
    r0, r1 = sl2_spherical_restrictions(F5, 1, D)
    # genuine chi_1 summand plus D copies of Re2 (one top-degree artifact chi_2)
    assert decompose(r0) == (1, 1, 0, D)
    assert decompose(r1) == (1, 1, D, 0)
    r0, r1 = sl2_spherical_restrictions(F5, 2, D)
    assert decompose(r0) == (1, 1, D, 0)
    assert decompose(r1) == (1, 1, 0, D)


# -- A-side Ext and the periodic catalogue --------------------------------------------


def test_ext_nodal_line_table():
    D = 8
    for which in (1, 2):
        assert ext_nodal_line(F3, which, 0, D) == [1] * D
        for j in (1, 3, 5):
            assert sum(ext_nodal_line(F3, which, j, D)) == 0
        for j in (2, 4, 6):
            dims = ext_nodal_line(F3, which, j, D)
            assert dims[0] == 1 and all(d == 0 for d in dims[1:])

