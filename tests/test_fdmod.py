from __future__ import annotations

import random
import re
from itertools import product
from types import SimpleNamespace

import pytest

from heckelab import cli, dga, fdmod
from heckelab.dga import WindowHomElt, dga_d, dga_mul, on_common_window
from heckelab.cli import RunConfig, run
from heckelab.errors import ComparisonFailure, RelationViolation, ZeroLambda
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
)
from heckelab.gf import field_create
from heckelab.hecke import SupersingModule, enumerate_supersingular
from heckelab.linalg import Span, inverse, mat_mul
from heckelab.torus import GroupKind, TorusCtx, orbit_partition, torus_index

from .oracles import boundary_span_termwise, decompose_reference, ext_group_per_degree
from .test_hecke import corrupt_torus_matrix

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


def test_decompose_fails_on_a_model_with_the_chi_counts_swapped(monkeypatch):
    """The certificate compares M with the model it names: a `std_module`
    that puts chi2 where chi1 belongs is caught."""
    M = std_module(F3, 2, 1, 1, 0).conjugate(rand_invertible(F3, 5, random.Random(2)))
    real = fdmod.std_module
    monkeypatch.setattr(fdmod, "std_module", lambda ctx, a1, a2, b1, b2: real(ctx, a2, a1, b1, b2))
    with pytest.raises(RelationViolation, match="decomposition certificate failed"):
        decompose(M)


def _e2_corner_shifted(M):
    e2 = [row[:] for row in M.g("e2")]
    e2[0][0] = M.ctx.add_i(e2[0][0], 1)
    return e2


@pytest.mark.parametrize(
    "corrupt",
    [
        _e2_corner_shifted,
        lambda M: [[0] * M.dim for _ in range(M.dim)],
        lambda M: M.g("e1"),
    ],
    ids=["entry_shifted", "zero", "equal_to_e1"],
)
def test_a_corrupted_e2_fails_check_relations(corrupt):
    """e2 is read only through e1 + e2 = 1 and e1 T = T e2; a zero e2 is
    idempotent and orthogonal to e1, and e2 = e1 is idempotent, yet both fail."""
    M = std_module(F5, 1, 1, 1, 1).conjugate(rand_invertible(F5, 6, random.Random(3)))
    assert M.check_relations()
    bad = FDModule(F5, M.dim, {**M.action, "e2": corrupt(M)})
    with pytest.raises(RelationViolation, match=r"e1 \+ e2 != 1"):
        bad.check_relations()
    for decomposition in (decompose, decompose_reference):
        with pytest.raises(RelationViolation, match=r"^e1 \+ e2 != 1$"):
            decomposition(bad)


def _std_1111_corrupted(ctx, corrupt):
    """std_module(1, 1, 1, 1), its generators changed by `corrupt` in the
    standard basis (chi1, chi2, e1, Te1 of Re1, e2, Te2 of Re2), then put in
    a random basis."""
    act = {g: [row[:] for row in m] for g, m in std_module(ctx, 1, 1, 1, 1).action.items()}
    corrupt(ctx, act)
    return FDModule(ctx, 6, act).conjugate(rand_invertible(ctx, 6, random.Random(4)))


def _t_squared_nonzero(ctx, act):
    # T swaps chi1 and chi2: odd, so e1 T = T e2 still holds
    act["T"][0][1] = act["T"][1][0] = 1


def _e1_doubled(ctx, act):
    # e1 -> 2 e1 and e2 -> 1 - 2 e1: e1 + e2 = 1 and T^2 = 0 still hold
    two = ctx.add_i(1, 1)
    for i in range(6):
        act["e1"][i][i] = ctx.mul_i(two, act["e1"][i][i])
        act["e2"][i][i] = ctx.sub_i(1, act["e1"][i][i])


def _t_even_part(ctx, act):
    # T also sends e1 of Re1 to chi1, inside e1 M: T^2 = 0 still holds
    act["T"][0][2] = 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_t_squared_nonzero, "T^2 != 0"),
        (_e1_doubled, "e1 not idempotent"),
        (_t_even_part, "e1 T != T e2"),
    ],
    ids=["T_squared", "e1_idempotent", "e1T_Te2"],
)
def test_decompose_names_the_broken_relation(corrupt, message):
    """The certificate fails on a module that breaks one relation, and
    decompose then raises `check_relations`'s message, as the reference,
    which checks the relations first, does."""
    bad = _std_1111_corrupted(F5, corrupt)
    for check in (FDModule.check_relations, decompose, decompose_reference):
        with pytest.raises(RelationViolation, match=f"^{re.escape(message)}$"):
            check(bad)


def _first_image_entry_shifted(ctx, pairs, kernel):
    if pairs:
        u, Tu = pairs[0]
        pairs[0] = (u, [ctx.add_i(Tu[0], 1), *Tu[1:]])
    return pairs, kernel


def _first_image_doubled(ctx, pairs, kernel):
    # 2 T u stays in e_2 M and independent of the rest: only the T product sees it
    if pairs:
        u, Tu = pairs[0]
        pairs[0] = (u, [ctx.add_i(x, x) for x in Tu])
    return pairs, kernel


def _first_pair_repeated(ctx, pairs, kernel):
    # on Re1^2: n columns and both products hold, but C has rank 2
    return pairs[:1] * len(pairs), []


def _pairs_twice(ctx, pairs, kernel):
    # on Re1: rank n and both products hold, but C has 2n columns
    return pairs * 2, kernel


@pytest.mark.parametrize(
    "counts, change",
    [
        ((1, 1, 1, 1), _first_image_entry_shifted),
        ((1, 1, 1, 1), _first_image_doubled),
        ((0, 0, 2, 0), _first_pair_repeated),
        ((0, 0, 1, 0), _pairs_twice),
    ],
    ids=["image_entry_shifted", "image_doubled", "pair_repeated", "pairs_twice"],
)
def test_decompose_fails_on_a_wrong_change_of_basis(counts, change, monkeypatch):
    """A `_T_split` that hands back wrong pairs fails the certificate; the
    relations hold, so decompose says the certificate failed."""
    M = std_module(F5, *counts)
    M = M.conjugate(rand_invertible(F5, M.dim, random.Random(3)))
    real = fdmod._T_split

    def changed(ctx, T, vecs):
        pairs, kernel, relations = real(ctx, T, vecs)
        return (*change(ctx, pairs, kernel), relations)

    monkeypatch.setattr(fdmod, "_T_split", changed)
    with pytest.raises(RelationViolation, match="^decomposition certificate failed$"):
        decompose(M)


def test_conjugate_by_a_singular_matrix_is_none():
    assert std_module(F3, 1, 1, 0, 0).conjugate([[1, 1], [1, 1]]) is None


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


# every (a1, a2, b1, b2) of a module of dimension 0-6
STD_COUNTS = [
    c for c in product(range(7), range(7), range(4), range(4)) if c[0] + c[1] + 2 * (c[2] + c[3]) <= 6
]


@pytest.mark.parametrize(
    "p, m",
    [(2, 1), (2, 2), (3, 1), (5, 1), (3, 2), (3, 6)],
    ids=["F2", "F4", "F3", "F5", "F9", "F729"],
)
def test_decompose_matches_the_reference(p, m):
    """36 conjugated std modules per field (216 in all, the zero module in
    each), direct sums of two of them and shifts: decompose, the reference and
    the known counts agree.  In F_2 and F_4, -1 = 1."""
    ctx = field_create(p, m)
    rng = random.Random(p * 10 + m)
    mods = []
    for counts in [(0, 0, 0, 0), *rng.sample(STD_COUNTS[1:], 35)]:
        M = std_module(ctx, *counts)
        mods.append((M.conjugate(rand_invertible(ctx, M.dim, rng)), counts))
    for M, counts in mods:
        assert decompose(M) == decompose_reference(M) == counts
    for (M, cm), (N, cn) in zip(mods[1:7], mods[7:13]):
        S = M.direct_sum(N)
        assert decompose(S) == decompose_reference(S) == tuple(a + b for a, b in zip(cm, cn))
    for M, (a1, a2, _, _) in mods[:7]:
        X = shift(M)
        assert decompose(X) == decompose_reference(X) == (a2, a1, 0, 0)


def test_decompose_makes_four_products_and_no_relation_check(monkeypatch):
    """On R-modules the certificate takes g_M C and C g_model for g = e1, T,
    and the relations are never checked on their own."""
    rng = random.Random(11)
    mods = [rand_module(ctx, rng)[0] for ctx in (F3, F5) for _ in range(10)]
    calls = []
    real_mul, real_check = fdmod.mat_mul, FDModule.check_relations

    def counting_mul(*args):
        calls.append("mat_mul")
        return real_mul(*args)

    def counting_check(self):
        calls.append("check_relations")
        return real_check(self)

    monkeypatch.setattr(fdmod, "mat_mul", counting_mul)
    monkeypatch.setattr(FDModule, "check_relations", counting_check)
    for M in mods:
        calls.clear()
        decompose(M)
        assert calls.count("mat_mul") <= 4 and "check_relations" not in calls


def test_the_suite_decompositions_take_half_the_reference_eliminations(monkeypatch):
    """The modules suite's 40 decompositions at F_729 add at most half as
    many vectors to a Span as the reference does on the same modules."""
    adds = {"decompose": 0, "reference": 0}
    active = []
    real_add = Span.add

    def counting_add(self, v):
        if active:
            adds[active[-1]] += 1
        return real_add(self, v)

    def both(M):
        active.append("reference")
        want = decompose_reference(M)
        active[-1] = "decompose"
        got = decompose(M)
        active.pop()
        assert got == want
        return got

    monkeypatch.setattr(Span, "add", counting_add)
    monkeypatch.setattr(cli, "decompose", both)
    config = RunConfig(q=27, ambient_degree=6, trunc_degree=2)
    ok, details = cli.suite_modules(SimpleNamespace(field=field_create(3, 6)), config)
    assert ok and details["random_decompositions"] == 40
    assert 0 < 2 * adds["decompose"] <= adds["reference"]


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
    assert stable_hom(std_proj(F3, 1), std_proj(F3, 1))[0] == 0


def test_factoring_through_any_projective_is_stably_zero():
    """Composites through the regular module land in the cover-factored span,
    so the cover really captures every projective factorisation."""
    import random as _r

    from heckelab.linalg import Span, mat_mul, sparse

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
        factored = Span(ctx)
        for u in hom_space(M, P):
            um = [u[i * M.dim : (i + 1) * M.dim] for i in range(P.dim)]
            fm = mat_mul(ctx, pi, um)
            factored.add(sparse([c for row in fm for c in row]))
        into_q = hom_space(M, Q)
        out_q = hom_space(Q, N)
        for u in into_q:
            um = [u[i * M.dim : (i + 1) * M.dim] for i in range(Q.dim)]
            for g in out_q:
                gm = [g[i * Q.dim : (i + 1) * Q.dim] for i in range(N.dim)]
                comp = mat_mul(ctx, gm, um)
                flat = [c for row in comp for c in row]
                assert factored.contains(sparse(flat))


def test_ext_values_R():
    want = [1 - n % 2 for n in range(9)]
    assert ext_group(std_chi(F3, 1), std_chi(F3, 1), 8) == want
    assert ext_group(std_chi(F3, 2), std_chi(F3, 2), 8) == want


def test_ext_chi1_chi2():
    # Hom of the periodic resolution into chi_2 alternates k, 0 with zero maps
    assert ext_group(std_chi(F3, 1), std_chi(F3, 2), 3) == [0, 1, 0, 1]


def test_ext_of_a_projective_vanishes():
    P = std_proj(F5, 1)
    assert ext_group(P, P, 3)[1:] == [0, 0, 0]
    assert ext_group(P, std_chi(F5, 1), 3)[1:] == [0, 0, 0]


def test_ext_periodicity():
    for i in (1, 2):
        for j in (1, 2):
            dims = ext_group(std_chi(F5, i), std_chi(F5, j), 8)[1:]
            assert dims[:6] == dims[2:]


@pytest.mark.parametrize("p, m", [(5, 1), (3, 6)])
def test_ext_from_one_resolution_matches_the_per_degree_computation(p, m):
    """Every Ext^n, n <= 16, read off one resolution equals the value that
    its own resolution of length n + 1 gives, over F_5 and F_729."""
    ctx = field_create(p, m)
    modules = [std_chi(ctx, 1), std_chi(ctx, 2), std_proj(ctx, 2), std_module(ctx, 1, 0, 1, 0)]
    for M in modules:
        for N in modules:
            assert ext_group(M, N, 16) == [ext_group_per_degree(M, N, n) for n in range(17)]


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


def _same_subspace(span, oracle):
    # Span keeps an echelon basis, not a canonical one
    return (
        span.dim == oracle.dim
        and all(oracle.contains(r) for r in span.rows.values())
        and all(span.contains(r) for r in oracle.rows.values())
    )


def _spans_agree_with_oracle(ctx, zwin, units):
    """Whether the spans interpolated from `units` equal the termwise oracle's
    at every lambda and pair (i, j)."""
    return all(
        _same_subspace(
            fdmod._boundary_span(
                ctx, [fdmod._at_lambda(ctx, t, lam) for t in units[(i, j)]], zwin
            ),
            boundary_span_termwise(ctx, i, j, lam, zwin),
        )
        for lam in range(1, ctx.q)
        for i in (1, 2)
        for j in (1, 2)
    )


@pytest.mark.parametrize("q", [3, 5, 7])
def test_boundary_span_matches_termwise_oracle(q):
    ctx = field_create(q)
    units = fdmod._unit_brackets(ctx)
    for zwin in (1, 3):
        assert _spans_agree_with_oracle(ctx, zwin, units)


@pytest.mark.parametrize(
    "mutate",
    [lambda x0, x1: (0, x1), lambda x0, x1: (x1, x0)],
    ids=["node_0_dropped", "weights_swapped"],
)
def test_boundary_span_oracle_fails_on_a_wrong_interpolation(mutate):
    # (x1, x0) at the weights (1 - lam, lam) is (x0, x1) at the swapped weights
    ctx = field_create(5)
    units = {
        pair: [[(c, *mutate(x0, x1)) for c, x0, x1 in terms] for terms in brackets]
        for pair, brackets in fdmod._unit_brackets(ctx).items()
    }
    assert not _spans_agree_with_oracle(ctx, 3, units)


def test_the_lambda_free_brackets_are_built_once_per_run(monkeypatch):
    """Over all six lambda at q = 7: 64 unit brackets (8 units, 4 pairs, 2
    nodes) and 8 chain-map brackets (4 maps, 2 nodes), all on the first call."""
    calls = []
    bracket = fdmod._bracket

    def counting(Kj, f, Ki):
        calls.append(f.degree)
        return bracket(Kj, f, Ki)

    monkeypatch.setattr(fdmod, "_bracket", counting)
    t = TorusCtx(field_create(7), 7)
    orb = next(o for o in orbit_partition(GroupKind.GL2, 7) if o.regular)
    counts = []
    for lam in range(1, 7):
        stable_endo_supersingular(t, orb, lam)
        counts.append(len(calls))
    assert counts == [72] * 6
    assert calls.count(-1) == 64 and calls.count(0) == 8


@pytest.mark.parametrize("q", [3, 5, 7])
def test_the_symmetry_carries_every_span_to_lambda_one(q):
    """psi_lam maps the termwise oracle's span at lam onto the span at lam = 1
    that `stable_endo_supersingular` tests against, for every lam and pair."""
    ctx = field_create(q)
    t = TorusCtx(ctx, q)
    for zwin in (1, 3):
        spans = fdmod._stable_endo_nodes(t).spans_at(zwin)
        for lam in range(1, q):
            for pair in spans:
                psi, _ = fdmod._transport(ctx, pair, lam)
                image = Span(ctx)
                for row in boundary_span_termwise(ctx, *pair, lam, zwin).rows.values():
                    image.add(psi(row))
                assert _same_subspace(image, spans[pair]), (zwin, lam, pair)


def test_the_spans_are_built_once_per_run(monkeypatch):
    """Over all six lambda at q = 7: the four spans at lam = 1, all on the
    first call."""
    calls = []
    build = fdmod._boundary_span

    def counting(ctx, brackets, zwin):
        calls.append(brackets)
        return build(ctx, brackets, zwin)

    monkeypatch.setattr(fdmod, "_boundary_span", counting)
    t = TorusCtx(field_create(7), 7)
    orb = next(o for o in orbit_partition(GroupKind.GL2, 7) if o.regular)
    counts = []
    for lam in range(1, 7):
        stable_endo_supersingular(t, orb, lam)
        counts.append(len(calls))
    assert counts == [4] * 6
    units = fdmod._stable_endo_nodes(t).units
    assert calls == [[fdmod._at_lambda(t.field, x, 1) for x in units[pair]] for pair in units]


def test_the_endo_suite_reads_the_brackets_at_one_once(monkeypatch):
    """The endo suite at q = 5 interpolates the 32 unit brackets once at
    lam = 1, for the spans and every symmetry check, and once at each of the
    four lambda."""
    calls = []
    at_lambda = fdmod._at_lambda

    def counting(ctx, terms, lam_idx):
        calls.append(lam_idx)
        return at_lambda(ctx, terms, lam_idx)

    monkeypatch.setattr(fdmod, "_at_lambda", counting)
    report, _ = run(RunConfig(q=5, suites=("endo",)))
    assert report["pass"]
    assert len(calls) <= 32 * (1 + 4)


def test_the_unit_brackets_are_built_once_for_every_zwin(monkeypatch):
    """The nodes for zwin 1 and 3 on one TorusCtx share one set of unit
    brackets and build one set of spans each."""
    calls = []
    brackets = fdmod._unit_brackets

    def counting(ctx):
        calls.append(ctx.q)
        return brackets(ctx)

    monkeypatch.setattr(fdmod, "_unit_brackets", counting)
    t = TorusCtx(field_create(5), 5)
    nodes = fdmod._stable_endo_nodes(t)
    spans = {zwin: nodes.spans_at(zwin) for zwin in (1, 3)}
    orb = next(o for o in orbit_partition(GroupKind.GL2, 5) if o.regular)
    for zwin in (1, 3):
        stable_endo_supersingular(t, orb, 2, zwin=zwin)
        assert fdmod._stable_endo_nodes(t).spans_at(zwin) is spans[zwin]
    assert calls == [5]
    assert spans[1][(1, 1)].dim < spans[3][(1, 1)].dim


@pytest.mark.parametrize("q", [5, 7])
def test_stable_endo_fails_on_an_interpolation_without_node_0(q, monkeypatch):
    """Each bracket read as lam [D_1, E] is wrong at every lam != 1, and the
    symmetry check sees it there."""

    def node_1_only(ctx, terms, lam_idx):
        return {key: ctx.mul[lam_idx][x1] for key, _, x1 in terms if x1}

    monkeypatch.setattr(fdmod, "_at_lambda", node_1_only)
    t = TorusCtx(field_create(q), q)
    orb = next(o for o in orbit_partition(GroupKind.GL2, q) if o.regular)
    for lam in range(2, q):
        with pytest.raises(ComparisonFailure, match="does not carry a bracket"):
            stable_endo_supersingular(t, orb, lam)


def test_stable_endo_fails_on_swapped_summand_scalings(monkeypatch):
    """With c^(1) and c^(2) swapped, psi_lam sends K_{1,lam} to lam^2 (Z - 1)
    iota_1: the symmetry check fails wherever lam^2 != 1."""
    scalings = fdmod._scalings
    monkeypatch.setattr(fdmod, "_scalings", lambda i, lam_idx: scalings(3 - i, lam_idx))
    t, orb = _regular_q5()
    for lam in (2, 3):  # lam^2 = 4 in F_5
        with pytest.raises(ComparisonFailure, match="does not carry a bracket"):
            stable_endo_supersingular(t, orb, lam)


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
        minus = ctx.mul[ctx.neg_i(1)]
        terms = {(a, b, l, z): minus[c] if l % 2 else c for (a, b, l, z), c in k.terms.items()}
        return WindowHomElt(ctx, k.degree, k.lo, k.hi, terms)

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


# -- the restriction certificate ------------------------------------------------------
# The restriction of M_{gamma,lambda} to the vertex algebra is chi_{1,lambda} (+)
# chi_{2,lambda}: reflections act by zero, the torus acts diagonally through the
# two orbit characters and Z = T_omega^2 by lambda.  `SupersingModule.check`
# certifies exactly that shape.


def _passes(module):
    try:
        return module.check()
    except RelationViolation:
        return False


def test_supersingular_restriction_splits():
    t = TorusCtx(F5, 5)
    census = enumerate_supersingular(t, GroupKind.GL2)
    for m in census.modules[:6]:
        assert m.check()


def test_supersingular_restriction_splits_on_pgl2():
    t = TorusCtx(F5, 5)
    for m in enumerate_supersingular(t, GroupKind.PGL2).modules:
        assert m.check()


def test_supersingular_restriction_fails_on_a_corrupted_omega():
    t = TorusCtx(F5, 5)
    m = enumerate_supersingular(t, GroupKind.GL2, lambdas=[2]).modules[0]
    m.mats["Tomega"] = [[0, 1], [1, 0]]  # squares to 1, not lambda = 2
    with pytest.raises(RelationViolation, match="T_omega"):
        m.check()


# An action with xi and xi^{s0} exchanged on every torus element passes the
# certificate, rightly: it is an H-module of the same orbit and lambda, with e0
# and e1 exchanged.  So only a partial swap is a mutation.
@pytest.mark.parametrize("where", ["second_generator"])
def test_supersingular_restriction_fails_on_a_swapped_torus_action(monkeypatch, where):
    t = TorusCtx(F5, 5)
    m = enumerate_supersingular(t, GroupKind.GL2, lambdas=[1]).modules[0]
    first = torus_index(GroupKind.GL2, 5, (1, 0))
    honest = SupersingModule.torus_matrix

    def swapped(self, tt):
        (a, _), (_, b) = honest(self, tt)
        if tt == first:
            return [[a, 0], [0, b]]
        return [[b, 0], [0, a]]

    monkeypatch.setattr(SupersingModule, "torus_matrix", swapped)
    assert not _passes(m)


def test_supersingular_restriction_fails_on_a_corrupted_character_memo(monkeypatch):
    """`torus_matrix` off by zeta at the second torus generator, in the
    twisted character's entry of one orbit, fails exactly the modules of
    that orbit, through the omega/torus relation."""
    t = TorusCtx(F5, 5)
    modules = enumerate_supersingular(t, GroupKind.GL2).modules
    assert all(m.check() for m in modules)
    orbit = corrupt_torus_matrix(monkeypatch, 5)
    hit = [m for m in modules if m.orbit == orbit]
    assert len(hit) == 4 < len(modules)  # one orbit, every lambda
    for m in modules:
        assert _passes(m) == (m not in hit)
    with pytest.raises(RelationViolation, match="omega/torus"):
        hit[0].check()


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

