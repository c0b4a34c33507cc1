from __future__ import annotations

import pytest

from heckelab.errors import CtxMismatch
from heckelab.gf import field_create
from heckelab.hecke import HeckeElt, idempotent, weyl
from heckelab.torus import (
    GroupKind,
    TorusCtx,
    block_label,
    char_value_i,
    coroot,
    coroot_image,
    lift_character,
    mu_alpha_order,
    orbit_class,
    orbit_pair,
    orbit_pairs,
    restrict_to_sl2,
    s0_exps,
    s0_index,
    sign_character,
    torus_exps,
    torus_generators,
    torus_index,
    torus_mul,
    torus_order,
)

from .oracles import (
    TorusTable,
    coroot_neg1,
    enumerate_characters,
    hecke_one,
    orbit_partition,
    trivial_on_coroot_image,
)


def tctx(q, p=None, e=None):
    if p is None:
        for cand in (2, 3, 5, 7):
            m = 1
            while cand**m < q:
                m += 1
            if cand**m == q:
                p, e = cand, m
                break
    return TorusCtx(field_create(p, e), q)


@pytest.mark.parametrize("q", [0, 1])
def test_torus_ctx_refuses_a_residue_field_below_two(q):
    """q < 2 is refused before q - 1 divides anything: a CtxMismatch that
    names q, not a ZeroDivisionError (q = 1) or a message about mu_-1 (q = 0)."""
    with pytest.raises(CtxMismatch, match=f"q={q} is below 2"):
        TorusCtx(field_create(3), q)


def test_character_counts():
    assert len(enumerate_characters(GroupKind.GL2, 3)) == 4
    assert len(enumerate_characters(GroupKind.SL2, 5)) == 4
    assert len(enumerate_characters(GroupKind.PGL2, 3)) == 2


def test_s0_twist_examples():
    assert s0_exps(GroupKind.GL2, 3, (1, 0)) == (0, 1)
    assert s0_exps(GroupKind.SL2, 5, (1,)) == (3,)
    sigma = sign_character(GroupKind.SL2, 5)
    assert sigma == (2,) and s0_exps(GroupKind.SL2, 5, sigma) == sigma  # W-fixed
    assert orbit_class(GroupKind.SL2, 5, sigma) == "sign"


def test_sign_character_sends_generator_to_minus_one():
    t = tctx(5)
    sigma = sign_character(GroupKind.SL2, 5)
    gen = torus_index(GroupKind.SL2, 5, (1,))
    assert char_value_i(t, GroupKind.SL2, sigma, gen) == t.field.neg_i(1)


def test_s0_twist_involution_and_n_label():
    for kind, q in [(GroupKind.GL2, 5), (GroupKind.SL2, 7), (GroupKind.PGL2, 5)]:
        for c in enumerate_characters(kind, q):
            assert s0_exps(kind, q, s0_exps(kind, q, c)) == c
            if kind is GroupKind.GL2:
                assert block_label(kind, q, s0_exps(kind, q, c)) == block_label(kind, q, c)


def test_orbit_partition_gl2_q3():
    classes = orbit_pairs(GroupKind.GL2, 3)
    assert len(classes["trivial"]) == 2 and len(classes["regular"]) == 1


def test_orbit_partition_gl2_q5():
    classes = orbit_pairs(GroupKind.GL2, 5)
    assert len(classes["trivial"]) == 4
    assert len(classes["regular"]) == 6  # (q-1)(q-2)/2


def test_orbit_partition_sl2_q5():
    classes = orbit_pairs(GroupKind.SL2, 5)
    as_sets = {frozenset(x[0] for x in pair) for pairs in classes.values() for pair in pairs}
    assert as_sets == {frozenset({0}), frozenset({2}), frozenset({1, 3})}
    assert classes["sign"] == (((2,), (2,)),)


def test_every_character_in_exactly_one_orbit():
    for kind, q in [(GroupKind.GL2, 5), (GroupKind.SL2, 9), (GroupKind.PGL2, 7)]:
        classes = orbit_pairs(kind, q)
        counts = {c: 0 for c in enumerate_characters(kind, q)}
        for c, pairs in classes.items():
            for pair in pairs:
                assert (c == "regular") == (len(set(pair)) == 2)
                for xi in set(pair):
                    counts[xi] += 1
        assert all(v == 1 for v in counts.values())


def test_nonregular_iff_trivial_on_coroot_gl2_pgl2():
    for kind, q in [(GroupKind.GL2, 5), (GroupKind.PGL2, 7)]:
        for c in enumerate_characters(kind, q):
            regular = orbit_class(kind, q, c) == "regular"
            assert (not regular) == trivial_on_coroot_image(kind, q, c)


def test_sl2_nonregular_set_p_odd():
    for q in (5, 7, 9):
        chars = enumerate_characters(GroupKind.SL2, q)
        nonreg = [c for c in chars if orbit_class(GroupKind.SL2, q, c) != "regular"]
        exps = {c[0] for c in nonreg}
        assert exps == {0, (q - 1) // 2}


ORACLE_CASES = [
    (kind, q)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)
    for kind in GroupKind
    if not (kind is GroupKind.PGL2 and q % 2 == 0)
]


@pytest.mark.parametrize("kind,q", ORACLE_CASES, ids=[f"{k}-{q}" for k, q in ORACLE_CASES])
def test_the_orbit_lists_are_the_brute_force_partition(kind, q):
    """The closed-form lists of `orbit_pairs`, the classifier and
    `orbit_pair` against the orbits found by walking every character: the
    same orbits, each listed once from its smallest member, regular exactly
    when it has two members, and trivial exactly when it kills the coroot
    image (else the SL2 sign character)."""
    partition = orbit_partition(kind, q)
    classes = orbit_pairs(kind, q)
    listed = sorted(pair for pairs in classes.values() for pair in pairs)
    assert listed == [(members[0], members[-1]) for members, _ in partition]
    for c, pairs in classes.items():
        for pair in pairs:
            assert orbit_class(kind, q, pair[0]) == orbit_class(kind, q, pair[1]) == c
    for members, regular in partition:
        for xi in members:
            assert orbit_pair(kind, q, xi) == (members[0], members[-1])
            cls = orbit_class(kind, q, xi)
            assert (cls == "regular") is regular
            if not regular:
                assert (cls == "trivial") is trivial_on_coroot_image(kind, q, xi)
                assert (cls == "sign") is (xi == sign_character(kind, q))


def test_coroot_table():
    # alpha^vee(x) = diag(x, x^{-1}) pushed into each quotient
    assert torus_exps(GroupKind.GL2, 5, coroot(GroupKind.GL2, 5, 1)) == (1, 3)
    assert torus_exps(GroupKind.SL2, 5, coroot(GroupKind.SL2, 5, 1)) == (1,)
    assert torus_exps(GroupKind.PGL2, 5, coroot(GroupKind.PGL2, 5, 1)) == (2,)
    assert mu_alpha_order(GroupKind.PGL2) == 2
    assert mu_alpha_order(GroupKind.GL2) == 1
    # image sizes: q-1, q-1, (q-1)/2
    assert len(coroot_image(GroupKind.GL2, 5)) == 4
    assert len(coroot_image(GroupKind.SL2, 5)) == 4
    assert len(coroot_image(GroupKind.PGL2, 5)) == 2


def test_idempotent_sigma_q3_coefficients():
    # expand |T|^{-1} sum sigma(t^{-1}) T_t by hand over F_3
    t = tctx(3, p=3, e=1)
    e = idempotent(t, GroupKind.SL2, (1,))
    plus = weyl(GroupKind.SL2, 3, torus_exps=(0,))
    minus = weyl(GroupKind.SL2, 3, torus_exps=(1,))
    assert e.terms[plus] == t.field.scalar_i(2)
    assert e.terms[minus] == t.field.scalar_i(1)


def test_trivial_idempotent_uniform():
    t = tctx(5)
    e = idempotent(t, GroupKind.SL2, (0,))
    inv_size = t.field.inv_i(t.field.scalar_i(4))
    assert all(c == inv_size for c in e.terms.values())
    assert len(e.terms) == 4


def test_sum_of_char_idempotents_is_identity():
    t = tctx(5)
    total = HeckeElt(t, GroupKind.SL2)
    for c in enumerate_characters(GroupKind.SL2, 5):
        total = total.add(idempotent(t, GroupKind.SL2, c))
    assert total == hecke_one(t, GroupKind.SL2)


def test_lift_character_examples():
    assert lift_character(5, (0,)) == (0, 0)

    sigma = (2,)
    lifted = lift_character(5, sigma)
    assert lifted == (1, 3)  # j=1, j-n = -1
    assert orbit_class(GroupKind.GL2, 5, lifted) == "regular"
    assert restrict_to_sl2(5, lifted) == sigma

    chi1 = (1,)
    l1 = lift_character(5, chi1)
    assert l1[0] == 1
    assert block_label(GroupKind.GL2, 5, l1) == 1  # 2j - n = 1
    assert restrict_to_sl2(5, l1) == chi1


def test_lift_restriction_identity_all():
    for q in (5, 7, 9):
        for n in range(q - 1):
            assert restrict_to_sl2(q, lift_character(q, (n,))) == (n,)


def test_idempotent_restriction_identity():
    """e_xi (SL2, inside k[T_GL2]) equals the sum of the q-1 lift idempotents."""
    q = 5
    t = tctx(q)
    for n in (0, 1, 2):
        chi = (n,)
        # e_xi as an element of k[T_GL2]: sum over embedded SL2 torus
        inv_size = t.field.inv_i(t.field.scalar_i(q - 1))
        lhs = HeckeElt(
            t,
            GroupKind.GL2,
            {
                weyl(GroupKind.GL2, q, torus_exps=(a, -a)): t.field.mul_i(
                    inv_size,
                    char_value_i(t, GroupKind.SL2, chi, torus_index(GroupKind.SL2, q, (-a,))),
                )
                for a in range(q - 1)
            },
        )
        rhs = HeckeElt(t, GroupKind.GL2)
        for j in range(q - 1):
            rhs = rhs.add(idempotent(t, GroupKind.GL2, lift_character(q, chi, j)))
        assert lhs == rhs


@pytest.mark.parametrize(
    "p,m,q", [(2, 1, 2), (3, 1, 3), (3, 2, 3), (3, 2, 9), (2, 6, 4), (2, 6, 8), (5, 2, 5)]
)
def test_zeta_powers_from_the_exp_table(p, m, q):
    """zeta is generator^((|F|-1)/(q-1)), and value_i(e) is zeta^e by repeated multiplication."""
    fld = field_create(p, m)
    t = TorusCtx(fld, q)
    assert t.zeta_idx == fld.pow_i(fld.generator_idx(), (fld.q - 1) // (q - 1))
    x = 1
    for e in range(q - 1):
        assert t.value_i(e) == x
        x = fld.mul_i(x, t.zeta_idx)
    assert x == 1


TABLE_CASES = [
    (kind, q)
    for q in (3, 4, 5, 9)
    for kind in GroupKind
    if not (kind is GroupKind.PGL2 and q == 4)
]
LAW_CASES = [(kind, q) for q in (2, 3, 4, 5, 7, 8, 9) for kind in GroupKind]


@pytest.mark.parametrize("kind,q", LAW_CASES, ids=[f"{k}-{q}" for k, q in LAW_CASES])
def test_torus_table_matches_exponent_law(kind, q):
    """Indices enumerate the exponent vectors lexicographically; the
    brute-force table of the oracles (`TorusTable`) follows the exponent
    group law (Z/(q-1))^rank written out here; and on all of T the package's
    digit arithmetic agrees with it: the group law (`torus_mul`), the s0
    twist (`s0_index`), the inverse that `idempotent` reads (xi(t^-1) as the
    value of -xi at t), the coroot image and the generators."""
    n = q - 1
    gl2 = kind is GroupKind.GL2
    vecs = [(a, b) for a in range(n) for b in range(n)] if gl2 else [(a,) for a in range(n)]
    assert [torus_exps(kind, q, t) for t in range(len(vecs))] == vecs
    assert [torus_index(kind, q, e) for e in vecs] == list(range(len(vecs)))
    index = {e: k for k, e in enumerate(vecs)}

    def red(e):
        return index[tuple(x % n for x in e)]

    def alpha(c):  # alpha^vee(zeta^c) = diag(zeta^c, zeta^-c), pushed into the torus
        return red((c, -c) if gl2 else ((2 if kind is GroupKind.PGL2 else 1) * c,))

    tab = TorusTable(kind, q)
    assert tab.order == torus_order(kind, q) == len(vecs)
    for s, e in enumerate(vecs):
        row = [red([x + y for x, y in zip(e, f)]) for f in vecs]
        assert [tab.mul(s, t) for t in range(tab.order)] == row, e
        assert torus_mul(kind, q, s, range(tab.order)) == row, e
    assert tab.inv == [red([-x for x in e]) for e in vecs]
    assert tab.s0 == [red((e[1], e[0]) if gl2 else (-e[0],)) for e in vecs]
    assert [s0_index(kind, q, t) for t in range(tab.order)] == tab.s0
    assert tab.coroot == list(dict.fromkeys(alpha(c) for c in range(n))) == coroot_image(kind, q)
    assert [torus_index(kind, q, u) for u in torus_generators(kind)] == tab.gens
    assert coroot_neg1(kind, q) == alpha(n // 2 if q % 2 else 0)
    t = tctx(q)
    fld = t.field
    scale = fld.mul[fld.inv_i(fld.scalar_i(tab.order))]
    for xi in enumerate_characters(kind, q):
        want = {(0, (), s): scale[char_value_i(t, kind, xi, tab.inv[s])] for s in range(tab.order)}
        assert idempotent(t, kind, xi).terms == want, xi


@pytest.mark.parametrize("kind,q", TABLE_CASES, ids=[f"{k}-{q}" for k, q in TABLE_CASES])
def test_values_list_every_evaluation(kind, q):
    """`char_value_i`, the one evaluation of a character, at every torus
    element: zeta to the pairing of the exponent vectors, as a field power of
    the generator zeta, not read off the zeta table."""
    t = tctx(q)
    order = torus_order(kind, q)
    for chi in enumerate_characters(kind, q):
        want = [
            t.field.pow_i(t.zeta_idx, sum(a * e for a, e in zip(torus_exps(kind, q, s), chi)))
            for s in range(order)
        ]
        assert [char_value_i(t, kind, chi, s) for s in range(order)] == want, chi
