from __future__ import annotations

import pytest

from heckelab.gf import field_create
from heckelab.hecke import HeckeElt, hecke_one, idempotent, weyl
from heckelab.torus import (
    GroupKind,
    TorusChar,
    TorusCtx,
    coroot,
    coroot_image,
    coroot_neg1,
    enumerate_characters,
    lift_character,
    mu_alpha_order,
    orbit_partition,
    restrict_to_sl2,
    sign_character,
    torus_exps,
    torus_index,
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


def test_character_counts():
    assert len(enumerate_characters(GroupKind.GL2, 3)) == 4
    assert len(enumerate_characters(GroupKind.SL2, 5)) == 4
    assert len(enumerate_characters(GroupKind.PGL2, 3)) == 2


def test_s0_twist_examples():
    c = TorusChar(GroupKind.GL2, 3, (1, 0))
    assert c.s0_twist().exps == (0, 1)
    c = TorusChar(GroupKind.SL2, 5, (1,))
    assert c.s0_twist().exps == (3,)
    sigma = TorusChar(GroupKind.SL2, 5, (2,))
    assert sigma.s0_twist() == sigma  # the sign character is W-fixed


def test_sign_character_sends_generator_to_minus_one():
    t = tctx(5)
    sigma = sign_character(GroupKind.SL2, 5)
    gen = torus_index(GroupKind.SL2, 5, (1,))
    assert sigma.eval_i(t, gen) == t.field.neg_i(1)


def test_s0_twist_involution_and_n_label():
    for kind, q in [(GroupKind.GL2, 5), (GroupKind.SL2, 7), (GroupKind.PGL2, 5)]:
        for c in enumerate_characters(kind, q):
            assert c.s0_twist().s0_twist() == c
            if kind is GroupKind.GL2:
                assert c.s0_twist().n_label == c.n_label


def test_orbit_partition_gl2_q3():
    orbits = orbit_partition(GroupKind.GL2, 3)
    nonreg = [o for o in orbits if not o.regular]
    reg = [o for o in orbits if o.regular]
    assert len(nonreg) == 2 and len(reg) == 1


def test_orbit_partition_gl2_q5():
    orbits = orbit_partition(GroupKind.GL2, 5)
    assert sum(1 for o in orbits if not o.regular) == 4
    assert sum(1 for o in orbits if o.regular) == 6  # (q-1)(q-2)/2


def test_orbit_partition_sl2_q5():
    orbits = orbit_partition(GroupKind.SL2, 5)
    as_sets = {frozenset(c.exps[0] for c in o.members) for o in orbits}
    assert as_sets == {frozenset({0}), frozenset({2}), frozenset({1, 3})}
    sigma_orbit = next(o for o in orbits if {c.exps[0] for c in o.members} == {2})
    assert not sigma_orbit.regular


def test_every_character_in_exactly_one_orbit():
    for kind, q in [(GroupKind.GL2, 5), (GroupKind.SL2, 9), (GroupKind.PGL2, 7)]:
        orbits = orbit_partition(kind, q)
        chars = enumerate_characters(kind, q)
        counts = {c: 0 for c in chars}
        for o in orbits:
            assert o.regular == (len(o.members) == 2)
            for c in o.members:
                counts[c] += 1
        assert all(v == 1 for v in counts.values())


def test_nonregular_iff_trivial_on_coroot_gl2_pgl2():
    for kind, q in [(GroupKind.GL2, 5), (GroupKind.PGL2, 7)]:
        for c in enumerate_characters(kind, q):
            assert (not c.is_regular()) == c.trivial_on_coroot_image()


def test_sl2_nonregular_set_p_odd():
    for q in (5, 7, 9):
        nonreg = [c for c in enumerate_characters(GroupKind.SL2, q) if not c.is_regular()]
        exps = {c.exps[0] for c in nonreg}
        assert exps == {0, (q - 1) // 2}


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
    sigma = TorusChar(GroupKind.SL2, 3, (1,))
    e = idempotent(t, sigma)
    plus = weyl(GroupKind.SL2, 3, torus_exps=(0,))
    minus = weyl(GroupKind.SL2, 3, torus_exps=(1,))
    assert e.terms[plus] == t.field.scalar_i(2)
    assert e.terms[minus] == t.field.scalar_i(1)


def test_trivial_idempotent_uniform():
    t = tctx(5)
    triv = TorusChar(GroupKind.SL2, 5, (0,))
    e = idempotent(t, triv)
    inv_size = t.field.inv_i(t.field.scalar_i(4))
    assert all(c == inv_size for c in e.terms.values())
    assert len(e.terms) == 4


def test_sum_of_char_idempotents_is_identity():
    t = tctx(5)
    total = HeckeElt(t, GroupKind.SL2)
    for c in enumerate_characters(GroupKind.SL2, 5):
        total = total.add(idempotent(t, c))
    assert total == hecke_one(t, GroupKind.SL2)


def test_lift_character_examples():
    triv = TorusChar(GroupKind.SL2, 5, (0,))
    assert lift_character(triv).exps == (0, 0)

    sigma = TorusChar(GroupKind.SL2, 5, (2,))
    lifted = lift_character(sigma)
    assert lifted.exps == (1, 3)  # j=1, j-n = -1
    assert lifted.is_regular()
    assert restrict_to_sl2(lifted) == sigma

    chi1 = TorusChar(GroupKind.SL2, 5, (1,))
    l1 = lift_character(chi1)
    assert l1.exps[0] == 1
    assert l1.n_label == 1  # 2j - n = 1
    assert restrict_to_sl2(l1) == chi1


def test_lift_restriction_identity_all():
    for q in (5, 7, 9):
        for n in range(q - 1):
            chi = TorusChar(GroupKind.SL2, q, (n,))
            assert restrict_to_sl2(lift_character(chi)) == chi


def test_idempotent_restriction_identity():
    """e_xi (SL2, inside k[T_GL2]) equals the sum of the q-1 lift idempotents."""
    q = 5
    t = tctx(q)
    for n in (0, 1, 2):
        chi = TorusChar(GroupKind.SL2, q, (n,))
        # e_xi as an element of k[T_GL2]: sum over embedded SL2 torus
        inv_size = t.field.inv_i(t.field.scalar_i(q - 1))
        lhs = HeckeElt(
            t,
            GroupKind.GL2,
            {
                weyl(GroupKind.GL2, q, torus_exps=(a, -a)): t.field.mul_i(
                    inv_size, chi.eval_i(t, torus_index(GroupKind.SL2, q, (-a,)))
                )
                for a in range(q - 1)
            },
        )
        rhs = HeckeElt(t, GroupKind.GL2)
        for j in range(q - 1):
            rhs = rhs.add(idempotent(t, lift_character(chi, j)))
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


@pytest.mark.parametrize("kind,q", TABLE_CASES, ids=[f"{k}-{q}" for k, q in TABLE_CASES])
def test_torus_table_matches_exponent_law(kind, q):
    """Indices enumerate the exponent vectors lexicographically, and the table's
    product, inverse, s0, coroot image and alpha^vee(-1) follow the exponent
    group law (Z/(q-1))^rank written out here."""
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

    tab = tctx(q).torus_table(kind)
    assert tab.order == len(vecs)
    assert tab.mul == [[red([x + y for x, y in zip(e, f)]) for f in vecs] for e in vecs]
    assert tab.inv == [red([-x for x in e]) for e in vecs]
    assert tab.s0 == [red((e[1], e[0]) if gl2 else (-e[0],)) for e in vecs]
    assert tab.coroot == list(dict.fromkeys(alpha(c) for c in range(n)))
    assert coroot_neg1(kind, q) == alpha(n // 2 if q % 2 else 0)
