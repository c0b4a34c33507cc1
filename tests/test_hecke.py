from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.errors import CtxMismatch, KindMismatch
from heckelab.gf import field_create
from heckelab.hecke import (
    HeckeElt,
    enumerate_supersingular,
    gen_Tomega,
    gen_Ts,
    hecke_basis,
    hecke_mul,
    hecke_one,
    is_central,
    orbit_idempotent,
    pgl2_reduce,
    sl2_chi,
    supersingular_characters,
    weyl,
    weyl_inv,
    weyl_mul,
)
from heckelab.torus import GroupKind, TorusCtx, orbit_partition, torus_exps, torus_index

from .oracles import hecke_mul_termwise

Q2CTX = {}


def tctx(q):
    if q not in Q2CTX:
        p = 2 if q in (2, 4, 8) else (3 if q in (3, 9) else q)
        e = {2: 1, 3: 1, 4: 2, 5: 1, 7: 1, 8: 3, 9: 2}[q]
        Q2CTX[q] = TorusCtx(field_create(p, e), q)
    return Q2CTX[q]


# -- extended Weyl group ------------------------------------------------------


def test_weyl_alternating_concat():
    u = weyl(GroupKind.SL2, 3, word=(0,))
    v = weyl(GroupKind.SL2, 3, word=(1,))
    assert weyl_mul(GroupKind.SL2, 3, u, v)[1] == (0, 1)
    assert len(weyl_mul(GroupKind.SL2, 3, u, v)[1]) == 2


def test_weyl_omega_conjugation():
    # omega s0 omega^{-1} = s1
    q = 5
    om = weyl(GroupKind.GL2, q, omega_pow=1)
    s0 = weyl(GroupKind.GL2, q, word=(0,))
    G = GroupKind.GL2
    lhs = weyl_mul(G, q, weyl_mul(G, q, om, s0), weyl_inv(G, q, om))
    assert lhs == weyl(GroupKind.GL2, q, word=(1,))


def test_weyl_s0_squared_is_coroot_minus_one():
    # oracle: standard lift in SL2(F): [[0,1],[-1,0]]^2 = -id = diag(zeta^2, zeta^-2)
    q = 5
    s0 = weyl(GroupKind.SL2, q, word=(0,))
    sq = weyl_mul(GroupKind.SL2, q, s0, s0)
    assert sq[1] == ()
    assert torus_exps(GroupKind.SL2, q, sq[2]) == ((q - 1) // 2,)


def test_weyl_inverse():
    rng = random.Random(0)
    for kind, q in [(GroupKind.GL2, 5), (GroupKind.SL2, 7), (GroupKind.PGL2, 5)]:
        for _ in range(15):
            word = []
            for _ in range(rng.randrange(4)):
                nxt = rng.choice([0, 1])
                if word and word[-1] == nxt:
                    nxt = 1 - nxt
                word.append(nxt)
            exps = (
                (rng.randrange(q - 1), rng.randrange(q - 1))
                if kind is GroupKind.GL2
                else (rng.randrange(q - 1),)
            )
            om = 0 if kind is GroupKind.SL2 else rng.randrange(-2, 3)
            u = weyl(kind, q, omega_pow=om, word=word, torus_exps=exps)
            assert weyl_mul(kind, q, u, weyl_inv(kind, q, u)) == weyl(kind, q)
            assert weyl_mul(kind, q, weyl_inv(kind, q, u), u) == weyl(kind, q)


def test_weyl_associativity_random():
    rng = random.Random(1)
    q = 5
    elts = []
    for _ in range(12):
        word = []
        for _ in range(rng.randrange(3)):
            nxt = rng.choice([0, 1])
            if word and word[-1] == nxt:
                nxt = 1 - nxt
            word.append(nxt)
        elts.append(
            weyl(
                GroupKind.GL2,
                q,
                omega_pow=rng.randrange(-1, 2),
                word=word,
                torus_exps=(rng.randrange(4), rng.randrange(4)),
            )
        )
    mul = lambda x, y: weyl_mul(GroupKind.GL2, q, x, y)
    for u in elts[:6]:
        for v in elts[3:9]:
            for w in elts[6:]:
                assert mul(mul(u, v), w) == mul(u, mul(v, w))


# -- Hecke multiplication -----------------------------------------------------


def test_ts0_ts1_lengths_add():
    t = tctx(5)
    prod = hecke_mul(gen_Ts(t, GroupKind.GL2, 0), gen_Ts(t, GroupKind.GL2, 1))
    (w, c), = prod.terms.items()
    assert w[1] == (0, 1) and c == 1


def test_sl2_q3_quadratic():
    # T_{s0}^2 = T_{s0} (T_1 + T_{-1}) = T_{s0} + T_{s0 . (-1)}
    t = tctx(3)
    s0 = gen_Ts(t, GroupKind.SL2, 0)
    sq = hecke_mul(s0, s0)
    w_plus = weyl(GroupKind.SL2, 3, word=(0,), torus_exps=(0,))
    w_minus = weyl(GroupKind.SL2, 3, word=(0,), torus_exps=(1,))
    assert sq.terms == {w_plus: 1, w_minus: 1}


def test_pgl2_omega_squared_is_one():
    t = tctx(5)
    om = gen_Tomega(t, GroupKind.PGL2)
    assert hecke_mul(om, om) == hecke_one(t, GroupKind.PGL2)


def test_gl2_omega_squared_is_central():
    t = tctx(5)
    om2 = gen_Tomega(t, GroupKind.GL2, 2)
    assert is_central(om2)


def test_ts0_not_central():
    t = tctx(5)
    assert not is_central(gen_Ts(t, GroupKind.GL2, 0))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_hecke_associativity(data):
    q = 5
    t = tctx(q)
    kind = data.draw(st.sampled_from([GroupKind.GL2, GroupKind.SL2]))

    def rand_basis():
        n = data.draw(st.integers(0, 4))
        word = []
        for _ in range(n):
            nxt = data.draw(st.integers(0, 1))
            if word and word[-1] == nxt:
                nxt = 1 - nxt
            word.append(nxt)
        if kind is GroupKind.GL2:
            exps = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
            om = data.draw(st.integers(-1, 2))
        else:
            exps = (data.draw(st.integers(0, 3)),)
            om = 0
        return hecke_basis(t, kind, weyl(kind, q, omega_pow=om, word=word, torus_exps=exps))

    x, y, z = rand_basis(), rand_basis(), rand_basis()
    assert hecke_mul(hecke_mul(x, y), z) == hecke_mul(x, hecke_mul(y, z))


def _random_hecke_elt(rng, t, kind):
    """A few torus-free parts omega^a s_word (|a| <= 2, length <= 3), each with
    one to three torus parts and random nonzero coefficients."""
    q = t.q
    rank = 2 if kind is GroupKind.GL2 else 1
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        first = rng.randrange(2)
        word = [(first + k) % 2 for k in range(rng.randrange(4))]
        om = 0 if kind is GroupKind.SL2 else rng.randrange(-2, 3)
        for _ in range(rng.randrange(1, 4)):
            exps = [rng.randrange(q - 1) for _ in range(rank)]
            w = weyl(kind, q, omega_pow=om, word=word, torus_exps=exps)
            terms[w] = rng.randrange(1, t.field.q)
    return HeckeElt(t, kind, terms)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("kind", [GroupKind.GL2, GroupKind.SL2, GroupKind.PGL2])
def test_hecke_mul_matches_termwise_oracle(kind, q):
    t = tctx(q)
    rng = random.Random(f"{kind.value}/{q}")
    for _ in range(25):
        x, y = _random_hecke_elt(rng, t, kind), _random_hecke_elt(rng, t, kind)
        assert hecke_mul(x, y) == hecke_mul_termwise(x, y)


def test_grading_parity_of_products():
    """Lengths never exceed the sum; inside a regular block the quadratic terms
    die, so there the length parity matches the sum exactly."""
    t = tctx(5)
    rng = random.Random(3)
    reg = next(o for o in orbit_partition(GroupKind.GL2, 5) if o.regular)
    for _ in range(20):
        def rb():
            n = rng.randrange(4)
            word = []
            for _ in range(n):
                nxt = rng.choice([0, 1])
                if word and word[-1] == nxt:
                    nxt = 1 - nxt
                word.append(nxt)
            return weyl(
                GroupKind.GL2,
                5,
                omega_pow=rng.randrange(2),
                word=word,
                torus_exps=(rng.randrange(4), rng.randrange(4)),
            )

        u, v = rb(), rb()
        prod = hecke_mul(hecke_basis(t, GroupKind.GL2, u), hecke_basis(t, GroupKind.GL2, v))
        total = len(u[1]) + len(v[1])
        omegas = set()
        for omega_pow, word, _ in prod.terms:
            assert len(word) <= total
            omegas.add(omega_pow)
        assert len(omegas) <= 1  # one omega-coset per product
        blocked = hecke_mul(orbit_idempotent(t, reg), prod)
        for _, word, _ in blocked.terms:
            assert (len(word) - total) % 2 == 0


def test_block_projection_system():
    for kind, q in [(GroupKind.SL2, 5), (GroupKind.GL2, 3), (GroupKind.PGL2, 5)]:
        t = tctx(q)
        orbits = orbit_partition(kind, q)
        es = [orbit_idempotent(t, o) for o in orbits]
        total = HeckeElt(t, kind)
        for e in es:
            assert is_central(e)
            assert hecke_mul(e, e) == e
            total = total.add(e)
        assert total == hecke_one(t, kind)
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                assert hecke_mul(es[i], es[j]).is_zero()


def test_block_project_random_element_reassembles():
    q = 5
    t = tctx(q)
    kind = GroupKind.SL2
    rng = random.Random(7)
    x = HeckeElt(t, kind)
    for _ in range(5):
        word = rng.choice([(), (0,), (1,), (0, 1), (1, 0)])
        x = x.add(
            hecke_basis(
                t,
                kind,
                weyl(kind, q, word=word, torus_exps=(rng.randrange(4),)),
                coeff=rng.randrange(1, 5),
            )
        )
    total = HeckeElt(t, kind)
    for o in orbit_partition(kind, q):
        total = total.add(hecke_mul(orbit_idempotent(t, o), x))
    assert total == x


def test_pgl2_quotient_consistency():
    qg = tctx(5)
    rng = random.Random(11)

    def rb():
        n = rng.randrange(3)
        word = []
        for _ in range(n):
            nxt = rng.choice([0, 1])
            if word and word[-1] == nxt:
                nxt = 1 - nxt
            word.append(nxt)
        return hecke_basis(
            qg,
            GroupKind.GL2,
            weyl(
                GroupKind.GL2,
                5,
                omega_pow=rng.randrange(-1, 3),
                word=word,
                torus_exps=(rng.randrange(4), rng.randrange(4)),
            ),
        )

    for _ in range(25):
        x, y = rb(), rb()
        lhs = pgl2_reduce(qg, hecke_mul(x, y))
        rhs = hecke_mul(pgl2_reduce(qg, x), pgl2_reduce(qg, y))
        assert lhs == rhs


# -- supersingular census -----------------------------------------------------


def test_sl2_supersingular_counts():
    for q in (3, 5, 7, 9):
        chars = supersingular_characters(GroupKind.SL2, q)
        inf = [c for c in chars if not c.finite_pd]
        assert len(inf) == q - 2
        exps = sorted(c.restriction.exps[0] for c in inf)
        assert exps == list(range(1, q - 1))


def test_supersingular_two_case_definition_exhaustive():
    """Cross-check the census against a direct scan of all candidate characters."""
    from heckelab.torus import enumerate_characters

    for kind, q in [(GroupKind.SL2, 5), (GroupKind.GL2, 3), (GroupKind.PGL2, 5)]:
        expected = set()
        for xi in enumerate_characters(kind, q):
            if not xi.trivial_on_coroot_image():
                expected.add((xi.exps, 0, 0, False))
            else:
                expected.add((xi.exps, 0, -1, True))
                expected.add((xi.exps, -1, 0, True))
        got = {
            (c.restriction.exps, c.ts0_val, c.ts1_val, c.finite_pd)
            for c in supersingular_characters(kind, q)
        }
        assert got == expected


def test_gl2_module_count_per_lambda():
    t = tctx(5)
    lam = [t.field.scalar_i(2)]
    census = enumerate_supersingular(t, GroupKind.GL2, lambdas=lam)
    assert len(census.modules) == 6  # one per regular orbit


def test_supersingular_module_relations():
    t = tctx(5)
    census = enumerate_supersingular(t, GroupKind.GL2)
    for m in census.modules:
        assert m.check()
    lam = census.modules[0].lam_idx
    m = census.modules[0]
    # T_omega e0 = e1, T_omega e1 = lambda e0
    assert m.mats["Tomega"] == [[0, lam], [1, 0]]


def test_sl2_module_action_values():
    t = tctx(5)
    chi2 = sl2_chi(5, 2)
    from heckelab.hecke import SupersingModule

    m = SupersingModule(t, GroupKind.SL2, None, 1, char=chi2)
    assert m.check()
    assert m.mats["Ts0"] == [[0]] and m.mats["Ts1"] == [[0]]
    gen = torus_index(GroupKind.SL2, 5, (1,))
    val = m.torus_matrix(gen)[0][0]
    assert val == t.value_i(2)


def test_module_acts_by_character_on_e0():
    t = tctx(5)
    census = enumerate_supersingular(t, GroupKind.GL2, lambdas=[1])
    m = census.modules[0]
    xi, xi_tw = m.orbit.pair()
    tor = torus_index(GroupKind.GL2, 5, (1, 2))
    mat = m.torus_matrix(tor)
    assert mat[0][0] == xi.eval_i(t, tor)
    assert mat[1][1] == xi_tw.eval_i(t, tor)
    assert mat[0][1] == 0 and mat[1][0] == 0


def test_kind_mismatch_raises():
    t3, t5 = tctx(3), tctx(5)
    with pytest.raises(KindMismatch):
        hecke_mul(gen_Ts(t3, GroupKind.SL2, 0), gen_Ts(t5, GroupKind.SL2, 0))
    with pytest.raises(KindMismatch):
        hecke_mul(gen_Ts(t5, GroupKind.SL2, 0), gen_Ts(t5, GroupKind.GL2, 0))


_OPS = {
    "add": HeckeElt.add,
    "sub": HeckeElt.sub,
    "eq": HeckeElt.__eq__,
    "mul": hecke_mul,
}


@pytest.mark.parametrize("op", sorted(_OPS))
@pytest.mark.parametrize("mixed,error", [("kind", KindMismatch), ("field", CtxMismatch)])
def test_mixed_operands_raise(op, mixed, error):
    """Term keys carry no kind or field, so the operands' own are compared."""
    t3 = tctx(3)
    x = hecke_one(t3, GroupKind.SL2)
    if mixed == "kind":
        y = hecke_one(t3, GroupKind.GL2)
    else:  # q = 3 inside F_9: the same keys, other field tables
        y = hecke_one(TorusCtx(field_create(3, 2), 3), GroupKind.SL2)
    with pytest.raises(error):
        _OPS[op](x, y)
