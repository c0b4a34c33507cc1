from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.cli import RunConfig, run
from heckelab.errors import ConfigError, CtxMismatch, KindMismatch, RelationViolation
from heckelab.gf import field_create, prime_power
from heckelab.hecke import (
    HeckeElt,
    SupersingularCensus,
    enumerate_supersingular,
    gen_Tomega,
    gen_Ts,
    hecke_basis,
    hecke_mul,
    idempotent_system,
    is_central,
    orbit_idempotent,
    pgl2_reduce,
    weyl,
)
from heckelab.scheme import correspondence_table
from heckelab.torus import (
    GroupKind,
    TorusCtx,
    char_value_i,
    orbit_list_faults,
    orbit_pair,
    orbit_pairs,
    torus_exps,
    torus_index,
)

from .oracles import (
    ExplicitModule,
    TorusTable,
    census_checked_per_orbit,
    census_modules,
    census_modules_pass,
    coroot_neg1,
    enumerate_characters,
    hecke_mul_termwise,
    hecke_one,
    module_relations_hold,
    orbit_partition,
    pairwise_idempotent_system,
    supersingular_characters,
    supersingular_relations_hold,
    trivial_on_coroot_image,
    weyl_mul,
)


def weyl_inv(kind, q, u):
    """u^-1 = t^-1 s_word^-1 omega^-a, with s_i^-1 = s_i alpha^vee(-1) and
    alpha^vee(-1) of order two and fixed by s0."""
    a, word, t = u
    out = weyl(kind, q, torus_exps=[-e for e in torus_exps(kind, q, t)])
    for letter in reversed(word):
        out = weyl_mul(kind, q, out, weyl(kind, q, word=(letter,)))
    eps = torus_exps(kind, q, coroot_neg1(kind, q))
    out = weyl_mul(kind, q, out, weyl(kind, q, torus_exps=[len(word) * e for e in eps]))
    return weyl_mul(kind, q, out, weyl(kind, q, omega_pow=-a))


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
    reg = orbit_pairs(GroupKind.GL2, 5)["regular"][0]
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
        blocked = hecke_mul(orbit_idempotent(t, GroupKind.GL2, reg), prod)
        for _, word, _ in blocked.terms:
            assert (len(word) - total) % 2 == 0


def test_block_projection_system():
    for kind, q in [(GroupKind.SL2, 5), (GroupKind.GL2, 3), (GroupKind.PGL2, 5)]:
        t = tctx(q)
        es = [orbit_idempotent(t, kind, p) for ps in orbit_pairs(kind, q).values() for p in ps]
        total = HeckeElt(t, kind)
        for e in es:
            assert is_central(e)
            assert hecke_mul(e, e) == e
            total = total.add(e)
        assert total == hecke_one(t, kind)
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                assert hecke_mul(es[i], es[j]).is_zero()


AGREEMENT_CASES = [(kind, q) for q in (2, 3, 4, 5, 7, 8, 9) for kind in GroupKind]


@pytest.mark.parametrize("kind,q", AGREEMENT_CASES, ids=[f"{k}-{q}" for k, q in AGREEMENT_CASES])
def test_the_eigenvalue_certificate_agrees_with_the_pairwise_products(kind, q):
    """The blocks suite's `idempotent_system`, which builds no idempotent
    (its group-law rows are the eigenvalue relations of the coordinate
    characters), holds exactly where the pairwise products of the oracle do:
    on the orbit lists of every kind.  It is read off the suite's report, or, where
    `RunConfig` refuses the kind (PGL2 at p = 2), called directly with the
    list certificate."""
    t = tctx(q)
    classes = orbit_pairs(kind, q)
    pairs = [pair for pairs in classes.values() for pair in pairs]
    if kind is GroupKind.PGL2 and q % 2 == 0:
        bad, fault = orbit_list_faults(kind, q, classes)
        certified = idempotent_system(t, kind) and fault is None and not any(bad.values())
    else:
        report, _ = run(RunConfig(q=q, kinds=(kind,), suites=("blocks",)))
        certified = report["suites"][0]["details"][str(kind)]["idempotent_system"]
    assert certified is pairwise_idempotent_system(t, kind, pairs) is True


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
    for pairs in orbit_pairs(kind, q).values():
        for pair in pairs:
            total = total.add(hecke_mul(orbit_idempotent(t, kind, pair), x))
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
        inf = [xi for xi, _, _, finite_pd in chars if not finite_pd]
        assert len(inf) == q - 2
        assert sorted(xi[0] for xi in inf) == list(range(1, q - 1))


def test_supersingular_two_case_definition_exhaustive():
    """Cross-check the census against a direct scan of all candidate characters."""
    for kind, q in [(GroupKind.SL2, 5), (GroupKind.GL2, 3), (GroupKind.PGL2, 5)]:
        expected = set()
        for xi in enumerate_characters(kind, q):
            if not trivial_on_coroot_image(kind, q, xi):
                expected.add((xi, 0, 0, False))
            else:
                expected.add((xi, 0, -1, True))
                expected.add((xi, -1, 0, True))
        assert set(supersingular_characters(kind, q)) == expected


def test_gl2_module_count_per_lambda():
    t = tctx(5)
    lam = [t.field.scalar_i(2)]
    census = enumerate_supersingular(t, GroupKind.GL2, lambdas=lam)
    assert census.module_count == len(census_modules(census)) == 6  # one per regular orbit


def test_supersingular_module_relations():
    t = tctx(5)
    census = enumerate_supersingular(t, GroupKind.GL2)
    assert census.check()
    modules = census_modules(census)
    assert all(module_relations_hold(m) for m in modules)
    m = modules[0]
    # T_omega e0 = e1, T_omega e1 = lambda e0
    assert m.mats["Tomega"] == [[0, census.lambdas[0]], [1, 0]]


@pytest.mark.parametrize("kind", [GroupKind.GL2, GroupKind.PGL2])
def test_module_check_fails_when_the_torus_ignores_the_twist(kind):
    """With e1 acting through xi instead of xi^{s0}, the reflections (zero on
    these modules) still satisfy their relations; only omega-torus fails,
    in the relations multiplied out and in the census certificate, which
    reads that pair as no orbit."""
    t = tctx(5)
    census = enumerate_supersingular(t, kind)
    modules = census_modules(census)
    assert modules and census_modules_pass(census)
    for m in modules:
        m.pair = (m.pair[0],) * 2
        assert not module_relations_hold(m)
    untwisted = replace(census, pairs=tuple((xi, xi) for xi, _ in census.pairs))
    with pytest.raises(RelationViolation, match="the orbit pair of"):
        untwisted.check()


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_module_check_agrees_with_the_generic_relations(q):
    """The census certificate and the relations multiplied out (the oracle)
    both accept every census module, of every kind."""
    t = tctx(q)
    for kind in GroupKind:
        census = enumerate_supersingular(t, kind)
        assert census.check()
        for m in census_modules(census):
            assert supersingular_relations_hold(t, kind, m.pair, m.lam_idx)


@pytest.mark.parametrize("name", ["Ts0", "Ts1"])
@pytest.mark.parametrize("kind", list(GroupKind))
def test_module_check_fails_on_a_nonzero_reflection(kind, name):
    """T_s acting by the identity breaks the relations of every module.  The
    census stores no reflection: T_s = 0 is the definition of its modules."""
    t = TorusCtx(field_create(5), 5)
    for m in census_modules(enumerate_supersingular(t, kind)):
        m.mats[name] = [[1 if i == j else 0 for j in range(m.dim)] for i in range(m.dim)]
        assert not module_relations_hold(m)


@pytest.mark.parametrize("kind", [GroupKind.GL2, GroupKind.PGL2])
def test_module_check_fails_on_a_wrong_omega(kind):
    """T_omega squaring to 1 at lambda = 2, and a zero lambda, break the
    relations; of the two only lambda is census data, and the census
    certificate refuses lambda = 0."""
    t = TorusCtx(field_create(5), 5)
    census = enumerate_supersingular(t, kind)
    reg = census.pairs[0]
    two = t.field.scalar_i(2)
    squares_to_one = ExplicitModule(t, kind, reg, two)
    squares_to_one.mats["Tomega"] = [[0, 1], [1, 0]]
    zero_lambda = ExplicitModule(t, kind, reg, 0)
    for m in (squares_to_one, zero_lambda):
        assert not module_relations_hold(m)
    with pytest.raises(RelationViolation, match="T_omega"):
        replace(census, lambdas=(0,)).check()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 27])
def test_sl2_census_modules_carry_their_orbit(q):
    """The SL2 census lists the regular orbits and then the sign orbit, each
    as its pair, and the members of these orbits are the modules chi_n."""
    t = TorusCtx(field_create(3, 3), 27) if q == 27 else tctx(q)
    partition = orbit_partition(GroupKind.SL2, q)
    census = enumerate_supersingular(t, GroupKind.SL2)
    sign = [orbit for orbit, _ in partition if q % 2 and orbit == (((q - 1) // 2,),)]
    want = [orbit for orbit, regular in partition if regular] + sign
    assert [tuple(sorted(set(pair))) for pair in census.pairs] == want
    for pair in census.pairs:
        assert orbit_pair(GroupKind.SL2, q, pair[0]) == pair
    assert census.module_count == len(census_modules(census)) == q - 2


def test_census_lambdas_are_checked_per_kind():
    """GL2 takes any nonempty lambda list (default: every unit), PGL2 lambda
    = 1 alone (T_omega^2 = 1 in H_PGL2) and SL2 none; any other list is
    refused.  Each call builds a new census."""
    t = TorusCtx(field_create(5), 5)
    units = [t.value_i(e) for e in range(4)]
    census = enumerate_supersingular(t, GroupKind.GL2)
    assert census.lambdas == tuple(units)
    assert enumerate_supersingular(t, GroupKind.GL2, lambdas=units) is not census
    assert enumerate_supersingular(t, GroupKind.GL2, lambdas=units[:1]).lambdas == (1,)
    for lams in (None, [1]):
        assert enumerate_supersingular(t, GroupKind.PGL2, lambdas=lams).lambdas == (1,)
    assert enumerate_supersingular(t, GroupKind.SL2).lambdas == ()
    zeta = t.value_i(1)
    refused = [(GroupKind.PGL2, lams) for lams in ([zeta], [1, zeta], [])]
    refused += [(GroupKind.SL2, lams) for lams in ([1], [])]
    for kind, lams in refused:
        with pytest.raises(ConfigError, match="takes no lambda list"):
            enumerate_supersingular(t, kind, lambdas=lams)


def test_a_pgl2_module_needs_lambda_one():
    """T_omega^2 = lambda must be 1 in H_PGL2: a PGL2 census built at lambda =
    zeta fails its certificate and the per-orbit one, and each of its modules
    the relations multiplied out."""
    t = TorusCtx(field_create(5), 5)
    pairs = enumerate_supersingular(t, GroupKind.PGL2).pairs
    census = SupersingularCensus(t, GroupKind.PGL2, pairs, (t.value_i(1),))
    with pytest.raises(RelationViolation, match=r"T_omega\^2 = .* != 1"):
        census.check()
    assert not census_checked_per_orbit(census)
    assert not census_modules_pass(census)
    for pair in pairs:
        assert not supersingular_relations_hold(t, GroupKind.PGL2, pair, t.value_i(1))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_census_check_agrees_with_checking_each_module(q):
    """The census certificate (once per kind), the per-orbit certificate it
    replaced and the relations multiplied out on every module built from
    (pair, lambda) all pass, for every kind, for the default lambdas and for
    each GL2 lambda alone, and the census counts the modules it lists."""
    t = tctx(q)
    cases = [(kind, None) for kind in GroupKind]
    cases += [(GroupKind.GL2, [t.value_i(e)]) for e in range(q - 1)]
    for kind, lams in cases:
        census = enumerate_supersingular(t, kind, lambdas=lams)
        assert census.check() and census_checked_per_orbit(census), (kind, lams)
        assert census_modules_pass(census), (kind, lams)
        assert census.module_count == len(census_modules(census))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 27])
def test_census_pairs_are_the_regular_orbits_in_partition_order(q):
    """The closed-form pairs of the GL2 and PGL2 censuses are (rep, rep^{s0})
    of the regular orbits of `orbit_partition`, in its order; the SL2 pairs
    are its regular orbits and then its sign orbit, and their members are
    the characters of infinite projective dimension."""
    t = TorusCtx(field_create(*prime_power(q)), q)
    for kind in GroupKind:
        census = enumerate_supersingular(t, kind)
        regular = tuple(members for members, regular in orbit_partition(kind, q) if regular)
        if kind is GroupKind.SL2:
            chars = supersingular_characters(kind, q)
            infinite = [xi for xi, _, _, finite_pd in chars if not finite_pd]
            assert sorted({xi for pair in census.pairs for xi in pair}) == infinite
            assert census.pairs[: len(regular)] == regular
        else:
            assert census.pairs == regular, kind


def test_census_modules_are_orbit_major():
    """The table's rows list the GL2 modules orbit-major, (pair, lambda)."""
    t = tctx(5)
    census = enumerate_supersingular(t, GroupKind.GL2)
    labels = [row["module"] for row in correspondence_table(census).rows]
    lams = census.lambdas
    want = [f"M[{sorted(map(list, pair))};lam={lam}]" for pair in census.pairs for lam in lams]
    assert labels == want


def corrupt_torus_matrix(monkeypatch, q):
    """Make `torus_matrix` of the first regular GL2 orbit's modules
    (`oracles.ExplicitModule`) off by zeta at the second torus generator,
    in the entry of the twisted character; the omega/torus relation then
    fails on that orbit alone.  Returns the orbit's pair."""
    orbit = orbit_pairs(GroupKind.GL2, q)["regular"][0]
    honest = ExplicitModule.torus_matrix

    def off(module, t):
        mat = honest(module, t)
        tctx = module.tctx
        if module.pair == orbit and t == TorusTable(module.kind, tctx.q).gens[1]:
            mat[1][1] = tctx.field.mul_i(mat[1][1], tctx.value_i(1))
        return mat

    monkeypatch.setattr(ExplicitModule, "torus_matrix", off)
    return orbit


def _twist_off_by_zeta(pairs, q):
    """The first pair's twisted character off by zeta at the second torus
    generator."""
    (xi, (a, b)), *rest = pairs
    return ((xi, (a, (b + 1) % (q - 1))), *rest)


def _foreign_twist(pairs, q):
    """The first pair's second member replaced by the second pair's."""
    (xi, _), (xi2, tw2), *rest = pairs
    return ((xi, tw2), (xi2, tw2), *rest)


def _non_regular_pair(pairs, q):
    """The non-regular pair of (1, 1) slipped in after the first pair."""
    return (pairs[0], ((1, 1), (1, 1)), *pairs[1:])


def _dropped_orbit(pairs, q):
    return pairs[:-1]


def _repeated_orbit(pairs, q):
    return (pairs[0], *pairs)


PAIR_EDITS = {
    # one regular orbit's twisted character off by zeta at a generator
    "character_memo": _twist_off_by_zeta,
    "foreign_twist": _foreign_twist,
    "non_regular_pair": _non_regular_pair,
    "dropped_orbit": _dropped_orbit,
    "repeated_orbit": _repeated_orbit,
}


def identity_s0(monkeypatch):
    """`s0_exps` the identity on GL2 exponent vectors, in every module that
    reads it: the twist of the census certificate, of the models and of the
    Hecke products."""
    import heckelab.hecke as hecke
    import heckelab.models as models
    import heckelab.torus as torus

    real = torus.s0_exps

    def identity(kind, q, exps):
        return tuple(e % (q - 1) for e in exps) if kind is GroupKind.GL2 else real(kind, q, exps)

    for module in (torus, hecke, models):
        monkeypatch.setattr(module, "s0_exps", identity)


def break_census(mutation, monkeypatch):
    """Apply a census mutation that reads no lambda: a `PAIR_EDITS` edit of
    the GL2 pairs (the regular list of `orbit_pairs`, as a lone census and a
    run build it), or `s0_exps` the identity on GL2 exponent vectors
    ("identity_s0", `identity_s0`)."""
    import heckelab.cli as cli
    import heckelab.hecke as hecke

    if mutation in PAIR_EDITS:
        real, edit = hecke.orbit_pairs, PAIR_EDITS[mutation]

        def edited(kind, q):
            classes = real(kind, q)
            if kind is GroupKind.GL2:
                classes["regular"] = edit(classes["regular"], q)
            return classes

        monkeypatch.setattr(hecke, "orbit_pairs", edited)
        monkeypatch.setattr(cli, "orbit_pairs", edited)
    else:
        identity_s0(monkeypatch)


def _mutated_census(mutation, monkeypatch):
    """The GL2 census at q = 5 under `break_census`, or with a lambda = 0 in
    its lambda list."""
    if mutation != "zero_lambda":
        break_census(mutation, monkeypatch)
    t = TorusCtx(field_create(5), 5)  # its own census, which may be corrupted
    lams = [t.value_i(e) for e in range(4)]
    if mutation == "zero_lambda":
        lams[2] = 0
    return enumerate_supersingular(t, GroupKind.GL2, lambdas=lams)


CENSUS_FAILURES = {
    "character_memo": r"\(\(0, 1\), \(1, 1\)\) is not \(\(0, 1\), \(1, 0\)\), the orbit pair of",
    "foreign_twist": r"\(\(0, 1\), \(2, 0\)\) is not \(\(0, 1\), \(1, 0\)\), the orbit pair of",
    "identity_s0": r"\(\(0, 1\), \(1, 0\)\) is not \(\(0, 1\), \(0, 1\)\), the orbit pair of",
    "non_regular_pair": "is a trivial orbit, not regular",
    "dropped_orbit": "the listed orbits .'regular': 5. are not the orbits .'regular': 6. once",
    "repeated_orbit": "the listed orbits .'regular': 7. are not",
    "zero_lambda": "T_omega",
}


@pytest.mark.parametrize("mutation", sorted(CENSUS_FAILURES))
def test_census_check_fails_on_a_mutation(mutation, monkeypatch):
    """Each mutation fails the census certificate, and, but for a dropped or
    a repeated orbit, which only the order and the count see, the per-orbit
    certificate and the relations of each listed module.  The identity
    `s0_exps` breaks the certificate's twist and leaves the census as it
    was: the oracles, which twist by their own table, accept it."""
    census = _mutated_census(mutation, monkeypatch)
    with pytest.raises(RelationViolation, match=CENSUS_FAILURES[mutation]):
        census.check()
    per_orbit_sees_it = mutation not in ("dropped_orbit", "repeated_orbit", "identity_s0")
    assert census_checked_per_orbit(census) is not per_orbit_sees_it
    assert census_modules_pass(census) is not per_orbit_sees_it


def _sl2_trivial_for_chi_3(pairs):
    """At q = 5: the orbit {chi_1, chi_3} replaced by the trivial orbit."""
    return tuple(((0,), (0,)) if (3,) in pair else pair for pair in pairs)


SL2_CENSUS_FAILURES = {
    "trivial_for_chi_3": (_sl2_trivial_for_chi_3, "is a trivial orbit, not sign"),
    "dropped_orbit": (lambda pairs: pairs[1:], r"the listed orbits .'sign': 1. are not the orbits"),
    "repeated_orbit": (
        lambda pairs: (*pairs, pairs[-1]), r"the listed orbits .*'sign': 2. are not"
    ),
    # the regular orbit listed from its larger member chi_3
    "larger_member_first": (
        lambda pairs: (pairs[0][::-1], *pairs[1:]),
        r"\(\(3,\), \(1,\)\) is not \(\(1,\), \(3,\)\), the orbit pair of",
    ),
    # chi_2 paired with the trivial character, as if it were regular
    "sign_paired_with_trivial": (
        lambda pairs: (*pairs[:-1], ((2,), (0,))),
        r"\(\(2,\), \(0,\)\) is not \(\(2,\), \(2,\)\), the orbit pair of",
    ),
}


@pytest.mark.parametrize("mutation", sorted(SL2_CENSUS_FAILURES))
def test_sl2_census_check_fails_on_a_mutation(mutation):
    """The list certificate sees the SL2 census at q = 5, its regular orbit
    {chi_1, chi_3} and its sign orbit {chi_2}: a trivial orbit in place of
    chi_3's, a dropped and a repeated orbit, an orbit listed from its larger
    member and a sign character listed as a regular pair each fail `check`
    with the certificate's message."""
    t = tctx(5)
    census = enumerate_supersingular(t, GroupKind.SL2)
    assert census.pairs == (((1,), (3,)), ((2,), (2,))) and census.check()
    edit, message = SL2_CENSUS_FAILURES[mutation]
    with pytest.raises(RelationViolation, match=message):
        replace(census, pairs=edit(census.pairs)).check()


def test_pgl2_census_check_fails_on_a_dropped_orbit():
    """The PGL2 census at q = 7 lists its two regular orbits; without the
    last, the list certificate's count fails."""
    census = enumerate_supersingular(tctx(7), GroupKind.PGL2)
    assert census.pairs == (((1,), (5,)), ((2,), (4,))) and census.check()
    dropped = replace(census, pairs=census.pairs[:1])
    with pytest.raises(RelationViolation, match=r"the listed orbits .'regular': 1. are not"):
        dropped.check()


def test_sl2_module_action_values():
    t = tctx(5)
    m = ExplicitModule(t, GroupKind.SL2, ((2,), (2,)))  # chi_2, fixed by s0
    assert module_relations_hold(m)
    assert m.mats["Ts0"] == [[0]] and m.mats["Ts1"] == [[0]]
    gen = torus_index(GroupKind.SL2, 5, (1,))
    val = m.torus_matrix(gen)[0][0]
    assert val == t.value_i(2)


def test_module_acts_by_character_on_e0():
    t = tctx(5)
    census = enumerate_supersingular(t, GroupKind.GL2, lambdas=[1])
    m = census_modules(census)[0]
    xi, xi_tw = orbit_pair(GroupKind.GL2, 5, m.pair[0])
    tor = torus_index(GroupKind.GL2, 5, (1, 2))
    mat = m.torus_matrix(tor)
    assert mat[0][0] == char_value_i(t, GroupKind.GL2, xi, tor)
    assert mat[1][1] == char_value_i(t, GroupKind.GL2, xi_tw, tor)
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
