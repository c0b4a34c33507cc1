from __future__ import annotations

import random
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import gf
from heckelab.errors import (
    CompositeCharacteristic,
    ConfigError,
    NotPrimitive,
    ReducibleModulus,
    ZeroInverse,
)
from heckelab.gf import (
    FieldCtx,
    _poly_mod,
    _poly_mul,
    _search_modulus,
    field_create,
    is_irreducible,
    is_prime,
    prime_power,
)

from .oracles import is_irreducible_frobenius, search_modulus_frobenius


def test_prime_field_modulus_is_x():
    ctx = field_create(3)
    assert ctx.q == 3
    assert ctx.modulus == (0, 1)


def test_f9_default_modulus_is_x2_plus_1():
    # X^2 + 1 has no root mod 3: exhaustive check is the oracle
    for a in range(3):
        assert (a * a + 1) % 3 != 0
    ctx = field_create(3, 2)
    assert ctx.modulus == (1, 0, 1)
    assert ctx.q == 9


def test_composite_characteristic_rejected():
    with pytest.raises(CompositeCharacteristic):
        field_create(4)


def test_reducible_modulus_rejected():
    # X^2 + 2 = X^2 - 1 = (X-1)(X+1) over F_3
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, [2, 0, 1])


@pytest.mark.parametrize(
    "p,m,expected_gen",
    [(3, 1, (2,)), (5, 1, (2,)), (2, 1, (1,))],
)
def test_generator_examples(p, m, expected_gen):
    ctx = field_create(p, m)
    g = ctx.generator_idx()
    assert ctx.coords_of(g) == expected_gen
    # brute-force order check over all exponents
    seen = set()
    x = 1
    for _ in range(ctx.q - 1):
        x = ctx.mul_i(x, g)
        seen.add(x)
    assert len(seen) == ctx.q - 1


def test_generator_order_no_proper_divisor():
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        ctx = field_create(p, m)
        g = ctx.generator_idx()
        n = ctx.q - 1
        for d in range(1, n):
            if n % d == 0:
                assert ctx.pow_i(g, d) != 1 or d == n
        assert ctx.pow_i(g, n) == 1


def test_inverse_example_f3():
    ctx = field_create(3)
    two = ctx.scalar_i(2)
    assert ctx.inv_i(two) == two  # 2*2 = 4 = 1 mod 3


def test_inv_zero_raises():
    ctx = field_create(5)
    with pytest.raises(ZeroInverse):
        ctx.inv_i(0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_f9_field_axioms(i, j):
    ctx = field_create(3, 2)
    add, mul = ctx.add_i, ctx.mul_i
    assert add(i, j) == add(j, i)
    assert mul(i, j) == mul(j, i)
    assert mul(add(i, j), i) == add(mul(i, i), mul(j, i))
    if i:
        assert mul(i, ctx.inv_i(i)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_frobenius_additive(i, j):
    ctx = field_create(3, 2)
    p = ctx.p
    assert ctx.pow_i(ctx.add_i(i, j), p) == ctx.add_i(ctx.pow_i(i, p), ctx.pow_i(j, p))


def test_lagrange_pow():
    for p, m in [(5, 1), (3, 2)]:
        ctx = field_create(p, m)
        assert ctx.pow_i(ctx.generator_idx(), ctx.q - 1) == 1


def test_subfield_indices():
    ctx = field_create(3, 2)
    sub = ctx.subfield_indices(3)
    assert len(sub) == 3
    assert set(sub) == {0, 1, 2}


def test_q_minus_one_not_divisible_by_p():
    for p, m in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        ctx = field_create(p, m)
        assert (ctx.q - 1) % p != 0


# -- oracles: polynomial arithmetic mod the modulus, digitwise addition --------


def _oracle_mul(ctx, a, b):
    prod = _poly_mul(list(ctx.coords_of(a)), list(ctx.coords_of(b)), ctx.p)
    return ctx.index_of(_poly_mod(prod, list(ctx.modulus), ctx.p))


def _oracle_add(ctx, a, b):
    return ctx.index_of([x + y for x, y in zip(ctx.coords_of(a), ctx.coords_of(b))])


def _oracle_order(ctx, a):
    x, n = a, 1
    while x != 1:
        x = _oracle_mul(ctx, x, a)
        n += 1
    return n


def _check_pair(ctx, a, b):
    assert ctx.add[a][b] == _oracle_add(ctx, a, b), (a, b)
    assert ctx.mul[a][b] == _oracle_mul(ctx, a, b), (a, b)


def _check_unary(ctx, a):
    assert _oracle_add(ctx, a, ctx.neg[a]) == 0, a
    if a:
        assert _oracle_mul(ctx, a, ctx.inv[a]) == 1, a


@pytest.mark.parametrize(
    "p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (2, 6), (7, 2)]
)
def test_tables_match_polynomial_oracle_exhaustively(p, m):
    ctx = FieldCtx(p, m)
    for a in range(ctx.q):
        _check_unary(ctx, a)
        for b in range(ctx.q):
            _check_pair(ctx, a, b)


@pytest.mark.parametrize("p,m", [(3, 5), (3, 6)])
def test_tables_match_polynomial_oracle_sampled(p, m):
    ctx = FieldCtx(p, m)
    rng = random.Random(20261017)
    for _ in range(2000):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        _check_unary(ctx, a)
        _check_pair(ctx, a, b)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (2, 6)])
def test_generator_is_lex_first_element_of_full_order(p, m):
    ctx = FieldCtx(p, m)
    for coords in product(range(p), repeat=m):
        a = ctx.index_of(coords)
        if a and _oracle_order(ctx, a) == ctx.q - 1:
            break
    assert ctx.generator_idx() == a
    assert ctx.exp[1] == a


def test_exp_walk_raises_off_the_generators():
    ctx = FieldCtx(3, 2)
    for a in range(1, ctx.q):
        g = list(ctx.coords_of(a))
        if _oracle_order(ctx, a) == ctx.q - 1:
            walk = ctx._exp_walk(g)
            assert sorted(walk) == list(range(1, ctx.q))
        else:
            with pytest.raises(NotPrimitive):
                ctx._exp_walk(g)


def test_exp_walk_raises_under_a_reducible_modulus():
    ctx = FieldCtx(3, 2)
    ctx.modulus = (2, 0, 1)  # X^2 - 1 = (X - 1)(X + 1): zero divisors, no generator
    for a in range(1, ctx.q):
        with pytest.raises(NotPrimitive):
            ctx._exp_walk(list(ctx.coords_of(a)))


def test_oversized_field_is_a_config_error_before_the_modulus_search(monkeypatch):
    def no_search(p, m):
        raise AssertionError("modulus searched for an oversized field")

    monkeypatch.setattr(gf, "_search_modulus", no_search)
    with pytest.raises(ConfigError, match="table limit"):
        FieldCtx(3, 8)
    with pytest.raises(ConfigError, match="table limit"):
        FieldCtx(2, 13)


@pytest.mark.parametrize(
    "q,want", [(2, (2, 1)), (9, (3, 2)), (27, (3, 3)), (25, (5, 2)), (7, (7, 1))]
)
def test_prime_power(q, want):
    assert prime_power(q) == want


@pytest.mark.parametrize("q", [-3, 0, 1, 6, 12, 100])
def test_prime_power_rejects(q):
    with pytest.raises(ConfigError, match="not a prime power"):
        prime_power(q)


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_ben_or_matches_the_frobenius_criterion(p, max_degree):
    for m in range(1, max_degree + 1):
        verdicts = [
            is_irreducible(list(tail) + [1], p) for tail in product(range(p), repeat=m)
        ]
        want = [
            is_irreducible_frobenius(list(tail) + [1], p)
            for tail in product(range(p), repeat=m)
        ]
        assert verdicts == want, (p, m)
        assert any(verdicts)  # an irreducible of every degree exists


def test_modulus_search_matches_the_frobenius_search():
    pairs = [
        (p, m)
        for p in range(2, gf._TABLE_LIMIT + 1)
        if is_prime(p)
        for m in range(1, 13)
        if p**m <= gf._TABLE_LIMIT
    ]
    assert (2, 12) in pairs and (3, 7) in pairs and (4093, 1) in pairs
    for p, m in pairs:
        assert _search_modulus(p, m) == search_modulus_frobenius(p, m), (p, m)


@pytest.mark.parametrize("p,m", [(3, 6), (2, 6)])
def test_tables_share_q_element_objects(p, m):
    ctx = FieldCtx(p, m)
    entries = chain(ctx.exp, ctx.inv, ctx.neg, chain.from_iterable(ctx.add), chain.from_iterable(ctx.mul))
    assert len({id(x) for x in entries}) == ctx.q


def test_f729_build_tests_five_moduli_and_walks_up_to_the_generator(monkeypatch):
    """Deterministic work guard: the modulus search skips the multiples of x,
    and each candidate before the generator is walked once."""
    counts = {"is_irreducible": 0, "_exp_walk": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(gf, "is_irreducible", counted("is_irreducible", gf.is_irreducible))
    monkeypatch.setattr(FieldCtx, "_exp_walk", counted("_exp_walk", FieldCtx._exp_walk))
    ctx = FieldCtx(3, 6)
    assert counts["is_irreducible"] <= 5
    candidates = [c for c in product(range(3), repeat=6) if any(c)]
    assert counts["_exp_walk"] == candidates.index(ctx.coords_of(ctx.generator_idx())) + 1
