from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.errors import CtxMismatch
from heckelab.gf import field_create
from heckelab.rings import Mat2, NodalLaurentPoly

from .oracles import (
    NODAL_ZW,
    dense_add,
    dense_from_terms,
    dense_mat_mul,
    dense_mul,
    dense_scal,
)

CTX = field_create(5)


def NP(c0=0, t1=(), t2=(), zexp=0):
    """c0 + sum t1[k-1] X1^k + sum t2[k-1] X2^k, times Z^zexp."""
    terms = {(zexp, 0): c0}
    terms.update({(zexp, k): c for k, c in enumerate(t1, 1)})
    terms.update({(zexp, -k): c for k, c in enumerate(t2, 1)})
    return NodalLaurentPoly(CTX, terms)


def test_x1_times_x2_is_zero():
    x1 = NodalLaurentPoly.mono(CTX, 1, 1)
    x2 = NodalLaurentPoly.mono(CTX, 2, 1)
    assert x1.mul(x2).is_zero()


def test_difference_of_squares():
    x1 = NodalLaurentPoly.mono(CTX, 1, 1)
    x2 = NodalLaurentPoly.mono(CTX, 2, 1)
    lhs = x1.add(x2).mul(x1.sub(x2))
    want = x1.mul(x1).sub(x2.mul(x2))  # X1^2 - X2^2
    assert lhs == want


def test_laurent_cross_term_kill():
    # (1 + X1) * (Z^{-1} X2) = Z^{-1} X2
    one_plus_x1 = NP(1, (1,))
    zinv_x2 = NodalLaurentPoly.mono(CTX, 2, 1, zexp=-1)
    assert one_plus_x1.mul(zinv_x2) == zinv_x2


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_nodal_ring_axioms(data):
    def rand():
        c0 = data.draw(st.integers(0, 4))
        t1 = data.draw(st.lists(st.integers(0, 4), max_size=3))
        t2 = data.draw(st.lists(st.integers(0, 4), max_size=3))
        return NP(c0, t1, t2)

    a, b, c = rand(), rand(), rand()
    assert a.mul(b) == b.mul(a)
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_evaluate_respects_node():
    pol = NP(2, (1, 3), (4,))  # 2 + X1 + 3X1^2 + 4X2
    # at X1=2, X2=0: 2 + 2 + 3*4 = 16 = 1 mod 5
    assert pol.evaluate(2, 0, 1) == (2 + 2 + 12) % 5
    # at X1=0, X2=3: 2 + 12 = 14 = 4 mod 5
    assert pol.evaluate(0, 3, 1) == (2 + 12) % 5


def test_mat2_identity_and_inverse_like():
    z = NodalLaurentPoly(CTX)
    one = NodalLaurentPoly.scalar(CTX, 1)
    zpow = NodalLaurentPoly.z_power(CTX, 1)
    zinv = NodalLaurentPoly.z_power(CTX, -1)
    tw = Mat2(CTX, [[z, zpow], [one, z]])
    twi = Mat2(CTX, [[z, one], [zinv, z]])
    assert tw.mul(twi) == Mat2.identity(CTX)
    assert tw.mul(tw).is_scalar()


def test_mat2_coeff_terms_keys():
    """Key (i, j, z, k): entry (i, j), Z-power z, signed X-degree k (k > 0 is
    X1^k, k < 0 is X2^-k); zero coefficients have no key."""
    a = NP(2, (1,), (0, 3), zexp=1)
    b = NodalLaurentPoly.z_power(CTX, -2, 4)
    zero = NodalLaurentPoly(CTX)
    m = Mat2(CTX, [[zero, a], [b, zero]])
    assert m.coeff_terms() == {(0, 1, 1, 0): 2, (0, 1, 1, 1): 1, (0, 1, 1, -2): 3, (1, 0, -2, 0): 4}
    assert Mat2.zero(CTX).coeff_terms() == {}


PRIME_FIELDS = {p: field_create(p) for p in (5, 7)}


def _term_maps(p):
    """Term maps with |z| <= 2 and X-degree <= 3, zero coefficients included
    (the constructor drops them), so products stay inside the dense window."""
    keys = st.tuples(st.integers(-2, 2), st.integers(-3, 3))
    return st.dictionaries(keys, st.integers(0, p - 1), max_size=5)


def _canonical(pol, p):
    """No stored zero, every coefficient a residue, every key in the window."""
    return all(0 < c < p and abs(z) <= NODAL_ZW for (z, _), c in pol.terms.items())


def _dense_mat(m):
    return [[dense_from_terms(m.a[i][j].terms) for j in range(2)] for i in range(2)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nodal_ops_match_dense_oracle(data):
    p = data.draw(st.sampled_from(sorted(PRIME_FIELDS)))
    ctx = PRIME_FIELDS[p]
    f, g = (NodalLaurentPoly(ctx, data.draw(_term_maps(p))) for _ in range(2))
    c = data.draw(st.integers(0, p - 1))
    df, dg = dense_from_terms(f.terms), dense_from_terms(g.terms)
    for got, want in (
        (f.add(g), dense_add(p, df, dg)),
        (f.sub(g), dense_add(p, df, dg, sign=-1)),
        (f.mul(g), dense_mul(p, df, dg)),
        (f.scal(c), dense_scal(p, df, c)),
        (f.neg(), dense_scal(p, df, p - 1)),
    ):
        assert _canonical(got, p)
        assert dense_from_terms(got.terms) == want
    assert f.sub(f).is_zero() and f.sub(f).terms == {}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mat2_ops_match_dense_oracle(data):
    p = data.draw(st.sampled_from(sorted(PRIME_FIELDS)))
    ctx = PRIME_FIELDS[p]

    def mat():
        return Mat2(
            ctx,
            [[NodalLaurentPoly(ctx, data.draw(_term_maps(p))) for _ in range(2)] for _ in range(2)],
        )

    A, B, C = mat(), mat(), mat()
    c0, c1, d0, d1 = (data.draw(st.integers(0, p - 1)) for _ in range(4))
    dA, dB, dC = _dense_mat(A), _dense_mat(B), _dense_mat(C)

    def cols(dM, a, b):
        return [[dense_scal(p, dM[i][0], a), dense_scal(p, dM[i][1], b)] for i in range(2)]

    def madd(dM, dN, sign=1):
        return [[dense_add(p, dM[i][j], dN[i][j], sign) for j in range(2)] for i in range(2)]

    for got, want in (
        (A.mul(B), dense_mat_mul(p, dA, dB)),
        (A.add(B), madd(dA, dB)),
        (A.sub(B), madd(dA, dB, sign=-1)),
        (A.scal_cols(c0, c1), cols(dA, c0, c1)),
        (
            Mat2.sum_scal_cols(ctx, [(A, c0, c1), (B, d0, d1), (C, c1, d0)]),
            madd(madd(cols(dA, c0, c1), cols(dB, d0, d1)), cols(dC, c1, d0)),
        ),
    ):
        assert all(_canonical(got.a[i][j], p) for i in range(2) for j in range(2))
        assert _dense_mat(got) == want
    assert A.sub(A).is_zero() and A.sub(A) == Mat2.zero(ctx)


def test_mixed_fields_raise():
    other = field_create(7)
    f = NodalLaurentPoly.mono(CTX, 1, 1)
    g = NodalLaurentPoly.mono(other, 1, 1)
    for op in (f.add, f.sub, f.mul):
        with pytest.raises(CtxMismatch):
            op(g)
    for op in (Mat2.identity(CTX).add, Mat2.identity(CTX).sub, Mat2.identity(CTX).mul):
        with pytest.raises(CtxMismatch):
            op(Mat2.identity(other))
