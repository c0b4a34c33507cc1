from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.gf import field_create
from heckelab.linalg import Span, identity, inverse, mat_mul, mat_vec, nullspace, rank, solve, sparse

from .oracles import SpanEnumerateScan, dense_rows, rref

FIELDS = {"F_3": field_create(3), "F_5": field_create(5), "F_729": field_create(3, 6)}


def _assert_same_spans(span, oracle):
    assert dense_rows(span, oracle.ncols) == oracle.rows and sorted(span.rows) == oracle.pivots


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 6)])
def test_span_add_matches_the_enumerate_scan(p, m):
    """The sparse `Span` fed dicts and the dense oracle fed the same vectors
    as lists (dense and sparse ones, some all zero, some repeated) give the
    same verdicts, and the same rows and pivots once the rows are read
    densely."""
    ctx = field_create(p, m)
    rng = random.Random(p * 100 + m)
    for density in (1.0, 0.1):
        for ncols in (1, 7, 40):
            span, oracle = Span(ctx), SpanEnumerateScan(ctx, ncols)
            vectors = []
            for _ in range(2 * ncols + 5):
                if vectors and rng.random() < 0.2:
                    v = rng.choice(vectors)
                else:
                    v = [rng.randrange(1, ctx.q) if rng.random() < density else 0 for _ in range(ncols)]
                vectors.append(v)
                assert span.add(sparse(v)) == oracle.add(v)
                assert span.contains(sparse(v)) and oracle.contains(v)
            _assert_same_spans(span, oracle)
            if density == 1.0:
                assert span.dim == ncols


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 6)])
def test_span_elimination_with_fill_in_matches_the_enumerate_scan(p, m):
    """Rows with entries beyond their pivot: eliminating one pivot of a new
    vector creates a nonzero at a later pivot (fill-in), which must then be
    cleared too, in increasing pivot order."""
    ctx = field_create(p, m)
    rng = random.Random(7 * p + m)
    ncols = 13
    for _ in range(20):
        span, oracle = Span(ctx), SpanEnumerateScan(ctx, ncols)
        # rows with pivot k and entries at k + 1 and k + 2, the next pivot:
        # clearing pivot k of a vector fills in pivot k + 2
        for k in range(0, ncols - 2, 2):
            v = [0] * ncols
            v[k], v[k + 1], v[k + 2] = (rng.randrange(1, ctx.q) for _ in range(3))
            assert span.add(sparse(v)) and oracle.add(v)
        before = {pc: dict(row) for pc, row in span.rows.items()}
        for _ in range(ncols):
            v = [rng.randrange(ctx.q) if rng.random() < 0.3 else 0 for _ in range(ncols)]
            w = sparse(v)
            assert span.contains(w) == oracle.contains(v)
            assert span.add(w) == oracle.add(v)
            assert w == sparse(v)  # reduction works on a copy
        _assert_same_spans(span, oracle)
        # a stored row is never edited
        assert all(span.rows[pc] == row for pc, row in before.items())


def test_span_fill_in_reaches_a_later_pivot():
    """Over F_3: rows (1, 1, 0) and (0, 0, 1) at pivots 0 and 2, and a third
    row (0, 1, 1) at pivot 1.  Reducing (1, 0, 0) clears pivot 0 and leaves
    (0, 2, 0): fill-in at pivot 1, whose row then puts a 1 at pivot 2."""
    ctx = field_create(3)
    span, oracle = Span(ctx), SpanEnumerateScan(ctx, 3)
    for v in ([1, 1, 0], [0, 0, 1], [0, 1, 1]):
        assert span.add(sparse(v)) and oracle.add(v)
    assert span._reduce({0: 1}) == {}
    assert span.contains({0: 1}) and not span.add({0: 1})
    _assert_same_spans(span, oracle)
    assert sorted(span.rows) == [0, 1, 2]


def test_span_copy_is_independent():
    ctx = field_create(5)
    span = Span(ctx)
    span.add({0: 2, 3: 1})
    twin = span.copy()
    assert twin.add({1: 1}) and twin.dim == 2 and span.dim == 1
    assert span.rows == {0: {0: 1, 3: 3}}


# -- rank, nullspace, solve and inverse against the dense rref ---------------------


def _oracle_rank(ctx, rows):
    return len(rref(ctx, rows)[1])


def _check_against_rref(ctx, A, b):
    """rank, nullspace, solve and inverse of A (m >= 1 rows, n columns), and
    A x = b, checked against the dense reference elimination."""
    m, n = len(A), len(A[0])
    r = _oracle_rank(ctx, A)
    assert rank(ctx, A) == r
    kernel = nullspace(ctx, A)
    assert all(mat_vec(ctx, A, x) == [0] * m for x in kernel)
    assert len(kernel) == n - r
    assert _oracle_rank(ctx, kernel) == len(kernel)  # independent
    x = solve(ctx, A, b)
    solvable = _oracle_rank(ctx, [row + [c] for row, c in zip(A, b)]) == r
    assert (x is not None) == solvable
    if x is not None:
        assert len(x) == n and mat_vec(ctx, A, x) == b
    A_inv = inverse(ctx, A)
    if m != n:
        assert A_inv is None
        return
    assert (A_inv is None) == (r < n)
    if A_inv is not None:
        assert mat_mul(ctx, A, A_inv) == identity(n) == mat_mul(ctx, A_inv, A)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_linalg_matches_the_dense_rref(data):
    """Random matrices of every shape up to 5 x 5, with a right-hand side that is A times a random vector half of the time."""
    ctx = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(1, ctx.q - 1))
    A = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    if data.draw(st.booleans()):
        b = mat_vec(ctx, A, [data.draw(entry) for _ in range(n)])
    else:
        b = [data.draw(entry) for _ in range(m)]
    _check_against_rref(ctx, A, b)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize(
    "A, b",
    [
        ([[0, 0, 0], [0, 0, 0]], [0, 0]),  # the zero matrix
        ([[0, 0, 0], [0, 0, 0]], [0, 1]),
        ([[], [], []], [0, 0, 0]),  # no columns
        ([[], []], [1, 0]),
        ([[0, 1, 2], [0, 0, 0], [0, 2, 1]], [1, 0, 2]),  # a zero row and a zero column
        ([[1, 2], [2, 1], [1, 1]], [1, 1, 2]),  # more rows than columns
        ([[1, 0, 2, 1], [0, 1, 1, 2]], [2, 1]),  # more columns than rows
        ([[1, 2], [2, 4]], [1, 2]),  # singular, b in the image
        ([[1, 2], [2, 4]], [1, 0]),  # singular, b outside the image
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 2, 1]),  # invertible away from char 2
        ([[0, 1], [1, 0]], [2, 1]),  # invertible only with a row swap
    ],
)
def test_linalg_fixed_cases_match_the_dense_rref(field, A, b):
    """Integer matrices, read in each field through its prime subfield."""
    ctx = FIELDS[field]
    _check_against_rref(ctx, [[ctx.scalar_i(a) for a in row] for row in A], [ctx.scalar_i(c) for c in b])


def test_linalg_of_the_empty_matrix():
    ctx = FIELDS["F_5"]
    assert rank(ctx, []) == 0
    assert nullspace(ctx, []) == []
    assert solve(ctx, [], []) == []
    assert inverse(ctx, []) == []


def test_inverse_of_a_random_matrix_over_f729():
    """A dense random 6 x 6 matrix over F_729 is invertible with probability
    about 1 - 1/729; its inverse is two-sided."""
    ctx = FIELDS["F_729"]
    rng = random.Random(729)
    for _ in range(5):
        A = [[rng.randrange(ctx.q) for _ in range(6)] for _ in range(6)]
        _check_against_rref(ctx, A, [rng.randrange(ctx.q) for _ in range(6)])
