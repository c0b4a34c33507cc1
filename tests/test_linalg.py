from __future__ import annotations

import random

import pytest

from heckelab.gf import field_create
from heckelab.linalg import Span, sparse

from .oracles import SpanEnumerateScan, dense_rows


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
