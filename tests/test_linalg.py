from __future__ import annotations

import random

import pytest

from heckelab.gf import field_create
from heckelab.linalg import Span

from .oracles import SpanEnumerateScan


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 6)])
def test_span_add_matches_the_enumerate_scan(p, m):
    """Dense and sparse vectors (most entries zero, some all zero, some
    repeated) give the same verdicts, rows and pivots as the old scan."""
    ctx = field_create(p, m)
    rng = random.Random(p * 100 + m)
    for density in (1.0, 0.1):
        for ncols in (1, 7, 40):
            span, oracle = Span(ctx, ncols), SpanEnumerateScan(ctx, ncols)
            vectors = []
            for _ in range(2 * ncols + 5):
                if vectors and rng.random() < 0.2:
                    v = rng.choice(vectors)
                else:
                    v = [rng.randrange(1, ctx.q) if rng.random() < density else 0 for _ in range(ncols)]
                vectors.append(v)
                assert span.add(v) == oracle.add(v)
            assert span.rows == oracle.rows and span.pivots == oracle.pivots
            if density == 1.0:
                assert span.dim == ncols
