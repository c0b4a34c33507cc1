"""Exact linear algebra over a FieldCtx.

Matrices are lists of rows; entries are integer field indices.  `Span` is the
one Gaussian elimination: it works on sparse vectors, term maps {key: value}
keyed by position, as most vectors it sees are nearly all zero: ring elements
give their own (`coeff_terms`), and `sparse` converts a dense module vector.
`rank` is the dimension of the Span of the rows; `nullspace`, `solve` and
`inverse` read one Span of A's columns, each tagged with its unit vector.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(ctx, A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    mul, add = ctx.mul, ctx.add
    out = zeros(n, m)
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                ma = mul[a]
                for j in range(m):
                    b = Bt[j]
                    if b:
                        Oi[j] = add[Oi[j]][ma[b]]
    return out

def mat_vec(ctx, A, v):
    mul, add = ctx.mul, ctx.add
    out = [0] * len(A)
    for i, Ai in enumerate(A):
        acc = 0
        for j, a in enumerate(Ai):
            if a and v[j]:
                acc = add[acc][mul[a][v[j]]]
        out[i] = acc
    return out


def mat_sub(ctx, A, B):
    add, neg = ctx.add, ctx.neg
    return [[add[a][neg[b]] for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scal(ctx, c, A):
    mc = ctx.mul[c]
    return [[mc[a] for a in row] for row in A]


def is_zero_mat(A):
    return all(a == 0 for row in A for a in row)


def sparse(v):
    """The sparse form {column: value} of a dense vector: its nonzero entries,
    found by C-level scans (`compress` and `filter` keep the same entries)."""
    return dict(zip(compress(range(len(v)), v), filter(None, v)))


def add_scaled(ctx, out, c, v):
    """out += c v for sparse vectors, in place, keeping only nonzero entries;
    c is nonzero."""
    add, mc = ctx.add, ctx.mul[c]
    for j, x in v.items():
        y = add[out.get(j, 0)][mc[x]]
        if y:
            out[j] = y
        else:
            del out[j]


class Span:
    """Incrementally maintained row space of sparse vectors {key: value} in
    echelon form.  The keys of the vectors in one Span are mutually
    comparable, and their order is the column order.  `rows` maps each pivot
    key to its row, which has the value 1 at the pivot and no entry before
    it.  `_reduce` clears the pivots of a vector in increasing order, so a
    row read densely is the row that dense Gaussian elimination in insertion
    order gives.  The rows are a basis of the space but not its canonical
    one; compare spaces by `dim` and `contains`."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.rows = {}  # pivot column -> row; stored rows are never mutated

    def _reduce(self, v):
        """v minus the combination of the rows that makes it zero at every
        pivot, as a new dict.  A row has no entry before its pivot, so
        eliminating at one pivot changes only later columns: a heap of the
        pivot columns where v is nonzero gives the pivots in increasing order."""
        rows = self.rows
        v = dict(v)
        todo = [j for j in v if j in rows]
        if not todo:
            return v
        heapify(todo)
        add, mul, neg = self.ctx.add, self.ctx.mul, self.ctx.neg
        while todo:
            pc = heappop(todo)
            c = v.pop(pc, 0)
            if not c:
                continue  # a stale heap entry: cleared by an earlier pivot
            mf = mul[neg[c]]
            for j, x in rows[pc].items():
                if j == pc:
                    continue
                y = add[v.get(j, 0)][mf[x]]
                if not y:
                    del v[j]
                    continue
                if j not in v and j in rows:
                    heappush(todo, j)
                v[j] = y
        return v

    def add(self, v):
        """Insert the sparse vector v; returns True if the rank grew."""
        v = self._reduce(v)
        if not v:
            return False
        pc = min(v)
        inv = self.ctx.inv[v[pc]]
        if inv != 1:
            mi = self.ctx.mul[inv]
            v = {j: mi[c] for j, c in v.items()}
        self.rows[pc] = v
        return True

    def contains(self, v):
        return not self._reduce(v)

    @property
    def dim(self):
        return len(self.rows)

    def copy(self):
        out = Span(self.ctx)
        out.rows = dict(self.rows)
        return out


def rank(ctx, rows):
    span = Span(ctx)
    for row in rows:
        span.add(sparse(row))
    return span.dim


def _tagged_columns(ctx, A):
    """The Span of the columns of A, column j tagged with its unit vector:
    {(0, i): A[i][j]} | {(1, j): 1}.  Every (0, .) key sorts before every
    (1, .) key, so a row whose pivot is a tag is zero on A's part: its tags
    are a kernel vector, and these rows are a basis of ker A.  The other rows
    are an echelon basis of the column space, tagged with the combination of
    columns that gives each."""
    span = Span(ctx)
    for j in range(len(A[0])):
        col = {(0, i): row[j] for i, row in enumerate(A) if row[j]}
        col[(1, j)] = 1
        span.add(col)
    return span


def _untag(v, n):
    x = [0] * n
    for (part, j), c in v.items():
        if part:
            x[j] = c
    return x


def nullspace(ctx, A):
    """Basis of {x : A x = 0}, vectors as lists."""
    if not A:
        return []
    rows = _tagged_columns(ctx, A).rows
    return [_untag(rows[pc], len(A[0])) for pc in sorted(rows) if pc[0]]


def _solve_on(span, b, n):
    """x with A x = b, for the tagged columns of A and b as a term map
    {(0, i): b_i}, or None: b minus the combination x of the columns that
    clears b's pivots has A-part b - A x and tags -x."""
    r = span._reduce(b)
    if any(part == 0 for part, _ in r):
        return None
    neg = span.ctx.neg
    return [neg[c] for c in _untag(r, n)]


def solve(ctx, A, b):
    """One solution x of A x = b, or None."""
    if not A:
        return [] if all(c == 0 for c in b) else None
    return _solve_on(_tagged_columns(ctx, A), {(0, i): c for i, c in enumerate(b) if c}, len(A[0]))


def inverse(ctx, A):
    """A^-1, or None when A is not square or singular: column j of A^-1 solves
    A x = e_j, and every such system has a solution iff no pivot of the
    tagged columns is a tag."""
    n = len(A)
    if n == 0:
        return []
    if len(A[0]) != n:
        return None
    span = _tagged_columns(ctx, A)
    if any(pc[0] for pc in span.rows):
        return None
    cols = [_solve_on(span, {(0, j): 1}, n) for j in range(n)]
    return [list(row) for row in zip(*cols)]
