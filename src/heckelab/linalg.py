"""Exact linear algebra over a FieldCtx.

Matrices are lists of rows; entries are integer field indices.  Everything is
plain Gaussian elimination; fields are tiny so table lookups dominate.  `Span`
works on sparse vectors, term maps {key: value} keyed by position, as most
vectors it sees are nearly all zero: ring elements give their own
(`coeff_terms`), and `sparse` converts a dense module vector.
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


def rref(ctx, rows):
    """Row-reduce a copy of `rows`; returns (reduced rows, pivot column list)."""
    R = [list(r) for r in rows]
    if not R:
        return [], []
    ncols = len(R[0])
    mul, add, neg, inv = ctx.mul, ctx.add, ctx.neg, ctx.inv
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(R)):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        pv = inv[R[r][c]]
        if pv != 1:
            R[r] = [mul[pv][a] for a in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = neg[R[i][c]]
                Ri, Rr = R[i], R[r]
                mf = mul[f]
                for j in range(c, ncols):
                    if Rr[j]:
                        Ri[j] = add[Ri[j]][mf[Rr[j]]]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R[:r] + [[0] * ncols for _ in range(len(R) - r)], pivots


def rank(ctx, rows):
    return len(rref(ctx, rows)[1])


def nullspace(ctx, A):
    """Basis of {x : A x = 0}, vectors as lists."""
    if not A:
        return []
    n = len(A[0])
    R, pivots = rref(ctx, A)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    basis = []
    for fj in free:
        v = [0] * n
        v[fj] = 1
        for r_i, pc in enumerate(pivots):
            # x_pc = -R[r_i][fj]
            v[pc] = ctx.neg[R[r_i][fj]]
        basis.append(v)
    return basis


def solve(ctx, A, b):
    """One solution x of A x = b, or None."""
    if not A:
        return [] if all(c == 0 for c in b) else None
    n = len(A[0])
    aug = [list(A[i]) + [b[i]] for i in range(len(A))]
    R, pivots = rref(ctx, aug)
    for row in R:
        if row[-1] != 0 and all(a == 0 for a in row[:-1]):
            return None
    x = [0] * n
    for r_i, pc in enumerate(pivots):
        if pc == n:
            return None
        x[pc] = R[r_i][-1]
    return x


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
    one; compare spaces by `dim` and `contains`, or by the `rref` of the
    rows."""

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


def inverse(ctx, A):
    n = len(A)
    aug = [list(A[i]) + identity(n)[i] for i in range(n)]
    R, pivots = rref(ctx, aug)
    if pivots[: n] != list(range(n)):
        return None
    return [row[n:] for row in R[:n]]
