"""Dense exact linear algebra over a FieldCtx.

Matrices are lists of rows; entries are integer field indices.  Everything is
plain Gaussian elimination; fields are tiny so table lookups dominate.
"""

from __future__ import annotations


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


def mat_add(ctx, A, B):
    add = ctx.add
    return [[add[a][b] for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


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


class Span:
    """Incrementally maintained row space in reduced echelon form."""

    def __init__(self, ctx, ncols):
        self.ctx = ctx
        self.ncols = ncols
        self.rows = []  # rows with pivot normalised to 1, sorted by pivot col
        self.pivots = []

    def _reduce(self, v):
        ctx = self.ctx
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                f = ctx.neg[c]
                mf = ctx.mul[f]
                add = ctx.add
                for j in range(pc, self.ncols):
                    if row[j]:
                        v[j] = add[v[j]][mf[row[j]]]
        return v

    def add(self, v):
        """Insert v; returns True if the rank grew."""
        ctx = self.ctx
        v = self._reduce(v)
        pc = next((j for j, c in enumerate(v) if c), None)
        if pc is None:
            return False
        inv = ctx.inv[v[pc]]
        if inv != 1:
            mi = ctx.mul[inv]
            v = [mi[c] for c in v]
        # back-substitute into existing rows
        for i, row in enumerate(self.rows):
            c = row[pc]
            if c:
                f = ctx.neg[c]
                mf = ctx.mul[f]
                add = ctx.add
                self.rows[i] = [add[row[j]][mf[v[j]]] if v[j] else row[j] for j in range(self.ncols)]
        at = next((k for k, q in enumerate(self.pivots) if q > pc), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True

    def contains(self, v):
        return all(c == 0 for c in self._reduce(v))

    @property
    def dim(self):
        return len(self.rows)

    def copy(self):
        out = Span(self.ctx, self.ncols)
        out.rows = [list(r) for r in self.rows]
        out.pivots = list(self.pivots)
        return out


def inverse(ctx, A):
    n = len(A)
    aug = [list(A[i]) + identity(n)[i] for i in range(n)]
    R, pivots = rref(ctx, aug)
    if pivots[: n] != list(range(n)):
        return None
    return [row[n:] for row in R[:n]]
