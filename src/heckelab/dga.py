"""The windowed endomorphism DGA of the 2-periodic complete resolution.

Degree-n elements are 2x2 blocks of interval-indexed sequences over the
Laurent ring in the central unit; entries additionally carry the square-zero
marker tau exactly when the block's source/target idempotent types differ
(diagonal blocks in odd degree, off-diagonal blocks in even degree).

Windowing convention: applying the differential consumes one index from the
top of the interval, so outputs live on [lo, hi-1].  With this convention the
kernel and image computations reproduce the bi-infinite answers with no
boundary artifacts: the kernel of an even differential is the constants and
the even differential is surjective by back-substitution.  Any finite-window
model necessarily differs from the full direct product on non-finitely
supported phenomena; ranks are certified window-by-window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import WindowMismatch, WindowTooSmall
from .linalg import Span, nullspace, rank
from .rings import LaurentPoly


@dataclass
class WindowSeq:
    """Sequence of Laurent polynomials on [lo, hi], optionally tau-flagged."""

    ctx: object
    lo: int
    hi: int
    tau: bool
    entries: dict = field(default_factory=dict)  # index -> LaurentPoly

    def get(self, l):
        return self.entries.get(l, LaurentPoly(self.ctx))

    def set(self, l, pol):
        if not (self.lo <= l <= self.hi):
            raise WindowMismatch(f"index {l} outside window [{self.lo}, {self.hi}]")
        if pol.is_zero():
            self.entries.pop(l, None)
        else:
            self.entries[l] = pol

    def is_zero(self):
        return all(p.is_zero() for p in self.entries.values())

    def restrict(self, lo, hi):
        out = WindowSeq(self.ctx, lo, hi, self.tau)
        for l in range(lo, hi + 1):
            pol = self.get(l)
            if not pol.is_zero():
                out.entries[l] = pol
        return out


def constant_seq(ctx, lo, hi, tau=False, value=1, zexp=0):
    out = WindowSeq(ctx, lo, hi, tau)
    for l in range(lo, hi + 1):
        out.entries[l] = LaurentPoly(ctx, {zexp: value})
    return out


def delta_seq(ctx, lo, hi, at, tau=False, value=1):
    out = WindowSeq(ctx, lo, hi, tau)
    out.set(at, LaurentPoly.scalar(ctx, value))
    return out


@dataclass
class WindowHomElt:
    """Degree-n element: blocks[i][j] maps the j-th periodic summand to the
    i-th; parities of the tau flags are forced by the degree."""

    ctx: object
    degree: int
    blocks: list  # 2x2 of WindowSeq

    def __post_init__(self):
        n = self.degree
        for i in range(2):
            for j in range(2):
                want_tau = (n % 2 == 1) if i == j else (n % 2 == 0)
                if self.blocks[i][j].tau != want_tau:
                    raise WindowMismatch(
                        f"block ({i},{j}) tau flag inconsistent with degree {n}"
                    )

    @property
    def lo(self):
        return self.blocks[0][0].lo

    @property
    def hi(self):
        return self.blocks[0][0].hi

    def is_zero(self):
        return all(self.blocks[i][j].is_zero() for i in range(2) for j in range(2))

    def add(self, other):
        if (self.lo, self.hi, self.degree) != (other.lo, other.hi, other.degree):
            raise WindowMismatch("windows or degrees differ")
        out = zero_elt(self.ctx, self.degree, self.lo, self.hi)
        for i in range(2):
            for j in range(2):
                for l in range(self.lo, self.hi + 1):
                    out.blocks[i][j].set(l, self.blocks[i][j].get(l).add(other.blocks[i][j].get(l)))
        return out

    def scal(self, c):
        out = zero_elt(self.ctx, self.degree, self.lo, self.hi)
        for i in range(2):
            for j in range(2):
                for l in range(self.lo, self.hi + 1):
                    out.blocks[i][j].set(l, self.blocks[i][j].get(l).scal(c))
        return out

    def sub(self, other):
        return self.add(other.scal(self.ctx.neg_i(1)))

    def restrict(self, lo, hi):
        return WindowHomElt(
            self.ctx,
            self.degree,
            [[self.blocks[i][j].restrict(lo, hi) for j in range(2)] for i in range(2)],
        )

    def coeff_vector(self, zlo, zhi):
        out = []
        for i in range(2):
            for j in range(2):
                for l in range(self.lo, self.hi + 1):
                    out.extend(self.blocks[i][j].get(l).coeff_vector(zlo, zhi))
        return out


def zero_elt(ctx, degree, lo, hi):
    blocks = []
    for i in range(2):
        row = []
        for j in range(2):
            tau = (degree % 2 == 1) if i == j else (degree % 2 == 0)
            row.append(WindowSeq(ctx, lo, hi, tau))
        blocks.append(row)
    return WindowHomElt(ctx, degree, blocks)


def identity_elt(ctx, lo, hi):
    out = zero_elt(ctx, 0, lo, hi)
    for i in range(2):
        out.blocks[i][i] = constant_seq(ctx, lo, hi, tau=False)
    return out


def iota_elt(ctx, n, lo, hi, slot):
    """The class representative iota_n in the matrix position `slot` allowed
    by the parity pattern (constant-1 sequence)."""
    i, j = slot
    out = zero_elt(ctx, n, lo, hi)
    if ((n % 2 == 0) and i != j) or ((n % 2 == 1) and i == j):
        raise WindowMismatch("slot not allowed by the parity pattern")
    out.blocks[i][j] = constant_seq(ctx, lo, hi, tau=False)
    return out


# ---------------------------------------------------------------------------
# differential, product


def dga_d(x: WindowHomElt):
    """(d x)^{ij}_l = (eps_i x_l - (-1)^n eps_j x_{l+1}) tau; zero on tau blocks.

    The signs eps_1 = 1, eps_2 = -1 come from the second periodic summand
    being the shift of the first (a shifted complex negates its differential).
    On the unshifted diagonal block this is exactly
    (x_l - (-1)^n x_{l+1}) tau, and d vanishes in odd degree there.
    """
    ctx = x.ctx
    n = x.degree
    lo, hi = x.lo, x.hi
    if hi - lo < 1:
        raise WindowTooSmall("need an interval of length >= 2")
    out = zero_elt(ctx, n + 1, lo, hi - 1)
    neg1 = ctx.neg_i(1)
    eps = (1, neg1)
    sign_n = 1 if n % 2 == 0 else neg1
    for i in range(2):
        for j in range(2):
            src = x.blocks[i][j]
            if src.tau:
                continue  # tau . tau = 0
            tgt = out.blocks[i][j]
            c_l = eps[i]
            c_l1 = ctx.neg_i(ctx.mul_i(sign_n, eps[j]))
            for l in range(lo, hi):
                val = src.get(l).scal(c_l).add(src.get(l + 1).scal(c_l1))
                tgt.set(l, val)
    return out


def dga_mul(x: WindowHomElt, y: WindowHomElt):
    """Composition x . y (apply y, then x); output window is the intersection
    of y's window with x's window shifted by y's degree."""
    ctx = x.ctx
    lo = max(y.lo, x.lo - y.degree)
    hi = min(y.hi, x.hi - y.degree)
    if lo > hi:
        raise WindowMismatch("windows do not overlap")
    out = zero_elt(ctx, x.degree + y.degree, lo, hi)
    for i in range(2):  # source summand
        for k in range(2):  # target summand
            acc_tau = out.blocks[k][i].tau
            for j in range(2):  # middle summand
                yb = y.blocks[j][i]
                xb = x.blocks[k][j]
                # tau composition: both flagged kills the term
                if yb.tau and xb.tau:
                    continue
                for l in range(lo, hi + 1):
                    prod = yb.get(l).mul(xb.get(l + y.degree))
                    if prod.is_zero():
                        continue
                    cur = out.blocks[k][i].get(l)
                    out.blocks[k][i].set(l, cur.add(prod))
    return out


def leibniz_defect(x: WindowHomElt, y: WindowHomElt):
    """d(xy) - (dx)y - (-1)^{|x|} x (dy), restricted to the common window."""
    ctx = x.ctx
    prod = dga_mul(x, y)
    lhs = dga_d(prod)
    dx_y = dga_mul(dga_d(x), y)
    x_dy = dga_mul(x, dga_d(y))
    sign = 1 if x.degree % 2 == 0 else ctx.neg_i(1)
    lo = max(lhs.lo, dx_y.lo, x_dy.lo)
    hi = min(lhs.hi, dx_y.hi, x_dy.hi)
    if lo > hi:
        raise WindowTooSmall("windows shrank to nothing")
    return lhs.restrict(lo, hi).sub(
        dx_y.restrict(lo, hi).add(x_dy.scal(sign).restrict(lo, hi))
    )


# ---------------------------------------------------------------------------
# cohomology


def dga_cohomology(tctx, n, L):
    """Block ranks of H^n over the Laurent centre on the window [-L, L].

    The block differentials have Z-free coefficients (signs only), so their
    rank over the Laurent ring is the rank of one constant matrix over the
    residue field; each block is ranked once.
    """
    ctx = tctx.field
    if L < abs(n) + 2:
        raise WindowTooSmall("need L >= |n| + 2")
    lo, hi = -L, L

    # per-block independent computation: the differential acts blockwise
    ranks = [[0, 0], [0, 0]]
    reps = {}
    neg1 = ctx.neg_i(1)
    eps = (1, neg1)
    for i in range(2):
        for j in range(2):
            tau_here = (n % 2 == 1) if i == j else (n % 2 == 0)
            # coefficient pair of the block differential at degree m:
            # (eps_i, -(-1)^m eps_j)
            def coeffs(m):
                s = 1 if m % 2 == 0 else neg1
                return eps[i], ctx.neg_i(ctx.mul_i(s, eps[j]))

            if tau_here:
                rk = _tau_block_rank(ctx, coeffs(n - 1), lo, hi)
            else:
                rk = _plain_block_rank(ctx, coeffs(n), lo, hi)
                if rk:
                    reps[(i, j)] = "constant"
            ranks[i][j] = rk
    return {"degree": n, "window": L, "block_ranks": ranks, "representative": reps}


def _plain_block_rank(ctx, coeff_pair, lo, hi):
    """Cycles of c0 x_l + c1 x_{l+1} = 0 on [lo, hi-1] (a 1-dim recursion);
    boundaries from the tau blocks below vanish."""
    c0, c1 = coeff_pair
    width = hi - lo + 1
    rows = []
    for l in range(lo, hi):
        row = [0] * width
        row[l - lo] = c0
        row[l - lo + 1] = c1
        rows.append(row)
    return len(nullspace(ctx, rows))


def _tau_block_rank(ctx, coeff_pair, lo, hi):
    """Tau blocks: d vanishes, so everything on the shrunk window is a cycle;
    subtract the rank of the incoming differential (surjective here)."""
    c0, c1 = coeff_pair
    width = hi - lo + 1
    rows = []
    for src in range(width):
        row = [0] * (width - 1)
        for l in range(width - 1):
            if src == l:
                row[l] = ctx.add_i(row[l], c0)
            if src == l + 1:
                row[l] = ctx.add_i(row[l], c1)
        rows.append(row)
    return (width - 1) - rank(ctx, rows)


# ---------------------------------------------------------------------------
# the degree-zero algebra


def degree0_check(tctx, L):
    """The windowed degree-0 part is the (2L+1)-fold product of the vertex
    subalgebra: per index, the dictionary

        Z -> diag(Z, Z),  e1 -> E11,  e2 -> E22,  T_{s0} -> (0 tau; tau 0)

    is an algebra isomorphism onto the 4-dimensional-over-Laurent factor, and
    degree-0 composition acts index by index (no cross-index products)."""
    ctx = tctx.field
    lo, hi = -L, L

    def factor_elt(index, name, zexp=0):
        out = zero_elt(ctx, 0, lo, hi)
        if name == "e1":
            out.blocks[0][0].set(index, LaurentPoly.z(ctx, zexp))
        elif name == "e2":
            out.blocks[1][1].set(index, LaurentPoly.z(ctx, zexp))
        elif name == "Z":
            out.blocks[0][0].set(index, LaurentPoly.z(ctx, zexp + 1))
            out.blocks[1][1].set(index, LaurentPoly.z(ctx, zexp + 1))
        elif name == "T":
            out.blocks[0][1].set(index, LaurentPoly.z(ctx, zexp))
            out.blocks[1][0].set(index, LaurentPoly.z(ctx, zexp))
        return out

    # dictionary basis S = span{e1 Z^r, e2 Z^r, T e1 Z^r, T e2 Z^r}
    def basis_elt(index, kind, zexp):
        if kind == "e1":
            return factor_elt(index, "e1", zexp)
        if kind == "e2":
            return factor_elt(index, "e2", zexp)
        if kind == "Te1":
            out = zero_elt(ctx, 0, lo, hi)
            out.blocks[1][0].set(index, LaurentPoly.z(ctx, zexp))
            return out
        out = zero_elt(ctx, 0, lo, hi)
        out.blocks[0][1].set(index, LaurentPoly.z(ctx, zexp))
        return out

    report = {"window": L}
    ok = True
    idxs = [lo, 0, hi] if L > 0 else [0]
    # generator relations per factor
    for at in idxs:
        e1 = factor_elt(at, "e1")
        e2 = factor_elt(at, "e2")
        T = factor_elt(at, "T")
        Z = factor_elt(at, "Z")
        ident = e1.add(e2)
        checks = [
            dga_mul(T, T).is_zero(),  # quadratic relation at a regular block
            dga_mul(e1, e1).sub(e1.restrict(e1.lo, e1.hi)).is_zero(),
            dga_mul(e1, e2).is_zero(),
            dga_mul(e1, T).sub(dga_mul(T, e2)).is_zero(),
            dga_mul(Z, T).sub(dga_mul(T, Z)).is_zero(),
            dga_mul(Z, e1).sub(dga_mul(e1, Z)).is_zero(),
            dga_mul(ident, T).sub(T.restrict(T.lo, T.hi)).is_zero(),
        ]
        ok = ok and all(checks)
    report["homomorphism"] = ok

    # bijectivity on the window: the 4 (2L+1) (2 z-degrees) dictionary images
    # are independent and exhaust the degree-0 window coordinates
    vecs = []
    for at in range(lo, hi + 1):
        for kind in ("e1", "e2", "Te1", "Te2"):
            for zexp in (0, 1):
                vecs.append(basis_elt(at, kind, zexp).coeff_vector(0, 1))
    span = Span(ctx, len(vecs[0]))
    indep = all(span.add(v) for v in vecs)
    report["bijective_on_window"] = indep and span.dim == len(vecs)

    # locality: no cross-index products
    if L > 0:
        a = factor_elt(lo, "e1")
        b = factor_elt(hi, "T")
        report["local"] = dga_mul(a, b).is_zero() and dga_mul(b, a).is_zero()
    else:
        report["local"] = True
    report["pass"] = report["homomorphism"] and report["bijective_on_window"] and report["local"]
    return report
