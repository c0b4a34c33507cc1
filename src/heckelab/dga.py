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
from .linalg import Span
from .rings import LaurentPoly, _canon, _laurent


@dataclass
class WindowSeq:
    """Sequence of Laurent polynomials on [lo, hi], optionally tau-flagged."""

    ctx: object
    lo: int
    hi: int
    tau: bool
    entries: dict = field(default_factory=dict)  # index -> LaurentPoly

    def get(self, l):
        pol = self.entries.get(l)
        return LaurentPoly(self.ctx) if pol is None else pol

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
        out.entries = {l: p for l, p in self.entries.items() if lo <= l <= hi and not p.is_zero()}
        return out


def constant_seq(ctx, lo, hi, tau=False, value=1, zexp=0):
    out = WindowSeq(ctx, lo, hi, tau)
    for l in range(lo, hi + 1):
        out.entries[l] = LaurentPoly(ctx, {zexp: value})
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
                sums = dict(self.blocks[i][j].entries)
                for l, pol in other.blocks[i][j].entries.items():
                    sums[l] = sums[l].add(pol) if l in sums else pol
                out.blocks[i][j].entries = {l: p for l, p in sums.items() if not p.is_zero()}
        return out

    def scal(self, c):
        out = zero_elt(self.ctx, self.degree, self.lo, self.hi)
        for i in range(2):
            for j in range(2):
                scaled = {l: p.scal(c) for l, p in self.blocks[i][j].entries.items()}
                out.blocks[i][j].entries = {l: p for l, p in scaled.items() if not p.is_zero()}
        return out

    def sub(self, other):
        return self.add(other.scal(self.ctx.neg_i(1)))

    def restrict(self, lo, hi):
        return WindowHomElt(
            self.ctx,
            self.degree,
            [[self.blocks[i][j].restrict(lo, hi) for j in range(2)] for i in range(2)],
        )

    def coeff_terms(self):
        """The coefficient vector as a term map {(i, j, level, z): c}."""
        return {
            (i, j, l, z): c
            for i, row in enumerate(self.blocks)
            for j, seq in enumerate(row)
            for l, pol in seq.entries.items()
            for z, c in pol.c.items()
        }


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

# The signs of delta on the two periodic summands: the second summand is the
# shift of the first, and a shifted complex negates its differential.
_EPS = (1, -1)


def dga_d(x: WindowHomElt):
    """d x = delta x - (-1)^n x delta, for n = deg x and the degree-1 element
    delta = diag(eps_1, eps_2) tau: (d x)^{ij}_l = (eps_i x_l - (-1)^n eps_j
    x_{l+1}) tau, zero on tau blocks.

    On the unshifted diagonal block this is exactly (x_l - (-1)^n x_{l+1})
    tau, and d vanishes in odd degree there.  d is Laurent-linear, and its
    coefficients are signs in the residue field: each output level is one
    pass over the coefficient maps of x_l and x_{l+1}, through the two rows of
    the multiplication table that the block's signs pick.
    """
    ctx = x.ctx
    n = x.degree
    lo, hi = x.lo, x.hi
    if hi - lo < 1:
        raise WindowTooSmall("need an interval of length >= 2")
    out = zero_elt(ctx, n + 1, lo, hi - 1)
    add, mul = ctx.add, ctx.mul
    eps = [ctx.scalar_i(e) for e in _EPS]
    sign_n = 1 if n % 2 == 0 else ctx.neg_i(1)
    for i in range(2):
        for j in range(2):
            src = x.blocks[i][j]
            if src.tau:
                continue  # tau . tau = 0
            entries = src.entries
            tgt = out.blocks[i][j].entries
            row_l = mul[eps[i]]
            row_l1 = mul[ctx.neg_i(ctx.mul_i(sign_n, eps[j]))]
            for l in range(lo, hi):
                here, above = entries.get(l), entries.get(l + 1)
                terms = {} if here is None else {z: row_l[v] for z, v in here.c.items()}
                if above is not None:
                    get = terms.get
                    for z, v in above.c.items():
                        terms[z] = add[get(z, 0)][row_l1[v]]
                terms = _canon(terms)
                if terms:
                    tgt[l] = _laurent(ctx, terms)
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
            sums = {}
            for j in range(2):  # middle summand
                yb = y.blocks[j][i]
                xb = x.blocks[k][j].entries
                # tau composition: both flagged kills the term
                if yb.tau and x.blocks[k][j].tau:
                    continue
                for l, pol in yb.entries.items():
                    if lo <= l <= hi and l + y.degree in xb:
                        prod = pol.mul(xb[l + y.degree])
                        sums[l] = sums[l].add(prod) if l in sums else prod
            out.blocks[k][i].entries = {l: p for l, p in sums.items() if not p.is_zero()}
    return out


def on_common_window(*elts):
    """The elements restricted to the levels on which all of them live."""
    lo = max(x.lo for x in elts)
    hi = min(x.hi for x in elts)
    if lo > hi:
        raise WindowTooSmall("windows shrank to nothing")
    return [x.restrict(lo, hi) for x in elts]


def leibniz_defect(x: WindowHomElt, y: WindowHomElt):
    """d(xy) - (dx)y - (-1)^{|x|} x (dy), restricted to the common window."""
    sign = 1 if x.degree % 2 == 0 else x.ctx.neg_i(1)
    lhs, dx_y, x_dy = on_common_window(
        dga_d(dga_mul(x, y)), dga_mul(dga_d(x), y), dga_mul(x, dga_d(y)).scal(sign)
    )
    return lhs.sub(dx_y.add(x_dy))


# the degrees |x|, |y| that `derivation_check` certifies: both parities, and
# four level shifts of a product
CERTIFIED_DEGREES = (-1, 0, 1, 2)


def basis_sum(ctx, degree, lo, hi, stride):
    """The sum of Z^(u * stride) e_u over the window basis of the degree-n
    elements on [lo, hi]: e_u is 1 at level l of block (i, j), and u numbers
    the triples (i, j, l) in lexicographic order."""
    out = zero_elt(ctx, degree, lo, hi)
    u = 0
    for row in out.blocks:
        for seq in row:
            for l in range(lo, hi + 1):
                seq.entries[l] = LaurentPoly.z(ctx, u * stride)
                u += 1
    return out


def derivation_check(ctx, L):
    """Certify d^2 = 0 and the Leibniz rule on every pair of window basis
    elements, in the degrees CERTIFIED_DEGREES, with one product per degree
    pair.

    The Leibniz defect D(x, y) = d(xy) - (dx)y - (-1)^{|x|} x(dy), restricted
    to the common window, is bilinear over F_q[Z^+-1]: dga_d is
    Laurent-linear with Z-free field coefficients, and dga_mul multiplies
    Laurent entries.  Number the N = 4(2L + 1) basis elements e_u of y's
    window [-L, L] by u, and those of x's window, [-L, L] shifted by |y| so
    that xy fills [-L, L], the same way.  Let x carry e_u at Z^(uN) and y
    carry e_v at Z^v.  Each D(e_u, e_v) lives at Z^0, so the terms of D(x, y)
    at Z^(uN + v) are exactly D(e_u, e_v), and uN + v is injective on
    [0, N)^2.  Hence D(x, y) = 0 iff D vanishes on every pair of basis
    elements, and so on all windowed elements of those degrees.  d^2 = 0 is
    the linear case: stride 1, one element per degree.
    """
    lo, hi = -L, L
    N = 4 * (hi - lo + 1)
    ys = {n: basis_sum(ctx, n, lo, hi, 1) for n in CERTIFIED_DEGREES}
    d_squared = all(dga_d(dga_d(y)).is_zero() for y in ys.values())
    leibniz = all(
        leibniz_defect(basis_sum(ctx, m, lo + n, hi + n, N), y).is_zero()
        for m in CERTIFIED_DEGREES
        for n, y in ys.items()
    )
    return {"d_squared": d_squared, "leibniz": leibniz}


# ---------------------------------------------------------------------------
# cohomology


def _block_matrices(ctx, m, lo, hi):
    """The matrices of dga_d on the degree-m elements on [lo, hi], one per
    block, as lists of sparse rows: row l' (an output level) is the term map
    {k: entry of source level lo + k}.

    One dga_d call gives all four: level l of every block carries Z^(l - lo).
    dga_d acts blockwise and is Laurent-linear with residue-field
    coefficients, so the coefficient map of output level l' is that row.
    """
    x = zero_elt(ctx, m, lo, hi)
    for row in x.blocks:
        for seq in row:
            for l in range(lo, hi + 1):
                seq.set(l, LaurentPoly.z(ctx, l - lo))
    dx = dga_d(x)
    return [
        [[dx.blocks[i][j].get(l).c for l in range(dx.lo, dx.hi + 1)] for j in range(2)]
        for i in range(2)
    ]


def _rank(ctx, rows):
    span = Span(ctx)
    for row in rows:
        span.add(row)
    return span.dim


def dga_cohomology(tctx, n, L):
    """Block ranks of H^n over the Laurent centre on the window [-L, L], read
    off the matrices of dga_d.

    dga_d consumes the top level, so C^{n-1} on [-L, L] maps to C^n on
    [-L, L-1] and on to C^{n+1} on [-L, L-2]; a block's H^n is the number of
    levels of C^n minus the rank of d_n there minus the rank of d_{n-1}.  The
    block differentials have Z-free coefficients, so their ranks over the
    Laurent ring are the dimensions of the `Span`s of the rows of
    `_block_matrices`.  A non-tau block of C^n has a tau block of C^{n-1} as
    its source, which dga_d sends to zero (tau . tau = 0), so there d_{n-1}
    has rank 0 and nothing but zero is a boundary.  In each non-tau block the
    constant `iota_elt` is then certified a nonzero cycle on which r_in = 0:
    a class that generates H^n.  "representative" lists the blocks where it
    is.
    """
    ctx = tctx.field
    if L < abs(n) + 2:
        raise WindowTooSmall("need L >= |n| + 2")
    lo, hi = -L, L - 1  # the window of C^n
    d_in = _block_matrices(ctx, n - 1, lo, hi + 1)
    d_out = _block_matrices(ctx, n, lo, hi)
    ranks = [[0, 0], [0, 0]]
    reps = {}
    for i in range(2):
        for j in range(2):
            r_in = _rank(ctx, d_in[i][j])
            ranks[i][j] = hi + 1 - lo - _rank(ctx, d_out[i][j]) - r_in
            if (n % 2 == 0) != (i == j):
                continue  # a tau block
            iota = iota_elt(ctx, n, lo, hi, (i, j))
            if r_in == 0 and not iota.is_zero() and dga_d(iota).is_zero():
                reps[(i, j)] = "constant"
    return {"degree": n, "window": L, "block_ranks": ranks, "representative": reps}


# ---------------------------------------------------------------------------
# the degree-zero algebra


# the dictionary basis e1 Z^r, e2 Z^r, T e1 Z^r, T e2 Z^r of a degree-0
# factor, and the block in which each one's image lives
DICTIONARY_BLOCKS = {"e1": (0, 0), "e2": (1, 1), "Te1": (1, 0), "Te2": (0, 1)}


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

    def basis_elt(index, kind, zexp):
        out = zero_elt(ctx, 0, lo, hi)
        i, j = DICTIONARY_BLOCKS[kind]
        out.blocks[i][j].set(index, LaurentPoly.z(ctx, zexp))
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

    # bijectivity on the window: the 8 (2L+1) dictionary images, of the four
    # basis elements times Z^0 and Z^1 at each index, are independent
    span = Span(ctx)
    report["bijective_on_window"] = all(
        span.add(basis_elt(at, kind, zexp).coeff_terms())
        for at in range(lo, hi + 1)
        for kind in DICTIONARY_BLOCKS
        for zexp in (0, 1)
    )

    # locality: no cross-index products
    if L > 0:
        a = factor_elt(lo, "e1")
        b = factor_elt(hi, "T")
        report["local"] = dga_mul(a, b).is_zero() and dga_mul(b, a).is_zero()
    else:
        report["local"] = True
    report["pass"] = report["homomorphism"] and report["bijective_on_window"] and report["local"]
    return report
