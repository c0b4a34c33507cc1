"""The windowed endomorphism DGA of the 2-periodic complete resolution.

A degree-n element on the window [lo, hi] is a 2x2 block matrix of
level-indexed Laurent polynomials in the central unit Z, stored as one flat
term map {(i, j, level, z): c} of nonzero field indices: block (i, j) maps
the j-th periodic summand to the i-th, and its level-l entry has the
coefficient c at Z^z.  Entries additionally carry the square-zero marker tau
exactly when the block's source/target idempotent types differ (diagonal
blocks in odd degree, off-diagonal blocks in even degree), so tau is a
function of (degree, i, j) and is not stored.

Windowing convention: applying the differential consumes one index from the
top of the interval, so outputs live on [lo, hi-1].  With this convention the
kernel and image computations reproduce the bi-infinite answers with no
boundary artifacts: the kernel of an even differential is the constants and
the even differential is surjective by back-substitution.  Any finite-window
model necessarily differs from the full direct product on non-finitely
supported phenomena; ranks are certified window-by-window.
"""

from __future__ import annotations

from .errors import WindowMismatch, WindowTooSmall
from .linalg import Span
from .rings import _canon, _new, _scaled, _sum


# _TAU[n % 2][i][j]: whether block (i, j) of a degree-n element carries tau,
# which the diagonal blocks do in odd degree and the off-diagonal ones in even
# degree
_TAU = (((False, True), (True, False)), ((True, False), (False, True)))


def _elt(ctx, degree, lo, hi, terms):
    """A WindowHomElt around a term map that holds no zero coefficient and no
    level outside [lo, hi]."""
    out = _new(WindowHomElt)
    out.ctx = ctx
    out.degree = degree
    out.lo = lo
    out.hi = hi
    out.terms = terms
    return out


class WindowHomElt:
    """Degree-n element on the window [lo, hi]: the term map
    {(i, j, level, z): c} of nonzero field indices, c Z^z at `level` of block
    (i, j), which maps the j-th periodic summand to the i-th."""

    __slots__ = ("ctx", "degree", "lo", "hi", "terms")

    def __init__(self, ctx, degree, lo, hi, terms=None):
        terms = {key: c for key, c in terms.items() if c} if terms else {}
        for _, _, l, _ in terms:
            if not lo <= l <= hi:
                raise WindowMismatch(f"index {l} outside window [{lo}, {hi}]")
        self.ctx = ctx
        self.degree = degree
        self.lo = lo
        self.hi = hi
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def _same_shape(self, other):
        if (self.lo, self.hi, self.degree) != (other.lo, other.hi, other.degree):
            raise WindowMismatch("windows or degrees differ")

    def add(self, other):
        self._same_shape(other)
        terms = _sum(self.ctx.add, self.terms, other.terms)
        return _elt(self.ctx, self.degree, self.lo, self.hi, terms)

    def sub(self, other):
        self._same_shape(other)
        ctx = self.ctx
        terms = _sum(ctx.add, self.terms, other.terms, ctx.neg)
        return _elt(ctx, self.degree, self.lo, self.hi, terms)

    def scal(self, c):
        terms = _scaled(self.ctx.mul, self.terms, c)
        return _elt(self.ctx, self.degree, self.lo, self.hi, terms)

    def restrict(self, lo, hi):
        terms = {key: c for key, c in self.terms.items() if lo <= key[2] <= hi}
        return _elt(self.ctx, self.degree, lo, hi, terms)

    def coeff_terms(self):
        """The coefficient vector as a term map {(i, j, level, z): c}: the
        element's own map, which callers only read."""
        return self.terms

    def __eq__(self, other):
        return (
            isinstance(other, WindowHomElt)
            and self.ctx.key == other.ctx.key
            and (self.degree, self.lo, self.hi) == (other.degree, other.lo, other.hi)
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"WindowHomElt(degree={self.degree}, [{self.lo}, {self.hi}], {self.terms!r})"


def identity_elt(ctx, lo, hi):
    return _elt(ctx, 0, lo, hi, {(i, i, l, 0): 1 for i in range(2) for l in range(lo, hi + 1)})


def iota_elt(ctx, n, lo, hi, slot):
    """The class representative iota_n in the matrix position `slot` allowed
    by the parity pattern: 1 at every level."""
    i, j = slot
    if _TAU[n % 2][i][j]:
        raise WindowMismatch("slot not allowed by the parity pattern")
    return _elt(ctx, n, lo, hi, {(i, j, l, 0): 1 for l in range(lo, hi + 1)})


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
    coefficients are signs in the residue field: one pass over the terms of
    x sends a term c Z^z at level l of block (i, j) to eps_i c at level l
    (when l < hi) and to -(-1)^n eps_j c at level l - 1 (when l > lo).
    """
    ctx = x.ctx
    n = x.degree
    lo, hi = x.lo, x.hi
    if hi - lo < 1:
        raise WindowTooSmall("need an interval of length >= 2")
    add, mul = ctx.add, ctx.mul
    eps = [ctx.scalar_i(e) for e in _EPS]
    sign_n = 1 if n % 2 == 0 else ctx.neg_i(1)
    # the multiplication-table rows of eps_i (same level) and of
    # -(-1)^n eps_j (one level down)
    same = [mul[e] for e in eps]
    down = [mul[ctx.neg_i(ctx.mul_i(sign_n, e))] for e in eps]
    taus = _TAU[n % 2]
    out = {}
    get = out.get
    for (i, j, l, z), c in x.terms.items():
        if taus[i][j]:
            continue  # tau . tau = 0
        if l < hi:
            key = (i, j, l, z)
            out[key] = add[get(key, 0)][same[i][c]]
        if l > lo:
            key = (i, j, l - 1, z)
            out[key] = add[get(key, 0)][down[j][c]]
    return _elt(ctx, n + 1, lo, hi - 1, _canon(out))


def dga_mul(x: WindowHomElt, y: WindowHomElt):
    """Composition x . y (apply y, then x); output window is the intersection
    of y's window with x's window shifted by y's degree.

    (x y)^{ki}_l = sum_j x^{kj}_{l + |y|} y^{ji}_l, where a product of two
    tau-flagged blocks is zero.  x's terms are grouped once by (middle
    summand j, level - |y|), and each term of y is multiplied by its group: a
    term of y whose level has a group lies in both windows.
    """
    ctx = x.ctx
    nx, ny = x.degree, y.degree
    lo = max(y.lo, x.lo - ny)
    hi = min(y.hi, x.hi - ny)
    if lo > hi:
        raise WindowMismatch("windows do not overlap")
    add, mul = ctx.add, ctx.mul
    taus_x, taus_y = _TAU[nx % 2], _TAU[ny % 2]
    groups = ({}, {})  # middle summand j -> level of y -> x's terms there
    for (k, j, l, z), c in x.terms.items():
        entry = (k, z, mul[c], taus_x[k][j])
        by_level = groups[j]
        group = by_level.get(l - ny)
        if group is None:
            by_level[l - ny] = [entry]
        else:
            group.append(entry)
    out = {}
    get = out.get
    for (j, i, l, z2), c in y.terms.items():
        group = groups[j].get(l)
        if group is None:
            continue
        tau_y = taus_y[j][i]
        for k, z1, row, tau_x in group:
            if tau_x and tau_y:
                continue  # tau . tau = 0
            key = (k, i, l, z1 + z2)
            out[key] = add[get(key, 0)][row[c]]
    return _elt(ctx, nx + ny, lo, hi, _canon(out))


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


def _window_basis(lo, hi):
    """The triples (i, j, level) of the window [lo, hi], in lexicographic order."""
    return [(i, j, l) for i in range(2) for j in range(2) for l in range(lo, hi + 1)]


def basis_sum(ctx, degree, lo, hi, stride):
    """The sum of Z^(u * stride) e_u over the window basis of the degree-n
    elements on [lo, hi]: e_u is 1 at level l of block (i, j), and u numbers
    the triples (i, j, l) in lexicographic order."""
    terms = {(i, j, l, u * stride): 1 for u, (i, j, l) in enumerate(_window_basis(lo, hi))}
    return _elt(ctx, degree, lo, hi, terms)


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
    x = _elt(ctx, m, lo, hi, {(i, j, l, l - lo): 1 for i, j, l in _window_basis(lo, hi)})
    dx = dga_d(x)
    rows = [[[{} for _ in range(dx.lo, dx.hi + 1)] for _ in range(2)] for _ in range(2)]
    for (i, j, l, z), c in dx.terms.items():
        rows[i][j][l - dx.lo][z] = c
    return rows


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
            if _TAU[n % 2][i][j]:
                continue
            iota = iota_elt(ctx, n, lo, hi, (i, j))
            if r_in == 0 and not iota.is_zero() and dga_d(iota).is_zero():
                reps[(i, j)] = "constant"
    return {"degree": n, "window": L, "block_ranks": ranks, "representative": reps}


# ---------------------------------------------------------------------------
# the degree-zero algebra


# the dictionary basis e1 Z^r, e2 Z^r, T e1 Z^r, T e2 Z^r of a degree-0
# factor, and the block in which each one's image lives
DICTIONARY_BLOCKS = {"e1": (0, 0), "e2": (1, 1), "Te1": (1, 0), "Te2": (0, 1)}

# the blocks of the dictionary image of each generator; Z's carries Z^1
GENERATOR_BLOCKS = {
    "e1": ((0, 0),),
    "e2": ((1, 1),),
    "Z": ((0, 0), (1, 1)),
    "T": ((0, 1), (1, 0)),
}


def degree0_check(tctx, L):
    """The windowed degree-0 part is the (2L+1)-fold product of the vertex
    subalgebra: per index, the dictionary

        Z -> diag(Z, Z),  e1 -> E11,  e2 -> E22,  T_{s0} -> (0 tau; tau 0)

    is an algebra isomorphism onto the 4-dimensional-over-Laurent factor, and
    degree-0 composition acts index by index (no cross-index products)."""
    ctx = tctx.field
    lo, hi = -L, L

    def factor_elt(index, name):
        z = 1 if name == "Z" else 0
        blocks = GENERATOR_BLOCKS[name]
        return WindowHomElt(ctx, 0, lo, hi, {(i, j, index, z): 1 for i, j in blocks})

    def basis_elt(index, kind, zexp):
        i, j = DICTIONARY_BLOCKS[kind]
        return WindowHomElt(ctx, 0, lo, hi, {(i, j, index, zexp): 1})

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
            dga_mul(e1, e1).sub(e1).is_zero(),
            dga_mul(e1, e2).is_zero(),
            dga_mul(e1, T).sub(dga_mul(T, e2)).is_zero(),
            dga_mul(Z, T).sub(dga_mul(T, Z)).is_zero(),
            dga_mul(Z, e1).sub(dga_mul(e1, Z)).is_zero(),
            dga_mul(ident, T).sub(T).is_zero(),
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
