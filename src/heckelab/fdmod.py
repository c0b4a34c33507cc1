"""Finite-dimensional module theory for the four-dimensional algebra R.

R has two idempotents e1, e2 and T with e_i T = T e_{3-i}, T^2 = 0.  Its
Laurent extension S = R[Z^{+-1}], specialised at an invertible scalar, enters
through the totalised resolutions at the end of the module.

Decomposition into indecomposables uses the constructive ranks
b_i = rank(T : e_i M -> e_{3-i} M); every run is certified by an explicit
change of basis exhibiting the direct sum, so correctness does not rest on
the derivation of the formula.

Stable homs quotient by the maps factoring through a projective cover, which
over a self-injective algebra captures exactly the stable-zero maps.  Ext is
computed from stepwise projective resolutions (which come out 2-periodic for
the one-dimensional modules).  The S-level computations run on the totalised
(periodic x Koszul) resolutions, so every Hom space is finite dimensional.

The totalised resolution TOT(i) of chi_{i,lam} has Q_l = Se_{p(l)} (+)
Se_{p(l-1)} in level l (slots 0 and 1, p(l) = i for even l and 3 - i for odd
l): the cone of Z - lam on the 2-periodic resolution of chi_i.  It is written
in the frame of the endomorphism DGA (`heckelab.dga`): slot s of TOT(i) is DGA
summand s when i = 1 and summand 1 - s when i = 2, and summand 1 is rescaled
by (-1)^l for i = 1 and by (-1)^(l+1) for i = 2.  In the slot frame the
differential has the components T on both slots and (-1)^l (Z - lam) from
slot 1 to slot 0; in the DGA frame it is D_i = delta + K_i, with delta the
element that `dga.dga_d` brackets with and K_i = (Z - lam) iota_1 a constant
off-diagonal block.  A map TOT(i) -> TOT(j) is a `dga.WindowHomElt`, its
bracket with the differentials is dga_d plus a Koszul term, and composition
is `dga.dga_mul`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dga import dga_d, dga_mul, identity_elt, iota_elt, on_common_window, zero_elt
from .errors import (
    ComparisonFailure,
    CtxMismatch,
    RelationViolation,
    ZeroLambda,
)
from .linalg import (
    Span,
    identity,
    inverse,
    is_zero_mat,
    mat_mul,
    mat_sub,
    mat_vec,
    nullspace,
    rank,
    solve,
    sparse,
    zeros,
)
from .rings import LaurentPoly, NodalLaurentPoly

GENS = ("e1", "e2", "T")


@dataclass
class FDModule:
    """An R-module: the matrices of e1, e2 and T on ctx^dim."""

    ctx: object
    dim: int
    action: dict

    def g(self, name):
        return self.action[name]

    def check_relations(self):
        ctx, n = self.ctx, self.dim
        T, e1, e2 = self.g("T"), self.g("e1"), self.g("e2")
        if not is_zero_mat(mat_mul(ctx, T, T)):
            raise RelationViolation("T^2 != 0")
        if not is_zero_mat(mat_sub(ctx, mat_mul(ctx, e1, e1), e1)):
            raise RelationViolation("e1 not idempotent")
        if not is_zero_mat(mat_sub(ctx, mat_mul(ctx, e2, e2), e2)):
            raise RelationViolation("e2 not idempotent")
        if not is_zero_mat(mat_mul(ctx, e1, e2)):
            raise RelationViolation("e1 e2 != 0")
        s = [[ctx.add_i(e1[i][j], e2[i][j]) for j in range(n)] for i in range(n)]
        if not is_zero_mat(mat_sub(ctx, s, identity(n))):
            raise RelationViolation("e1 + e2 != 1")
        if not is_zero_mat(mat_sub(ctx, mat_mul(ctx, e1, T), mat_mul(ctx, T, e2))):
            raise RelationViolation("e1 T != T e2")
        return True

    def direct_sum(self, *others):
        """self (+) others, block diagonal in this order."""
        mods = (self, *others)
        if any(m.ctx.key != self.ctx.key for m in others):
            raise CtxMismatch("cannot sum modules over different fields")
        n = sum(m.dim for m in mods)
        act = {}
        for name in GENS:
            M = zeros(n, n)
            offset = 0
            for m in mods:
                for i, row in enumerate(m.g(name)):
                    M[offset + i][offset : offset + m.dim] = row
                offset += m.dim
            act[name] = M
        return FDModule(self.ctx, n, act)

    def conjugate(self, C):
        Ci = inverse(self.ctx, C)
        act = {name: mat_mul(self.ctx, Ci, mat_mul(self.ctx, self.g(name), C)) for name in GENS}
        return FDModule(self.ctx, self.dim, act)


# -- standard modules ---------------------------------------------------------


def zero_module(ctx):
    """The zero module, the empty direct sum."""
    return FDModule(ctx, 0, {name: [] for name in GENS})


def std_chi(ctx, i):
    """chi_i: one-dimensional, T -> 0, e_j -> delta_ij."""
    one = [[1]]
    zero = [[0]]
    act = {"e1": one if i == 1 else zero, "e2": one if i == 2 else zero, "T": zero}
    return FDModule(ctx, 1, act)


def std_proj(ctx, i):
    """Re_i with basis (e_i, T e_i)."""
    if i == 1:
        e1 = [[1, 0], [0, 0]]
        e2 = [[0, 0], [0, 1]]
    else:
        e1 = [[0, 0], [0, 1]]
        e2 = [[1, 0], [0, 0]]
    T = [[0, 0], [1, 0]]
    return FDModule(ctx, 2, {"e1": e1, "e2": e2, "T": T})


def std_module(ctx, a1, a2, b1, b2):
    """chi1^a1 (+) chi2^a2 (+) Re1^b1 (+) Re2^b2 in this fixed order."""
    mods = (
        [std_chi(ctx, 1)] * a1 + [std_chi(ctx, 2)] * a2 + [std_proj(ctx, 1)] * b1 + [std_proj(ctx, 2)] * b2
    )
    return zero_module(ctx).direct_sum(*mods)


# -- subspace helpers ---------------------------------------------------------


def _cols_matrix(cols, dim):
    return [[c[i] for c in cols] for i in range(dim)]


def _columns(A):
    return [list(c) for c in zip(*A)]


def _extend(ctx, base, candidates):
    """The candidates that enlarge the span of base in ctx^n, in order: each
    one kept is independent of base and of the ones kept before it."""
    span = Span(ctx)
    for v in base:
        span.add(sparse(v))
    return [v for v in candidates if span.add(sparse(v))]


# -- decomposition ------------------------------------------------------------


def _split_T_data(ctx, M, side_cols, T):
    """For V = span(side_cols): the positions of the vectors whose T-images
    are independent of the T-images before them, and a basis of ker(T|V) in
    V-coordinates."""
    images = [mat_vec(ctx, T, c) for c in side_cols]
    span = Span(ctx)
    pivots = [j for j, w in enumerate(images) if span.add(sparse(w))]
    ker_coords = nullspace(ctx, _cols_matrix(images, M.dim)) if side_cols else []
    return pivots, ker_coords


def decompose(M: FDModule):
    """Multiplicities (a1, a2, b1, b2) of chi1, chi2, Re1, Re2 in M.

    Certified by a change of basis that conjugates M onto
    std_module(a1, a2, b1, b2); raises RelationViolation otherwise.
    """
    M.check_relations()
    ctx, n = M.ctx, M.dim
    T = M.g("T")
    V1 = _extend(ctx, [], _columns(M.g("e1")))
    V2 = _extend(ctx, [], _columns(M.g("e2")))

    piv1, ker1_coords = _split_T_data(ctx, M, V1, T)
    piv2, ker2_coords = _split_T_data(ctx, M, V2, T)
    b1, b2 = len(piv1), len(piv2)
    us = [V1[j] for j in piv1]
    vs = [V2[j] for j in piv2]
    ker1 = [mat_vec(ctx, _cols_matrix(V1, n), c) for c in ker1_coords] if V1 else []
    ker2 = [mat_vec(ctx, _cols_matrix(V2, n), c) for c in ker2_coords] if V2 else []

    Tvs = [mat_vec(ctx, T, v) for v in vs]  # inside ker(T|V1)
    Tus = [mat_vec(ctx, T, u) for u in us]  # inside ker(T|V2)
    w1 = _extend(ctx, Tvs, ker1)
    w2 = _extend(ctx, Tus, ker2)
    a1, a2 = len(w1), len(w2)

    cols = list(w1) + list(w2)
    for u in us:
        cols.append(u)
        cols.append(mat_vec(ctx, T, u))
    for v in vs:
        cols.append(v)
        cols.append(mat_vec(ctx, T, v))
    C = _cols_matrix(cols, n)
    certified = False
    if len(cols) == n and inverse(ctx, C) is not None:
        model = std_module(ctx, a1, a2, b1, b2)
        conj = M.conjugate(C)
        certified = all(is_zero_mat(mat_sub(ctx, conj.g(g), model.g(g))) for g in GENS)
    if not certified:
        raise RelationViolation("decomposition certificate failed")
    return a1, a2, b1, b2


# -- hom spaces and stable homs ------------------------------------------------


def _hom_rows(M: FDModule, N: FDModule):
    """The equations f g_M - g_N f = 0, one per generator g and entry (i, j),
    on the flattened (dimN x dimM) matrix f."""
    ctx = M.ctx
    nm, nn = M.dim, N.dim
    rows = []
    for g in GENS:
        gm, gn = M.g(g), N.g(g)
        for i in range(nn):
            for j in range(nm):
                row = [0] * (nn * nm)
                for k in range(nm):
                    row[i * nm + k] = ctx.add_i(row[i * nm + k], gm[k][j])
                for k in range(nn):
                    row[k * nm + j] = ctx.sub_i(row[k * nm + j], gn[i][k])
                rows.append(row)
    return rows


def hom_space(M: FDModule, N: FDModule):
    """Basis of Hom(M, N) as flattened (dimN x dimM) matrices."""
    if M.dim == 0 or N.dim == 0:
        return []
    return nullspace(M.ctx, _hom_rows(M, N))


def _unflatten(f, nn, nm):
    return [f[i * nm : (i + 1) * nm] for i in range(nn)]


def projective_cover(N: FDModule):
    """(P, pi) with P a sum of indecomposable projectives and pi: P ->> N.

    One Re_i goes onto each vector of a basis of e_i N modulo T e_{3-i} N,
    the part of the radical inside e_i N."""
    ctx, n = N.ctx, N.dim
    T = N.g("T")
    V1 = _extend(ctx, [], _columns(N.g("e1")))
    V2 = _extend(ctx, [], _columns(N.g("e2")))
    gens = [
        (i, v)
        for i, Vi, other in ((1, V1, V2), (2, V2, V1))
        for v in _extend(ctx, [mat_vec(ctx, T, u) for u in other], Vi)
    ]
    P = zero_module(ctx).direct_sum(*(std_proj(ctx, i) for i, _ in gens))
    pi = _cols_matrix([w for _, v in gens for w in (v, mat_vec(ctx, T, v))], n)
    if rank(ctx, pi) != n:
        raise RelationViolation("projective cover is not surjective")
    return P, pi


def stable_hom(M: FDModule, N: FDModule):
    """(dimension, representative basis) of Hom(M, N) / (factoring through proj)."""
    ctx = M.ctx
    homs = hom_space(M, N)
    if not homs:
        return 0, []
    P, pi = projective_cover(N)
    factored = []
    for u in hom_space(M, P):
        um = _unflatten(u, P.dim, M.dim)
        fm = mat_mul(ctx, pi, um) if P.dim else zeros(N.dim, M.dim)
        factored.append([c for row in fm for c in row])
    reps = [_unflatten(h, N.dim, M.dim) for h in _extend(ctx, factored, homs)]
    return len(reps), reps


# -- Ext via stepwise projective resolutions -----------------------------------


def _submodule(M: FDModule, cols):
    """The submodule spanned by cols, with its action and inclusion matrix."""
    ctx, n = M.ctx, M.dim
    k = len(cols)
    inc = _cols_matrix(cols, n)
    act = {}
    for g in GENS:
        A = zeros(k, k)
        for j, c in enumerate(cols):
            coords = solve(ctx, inc, mat_vec(ctx, M.g(g), c))
            if coords is None:
                raise RelationViolation("subspace is not action-stable")
            for i in range(k):
                A[i][j] = coords[i]
        act[g] = A
    return FDModule(ctx, k, act), inc


def projective_resolution(M: FDModule, length):
    """P_length -> ... -> P_0 -> M; returns ([P_j], [d_j: P_j -> P_{j-1}], pi0)."""
    ctx = M.ctx
    Ps, ds = [], []
    P0, pi0 = projective_cover(M)
    Ps.append(P0)
    current_cover = pi0
    for _ in range(length):
        ker_cols = nullspace(ctx, current_cover) if Ps[-1].dim else []
        K, inc = _submodule(Ps[-1], ker_cols)
        Pn, piK = projective_cover(K)
        d = mat_mul(ctx, inc, piK) if K.dim and Pn.dim else zeros(Ps[-1].dim, Pn.dim)
        Ps.append(Pn)
        ds.append(d)
        current_cover = piK
    return Ps, ds, pi0


def ext_group(M: FDModule, N: FDModule, top: int):
    """[dim Ext^n(M, N) for n = 0 .. top], all read off one projective
    resolution P_top+1 -> ... -> P_0 -> M and its Hom spaces into N:
    Ext^n is the kernel of Hom(P_n, N) -> Hom(P_n+1, N) modulo the image of
    Hom(P_n-1, N)."""
    ctx = M.ctx
    Ps, ds, _ = projective_resolution(M, top + 1)
    homs = [hom_space(P, N) for P in Ps[: top + 1]]

    def induced_rank(j):
        """rank of Hom(P_j, N) -> Hom(P_j+1, N), f -> f . d_j+1."""
        if not homs[j] or not Ps[j].dim or not Ps[j + 1].dim:
            return 0
        rows = []
        for f in homs[j]:
            comp = mat_mul(ctx, _unflatten(f, N.dim, Ps[j].dim), ds[j])
            rows.append([c for row in comp for c in row])
        return rank(ctx, rows)

    ranks = [induced_rank(j) for j in range(top + 1)]
    return [len(homs[n]) - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)]


# -- shift ---------------------------------------------------------------------


def shift(M: FDModule):
    """Cokernel of an injection into an injective (= projective) module.

    The embedding extends a prescribed map on an e-homogeneous socle basis;
    it is injective because the socle is essential in a finite module.
    """
    ctx, n = M.ctx, M.dim
    if n == 0:
        return M
    soc = nullspace(ctx, M.g("T"))
    pieces, targets = [], []
    for name, i in (("e1", 1), ("e2", 2)):
        for v in _extend(ctx, [], [mat_vec(ctx, M.g(name), v) for v in soc]):
            # E(chi_i) = Re_{3-i}, whose socle is spanned by T e_{3-i}
            pieces.append(std_proj(ctx, 3 - i))
            targets.append(v)
    E = zero_module(ctx).direct_sum(*pieces)
    # solve for a module map f: M -> E sending the k-th socle target to the
    # T-generator of the k-th summand, which sits at index 2k + 1
    nm, ne = n, E.dim
    rows = _hom_rows(M, E)
    rhs = [0] * len(rows)
    for k, v in enumerate(targets):
        for i in range(ne):
            row = [0] * (ne * nm)
            row[i * nm : (i + 1) * nm] = v
            rows.append(row)
            rhs.append(1 if i == 2 * k + 1 else 0)
    f = solve(ctx, rows, rhs)
    if f is None:
        raise RelationViolation("injective extension unexpectedly unsolvable")
    fm = _unflatten(f, ne, nm)
    if nullspace(ctx, fm):
        raise RelationViolation("embedding into injective hull failed")
    # cokernel coordinates: complete the image columns by standard vectors
    img_cols = _columns(fm)
    comp = _extend(ctx, img_cols, identity(ne))
    proj = inverse(ctx, _cols_matrix(img_cols + comp, ne))[nm:]
    act = {
        g: _cols_matrix([mat_vec(ctx, proj, mat_vec(ctx, E.g(g), v)) for v in comp], len(comp))
        for g in GENS
    }
    return FDModule(ctx, len(comp), act)


def generator_test(M: FDModule):
    """True iff the chi-classes cannot see M, cross-checked against decompose."""
    ctx = M.ctx
    stable_zero = all(
        stable_hom(std_chi(ctx, i), X)[0] == 0
        for i in (1, 2)
        for X in (M, shift(M))
    )
    a1, a2, _, _ = decompose(M)
    if stable_zero != (a1 == 0 and a2 == 0):
        raise ComparisonFailure("stable-hom test disagrees with the classification")
    return stable_zero




# -- Ext over S at a specialisation ---------------------------------------------


def _parity_idem(i, m):
    return i if m % 2 == 0 else 3 - i


def ext_S_specialized(ctx, i, j, lam_idx, n):
    """dim Ext_S^n(chi_{i,lam}, chi_{j,lam}) via the totalised resolution.

    Q_0 = Se_i, Q_m = Se_{p(m)} (+) Se_{p(m-1)}.  The boundary components are
    right multiplications by T and +-(Z - lam), and both act by zero on the
    one-dimensional chi_{j,lam} (T kills it, Z acts by lam).  So every map of
    the Hom complex is zero, and Ext^n is Hom(Q_n, chi_{j,lam}): one dimension
    per slot of Q_n whose idempotent is e_j.
    """
    if lam_idx == 0:
        raise ZeroLambda("specialisation parameter must be nonzero")
    if n < 0:
        raise ValueError("degree must be >= 0")
    slots = [_parity_idem(i, n)] if n == 0 else [_parity_idem(i, n), _parity_idem(i, n - 1)]
    return slots.count(j)


def stable_hom_S(ctx, i, j, lam_idx):
    """[chi_{i,lam}, chi_{j,lam}]_S via the shift identity
    [chi_{i,lam}, -] = Ext^1(chi_{3-i,lam}, -)."""
    return ext_S_specialized(ctx, 3 - i, j, lam_idx, 1)


# -- the stable endomorphism algebra of a supersingular module ------------------
#
# TOT(i) is written in the frame of the DGA (see the module docstring), and a
# map TOT(i) -> TOT(j) is a `WindowHomElt`.  Maps here are 2-periodic and
# stored on the levels _LO.._HI, and K_i on _LO - 1.._HI, so that every bracket
# is read on levels _LO and _LO + 1: one of each parity, which determine a
# 2-periodic map.
_LO, _HI = 0, 2


def _koszul(ctx, i, lam_idx):
    """K_i = (Z - lam) iota_1, the Koszul part of the differential of TOT(i):
    constant in block (0, 1) for i = 1 and in block (1, 0) for i = 2."""
    k = zero_elt(ctx, 1, _LO - 1, _HI)
    seq = k.blocks[0][1] if i == 1 else k.blocks[1][0]
    for l in range(_LO - 1, _HI + 1):
        seq.set(l, LaurentPoly(ctx, {1: 1, 0: ctx.neg_i(lam_idx)}))
    return k


def _bracket(Kj, f, Ki):
    """The graded commutator D_j f - (-1)^deg(f) f D_i of the differentials
    D = delta + K, as dga_d(f) + K_j f - (-1)^deg(f) f K_i (dga_d brackets
    with delta), on the levels where all three terms live.  For deg f = 0 it
    is zero iff f is a chain map, for deg f = -1 it is the boundary of f."""
    sign = f.ctx.neg_i(1) if f.degree % 2 == 0 else 1
    d, left, right = on_common_window(dga_d(f), dga_mul(Kj, f), dga_mul(f, Ki).scal(sign))
    return d.add(left).add(right)


def _unit_brackets(ctx, zwin):
    """The brackets [D_j, E] of the eight unit homotopies E of degree -1 (1 in
    one block at the levels of one parity), at the two nodes lam = 0 and
    lam = 1: {(i, j): one term list per E}.  A term is (key, value at node 0,
    value at node 1) of the bracket's `coeff_terms`, kept where either value
    is nonzero.

    K_i = (Z - lam) iota_1 is affine in lam, K_lam = (1 - lam) K_0 + lam K_1,
    and `_bracket` is linear in (K_j, K_i) with the lam-free dga_d(E) as its
    third term, so [D_lam, E] = (1 - lam) [D_0, E] + lam [D_1, E]: the two
    nodes give the bracket at every lam.
    """
    K = [{i: _koszul(ctx, i, node) for i in (1, 2)} for node in (0, 1)]
    units = {}
    for i in (1, 2):
        for j in (1, 2):
            units[(i, j)] = []
            for a in range(2):
                for b in range(2):
                    for parity in range(2):
                        unit = zero_elt(ctx, -1, _LO, _HI)
                        for l in range(_LO + parity, _HI + 1, 2):
                            unit.blocks[a][b].set(l, LaurentPoly.scalar(ctx, 1))
                        v0, v1 = (_bracket(k[j], unit, k[i]).coeff_terms() for k in K)
                        units[(i, j)].append(
                            [(key, v0.get(key, 0), v1.get(key, 0)) for key in v0 | v1]
                        )
    return units


def _boundary_span(ctx, units, lam_idx, zwin):
    """Span of the null-homotopic degree-0 maps TOT(i) -> TOT(j) with
    homotopies Z^z E, |z| <= zwin, over the eight unit homotopies E; `units`
    is the (i, j) entry of `_unit_brackets`.

    [D, E] at lam is (1 - lam) times its node-0 value plus lam times its
    node-1 value.  `dga_d` and `dga_mul` are Laurent-linear, so [D, Z^z E] =
    Z^z [D, E], whose term (i, j, l, zz) is the term (i, j, l, zz - z) of
    [D, E].
    """
    add = ctx.add
    w0, w1 = ctx.mul[ctx.sub_i(1, lam_idx)], ctx.mul[lam_idx]
    span = Span(ctx)
    for terms in units:
        at_lam = [(key, x) for key, x0, x1 in terms if (x := add[w0[x0]][w1[x1]])]
        for z in range(-zwin, zwin + 1):
            span.add({(i, j, l, zz + z): x for (i, j, l, zz), x in at_lam})
    return span


@dataclass
class StableAlgebra:
    dim: int
    labels: list
    table: dict  # (a, b) -> coefficient tuple over the labels


def _r_reference_table(ctx):
    """Structure constants of R on the basis (e1, e2, Te1, Te2) via the
    regular representation."""
    reg = std_proj(ctx, 1).direct_sum(std_proj(ctx, 2))
    # basis order of the regular module: (e1, Te1, e2, Te2)
    vecs = {
        "e1": [1, 0, 0, 0],
        "Te1": [0, 1, 0, 0],
        "e2": [0, 0, 1, 0],
        "Te2": [0, 0, 0, 1],
    }
    mats = {
        "e1": reg.g("e1"),
        "e2": reg.g("e2"),
        "T": reg.g("T"),
    }

    def left_mult(name):
        if name in ("e1", "e2"):
            return mats[name]
        # Te_i = T . e_i
        i = name[-1]
        return mat_mul(ctx, mats["T"], mats[f"e{i}"])

    labels = ["e1", "e2", "Te1", "Te2"]
    table = {}
    for a in labels:
        La = left_mult(a)
        for b in labels:
            out = mat_vec(ctx, La, vecs[b])
            coeffs = []
            for lbl in labels:
                # coordinates in the regular basis directly give coefficients
                idx = vecs[lbl].index(1)
                coeffs.append(out[idx])
            table[(a, b)] = tuple(coeffs)
    return labels, table


@dataclass
class _StableEndoNodes:
    """The lam-free part of the stable-endomorphism certificate."""

    units: dict  # (i, j) -> the unit brackets of `_unit_brackets`
    classes: list  # (name, (i, j), coeff_terms): must not be null-homotopic
    defects: list  # (product, (i, j), coeff_terms): must be null-homotopic
    table: dict  # the structure constants, over the stable labels


def _stable_endo_nodes(tctx, zwin):
    """The lam-free part of `stable_endo_supersingular`, built once per zwin
    and kept in `tctx.cache`: the unit brackets at the two nodes, the
    chain-map checks of the four representatives (zero at both nodes is zero
    at every lam), their coefficient terms on the levels _LO, _LO + 1, and
    the nonzero differences between their products and R's."""
    key = ("stable_endo_nodes", zwin)
    nodes = tctx.cache.get(key)
    if nodes is not None:
        return nodes
    ctx = tctx.field
    maps = {
        "e1": (1, 1, identity_elt(ctx, _LO, _HI)),
        "e2": (2, 2, identity_elt(ctx, _LO, _HI)),
        "Te1": (1, 2, iota_elt(ctx, 0, _LO, _HI, (1, 1))),
        "Te2": (2, 1, iota_elt(ctx, 0, _LO, _HI, (0, 0))),
    }
    K = [{i: _koszul(ctx, i, node) for i in (1, 2)} for node in (0, 1)]
    for name, (i, j, f) in maps.items():
        if not all(_bracket(k[j], f, k[i]).is_zero() for k in K):
            raise ComparisonFailure(f"{name} representative is not a chain map")

    def vector(f):
        return f.restrict(_LO, _LO + 1).coeff_terms()

    labels, ref = _r_reference_table(ctx)
    defects = []
    for a in labels:
        ia, ja, fa = maps[a]
        for b in labels:
            ib, jb, fb = maps[b]
            # product a.b = compose a after b: defined when jb == ia; otherwise 0
            expected = ref[(a, b)]
            if jb == ia:
                prod = dga_mul(fa, fb)
                # subtract the expected combination living in slot (ib -> ja)
                exp_map = zero_elt(ctx, 0, _LO, _HI)
                for coeff, lbl in zip(expected, labels):
                    if coeff:
                        il, jl, fl = maps[lbl]
                        if (il, jl) != (ib, ja):
                            raise ComparisonFailure(
                                f"expected product {a}*{b} lands in a different slot"
                            )
                        exp_map = exp_map.add(fl.scal(coeff))
                diff = prod.sub(exp_map)
                if not diff.is_zero():
                    defects.append((f"{a}*{b}", (ib, ja), vector(diff)))
            elif any(expected):
                raise ComparisonFailure(f"product {a}*{b}: slot mismatch against R")
    stable = dict(zip(labels, ("e1~", "e2~", "t1~", "t2~")))
    nodes = tctx.cache[key] = _StableEndoNodes(
        units=_unit_brackets(ctx, zwin),
        classes=[(name, (i, j), vector(f)) for name, (i, j, f) in maps.items()],
        defects=defects,
        table={(stable[a], stable[b]): v for (a, b), v in ref.items()},
    )
    return nodes


def stable_endo_supersingular(tctx, orbit, lam_idx, zwin=3):
    """Structure constants of the stable endomorphism algebra of the
    supersingular module at lambda, compared against R.

    D_i^2 = 0 is checked first.  The basis classes e1~, e2~, t1~, t2~ are
    explicit 2-periodic chain maps on the totalised resolutions (the
    identities, and the constants E_11: TOT(1) -> TOT(2) and E_00: TOT(2) ->
    TOT(1)); each is checked to be a chain map and not null-homotopic, and
    each product is certified equal to R's modulo the null-homotopic maps of
    one Z-window, zwin.  The stable-hom dimensions are not computed here: the endo suite
    reports `stable_hom_S`, and a real stable Hom is ROADMAP item 5.

    Only D_i depends on lambda, through K_i = (Z - lam) iota_1 = (1 - lam) K_0
    + lam K_1, and every bracket is linear in the K's.  So the brackets at lam
    are the (1 - lam, lam) combinations of their values at the nodes lam = 0
    and lam = 1, and a bracket zero at both nodes is zero at every lam.  The
    node values, the chain-map checks, the coefficient terms of the classes and
    of the product differences do not depend on lam: `_stable_endo_nodes`
    builds them once per `tctx` and zwin.  Per lambda remain D_i^2 = 0 (K_i
    K_i is quadratic in lam, so the nodes do not decide it), the four spans
    of null-homotopic maps and the membership tests against them.
    """
    ctx = tctx.field
    if lam_idx == 0:
        raise ZeroLambda("lambda must be nonzero")
    if orbit is not None and not orbit.regular:
        raise ComparisonFailure("stable endomorphism computation needs a regular orbit")
    for i in (1, 2):
        k = _koszul(ctx, i, lam_idx)
        # D_i^2 = dga_d(K_i) + K_i K_i, as delta^2 = 0
        if not (dga_d(k).is_zero() and dga_mul(k, k).is_zero()):
            raise ComparisonFailure(f"D_{i}^2 != 0")
    nodes = _stable_endo_nodes(tctx, zwin)
    spans = {pair: _boundary_span(ctx, units, lam_idx, zwin) for pair, units in nodes.units.items()}
    for name, pair, vec in nodes.classes:
        if spans[pair].contains(vec):
            raise ComparisonFailure(f"{name} is null-homotopic")
    for name, pair, vec in nodes.defects:
        if not spans[pair].contains(vec):
            raise ComparisonFailure(f"product {name} disagrees with R")
    return StableAlgebra(4, ["e1~", "e2~", "t1~", "t2~"], dict(nodes.table))


# -- A-side Ext (two lines through the origin) ----------------------------------


def ext_nodal_line(ctx, which, jdeg, D):
    """Per-X-degree dims of Ext^j_A(M, M) for M = A/X_which A, truncated at D.

    The 2-periodic free resolution of M alternates right multiplication by
    X_which and by the other variable; the induced maps on M are computed by
    multiplying in A and reducing modulo X_which.  All differentials have
    degree <= 1, so the reported dims (degrees <= D-1) are exact.
    """
    other = 2 if which == 1 else 1
    # the class of X_other^r in M sits at signed X-degree r * sign
    sign = 1 if other == 1 else -1

    def basis_elt(d):
        return NodalLaurentPoly.mono(ctx, other, d)

    def step_multiplier(step):
        # d_1 = . X_which, d_2 = . X_other, alternating
        branch = which if step % 2 == 1 else other
        return NodalLaurentPoly.mono(ctx, branch, 1)

    def map_matrix(step):
        """(D+1) x (D+1) matrix of the induced map on the truncation of M,
        reducing mod X_which A: only the constant and X_other terms survive."""
        mult = step_multiplier(step)
        A = zeros(D + 1, D + 1)
        for d in range(D + 1):
            for (_z, k), c in basis_elt(d).mul(mult).terms.items():
                r = k * sign
                if 0 <= r <= D:
                    A[r][d] = c
        return A

    delta_j = map_matrix(jdeg + 1)
    delta_prev = map_matrix(jdeg) if jdeg >= 1 else None
    out = []
    for d in range(D):
        # graded pieces are 1-dimensional; read the maps degree by degree
        ker = 1 if all(delta_j[r][d] == 0 for r in range(D + 1)) else 0
        img = 0
        if delta_prev is not None and d >= 1:
            img = 1 if any(delta_prev[d][c] != 0 for c in range(D + 1)) else 0
        out.append(ker - img)
    return out


# -- restrictions of the spherical specialisations (SL2 bookkeeping) ------------


def sl2_spherical_restrictions(ctx, which, D):
    """Truncated restrictions of the spherical specialisation at M_which.

    M_1 = A/X2 A and M_2 = A/X1 A; the module is (M_which)^2 with the
    reflection generators acting through (0 X1; X2 0) and (0 X2; X1 0).
    Returns the restriction to the two vertex algebras (T = first reflection,
    T = second reflection); both are R-modules of dimension 2(D+1).

    Truncation injects one extra one-dimensional summand at the top degree.
    """
    n = 2 * (D + 1)

    def idx(coord, deg):
        return coord * (D + 1) + deg

    e1 = zeros(n, n)
    e2 = zeros(n, n)
    for d in range(D + 1):
        e1[idx(0, d)][idx(0, d)] = 1
        e2[idx(1, d)][idx(1, d)] = 1

    def refl_matrix(upper_branch):
        """(f, g) -> (X_a g, X_b f) with (a, b) = (1, 2) or (2, 1), reduced
        modulo the killed variable and truncated at degree D."""
        a, b = (1, 2) if upper_branch == 1 else (2, 1)
        A = zeros(n, n)
        live = which  # the surviving variable of M_which: X_which acts as shift
        for d in range(D + 1):
            # component X_a . g into the first coordinate
            if a == live and d + 1 <= D:
                A[idx(0, d + 1)][idx(1, d)] = 1
            # component X_b . f into the second coordinate
            if b == live and d + 1 <= D:
                A[idx(1, d + 1)][idx(0, d)] = 1
        return A

    res_x0 = FDModule(ctx, n, {"e1": e1, "e2": e2, "T": refl_matrix(1)})
    res_x1 = FDModule(ctx, n, {"e1": e1, "e2": e2, "T": refl_matrix(2)})
    return res_x0, res_x1

