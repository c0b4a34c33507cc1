"""Finite-dimensional module theory for the four-dimensional algebra R.

R has two idempotents e1, e2 and T with e_i T = T e_{3-i}, T^2 = 0.  Its
Laurent extension S = R[Z^{+-1}], specialised at an invertible scalar, enters
through the totalised resolutions at the end of the module.

Decomposition into indecomposables uses the constructive ranks
b_i = rank(T : e_i M -> e_{3-i} M).  Every run is certified by a change of
basis C onto the direct sum: e1 + e2 = 1, C of rank n and g_M C = C g_model
for g = e1, T make M isomorphic to an R-module (e2 = 1 - e1 on both sides), so
the relations of R hold and correctness does not rest on the derivation.

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
is `dga.dga_mul`.  K_i is affine in lam, and the ring automorphism
Z -> lam Z, with the summands of TOT(i) rescaled, carries D_{i,lam} to
D_{i,1} (`_psi_exponents`), so the certificate is checked once, as
identities in lam, and the null-homotopic maps are computed at lam = 1 alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dga import WindowHomElt, dga_d, dga_mul, identity_elt, iota_elt, on_common_window
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
from .rings import NodalLaurentPoly

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
        """Raise RelationViolation unless e1 + e2 = 1, T^2 = 0, e1^2 = e1 and
        e1 T = T e2.

        These imply the other relations of R, so they are not checked: with
        e2 = 1 - e1 and e1^2 = e1,
            e2^2 = 1 - 2 e1 + e1^2 = 1 - e1 = e2,
            e1 e2 = e1 - e1^2 = 0,
            e2 T = T - e1 T = T - T e2 = T e1.
        """
        ctx = self.ctx
        T, e1, e2 = self.g("T"), self.g("e1"), self.g("e2")
        self._check_unit()
        if not is_zero_mat(mat_mul(ctx, T, T)):
            raise RelationViolation("T^2 != 0")
        if not is_zero_mat(mat_sub(ctx, mat_mul(ctx, e1, e1), e1)):
            raise RelationViolation("e1 not idempotent")
        if not is_zero_mat(mat_sub(ctx, mat_mul(ctx, e1, T), mat_mul(ctx, T, e2))):
            raise RelationViolation("e1 T != T e2")
        return True

    def _check_unit(self):
        add = self.ctx.add_i
        s = [[add(a, b) for a, b in zip(*rows)] for rows in zip(self.g("e1"), self.g("e2"))]
        if s != identity(self.dim):
            raise RelationViolation("e1 + e2 != 1")

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
        """The module C^-1 g C for g in GENS, or None when C is singular."""
        Ci = inverse(self.ctx, C)
        if Ci is None:
            return None
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


def _T_split(ctx, T, vecs):
    """One elimination of the vectors (T v, v, e_k), v = vecs[k], on the
    columns [0, n), [n, 2n) and 2n + k.  Its rows are (T u, u, x) with
    u = sum x_k vecs[k]; by pivot they give the pairs (u, T u), whose T u are
    a basis of T(V) for V = span(vecs), then a basis of ker(T|V), then a
    basis of the relations x, sum x_k vecs[k] = 0."""
    n = len(T)
    span = Span(ctx)
    for k, v in enumerate(vecs):
        w = sparse(mat_vec(ctx, T, v) + v)
        w[2 * n + k] = 1
        span.add(w)
    pairs, kernel, relations = [], [], []
    for pc, sparse_row in sorted(span.rows.items()):
        row = [sparse_row.get(j, 0) for j in range(2 * n + len(vecs))]
        if pc < n:
            pairs.append((row[n : 2 * n], row[:n]))
        elif pc < 2 * n:
            kernel.append(row[n : 2 * n])
        else:
            relations.append(row[2 * n :])
    return pairs, kernel, relations


def decompose(M: FDModule):
    """Multiplicities (a1, a2, b1, b2) of chi1, chi2, Re1, Re2 in M.

    `_T_split` of the columns of e1 splits e_1 M and gives a basis of
    ker e1 = e_2 M, split in turn.  Certified by a change of basis C onto
    std_module(a1, a2, b1, b2): after e1 + e2 = 1, C has n columns, rank n and
    g_M C = C g_model (C^-1 g_M C = g_model) for g = e1, T.  As e2 = 1 - e1 on
    both sides, M is then an R-module, so the relations are checked only on
    failure, to name the one that breaks; raises RelationViolation.
    """
    M._check_unit()
    ctx, n = M.ctx, M.dim
    T = M.g("T")
    pairs1, ker1, e2_basis = _T_split(ctx, T, _columns(M.g("e1")))
    pairs2, ker2, _ = _T_split(ctx, T, e2_basis)
    # the Span of C's columns: on an R-module the kernel vectors independent
    # of the pairs complete T(e_{3-i} M) to a basis of ker(T|e_i M)
    pair_cols = [w for pair in pairs1 + pairs2 for w in pair]
    span = Span(ctx)
    for w in pair_cols:
        span.add(sparse(w))
    w1 = [w for w in ker1 if span.add(sparse(w))]
    w2 = [w for w in ker2 if span.add(sparse(w))]
    counts = len(w1), len(w2), len(pairs1), len(pairs2)
    cols = w1 + w2 + pair_cols
    C = _cols_matrix(cols, n)
    model = std_module(ctx, *counts)
    if not (
        len(cols) == n
        and span.dim == n  # rank C: the kernel vectors left out lie in the span
        and all(mat_mul(ctx, M.g(g), C) == mat_mul(ctx, C, model.g(g)) for g in ("e1", "T"))
    ):
        M.check_relations()
        raise RelationViolation("decomposition certificate failed")
    return counts


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
# map TOT(i) -> TOT(j) is a `WindowHomElt`: the term map {(a, b, l, z): c} of
# its blocks (a, b).  Maps here are 2-periodic and stored on the levels
# _LO.._HI, and K_i on _LO - 1.._HI, so that every bracket is read on levels
# _LO and _LO + 1: one of each parity, which determine a 2-periodic map.
_LO, _HI = 0, 2


def _koszul(ctx, i, lam_idx):
    """K_i = (Z - lam) iota_1, the Koszul part of the differential of TOT(i):
    constant in block (0, 1) for i = 1 and in block (1, 0) for i = 2."""
    a, b = (0, 1) if i == 1 else (1, 0)
    minus_lam = ctx.neg_i(lam_idx)
    terms = {}
    for l in range(_LO - 1, _HI + 1):
        terms[(a, b, l, 1)] = 1
        terms[(a, b, l, 0)] = minus_lam
    return WindowHomElt(ctx, 1, _LO - 1, _HI, terms)


def _bracket(Kj, f, Ki):
    """The graded commutator D_j f - (-1)^deg(f) f D_i of the differentials
    D = delta + K, as dga_d(f) + K_j f - (-1)^deg(f) f K_i (dga_d brackets
    with delta), on the levels where all three terms live.  For deg f = 0 it
    is zero iff f is a chain map, for deg f = -1 it is the boundary of f."""
    sign = f.ctx.neg_i(1) if f.degree % 2 == 0 else 1
    d, left, right = on_common_window(dga_d(f), dga_mul(Kj, f), dga_mul(f, Ki).scal(sign))
    return d.add(left).add(right)


# The eight unit homotopies E of degree -1, in the order of `_unit_brackets`:
# (a, b, parity) is 1 in block (a, b) at the levels of that parity.
_UNITS = [(a, b, parity) for a in range(2) for b in range(2) for parity in range(2)]


def _unit_brackets(ctx):
    """The brackets [D_j, E] of the eight unit homotopies E of `_UNITS`, at
    the two nodes lam = 0 and lam = 1: {(i, j): one term list per E}.  A term
    is (key, value at node 0, value at node 1) of the bracket's
    `coeff_terms`, kept where either value is nonzero.

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
            for a, b, parity in _UNITS:
                levels = range(_LO + parity, _HI + 1, 2)
                unit = WindowHomElt(ctx, -1, _LO, _HI, {(a, b, l, 0): 1 for l in levels})
                v0, v1 = (_bracket(k[j], unit, k[i]).coeff_terms() for k in K)
                units[(i, j)].append([(key, v0.get(key, 0), v1.get(key, 0)) for key in v0 | v1])
    return units


def _boundary_span(ctx, brackets, zwin):
    """Span of the null-homotopic degree-0 maps TOT(i) -> TOT(j) at one lam
    with homotopies Z^z E, |z| <= zwin, over the eight unit homotopies E;
    `brackets` holds the term maps [D_lam, E].

    `dga_d` and `dga_mul` are Laurent-linear, so [D, Z^z E] = Z^z [D, E],
    whose term (i, j, l, zz) is the term (i, j, l, zz - z) of [D, E].
    """
    span = Span(ctx)
    for bracket in brackets:
        for z in range(-zwin, zwin + 1):
            span.add({(i, j, l, zz + z): x for (i, j, l, zz), x in bracket.items()})
    return span


# eps^(i): Psi_lam scales DGA summand s of TOT(i) by lam^eps^(i)_s; lam sits on
# the source summand of K_i (see `_psi_exponents`)
_PSI_EXPONENTS = ((0, 1), (1, 0))


def _psi_exponents(pair):
    """e[a][b] = eps^(j)_a - eps^(i)_b for the maps TOT(i) -> TOT(j), pair =
    (i, j): Psi_lam f Psi_lam^-1 multiplies the term (a, b, l, z) of f by
    lam^(z + e[a][b]).

    Psi_lam acts on TOT(i) by the ring automorphism Z -> lam Z and scales
    summand s by lam^eps^(i)_s.  It fixes delta, which is Z-free and
    diagonal, and sends K_{i,lam} = (Z - lam) iota_1 to lam (Z - 1) iota_1
    divided by lam, the ratio of the scalings on K_i's block: Psi_lam
    D_{i,lam} Psi_lam^-1 = D_{i,1}.  So it carries the bracket [D_lam, Z^z E]
    to lam^(z + e_E) [D_1, Z^z E], where e_E is the exponent of E's block,
    and the span of null-homotopic maps at lam onto the one at lam = 1.
    """
    i, j = pair
    ei, ej = _PSI_EXPONENTS[i - 1], _PSI_EXPONENTS[j - 1]
    return [[ej[a] - ei[b] for b in range(2)] for a in range(2)]


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


def _representatives(ctx, K):
    """(classes, defects, table): the coefficient terms on the levels _LO,
    _LO + 1 of the four representatives e1~, e2~, t1~, t2~, which must not
    be null-homotopic, and of the nonzero differences between their products
    and R's, which must be, as (name, (i, j), terms); and R's structure
    constants over the stable labels.

    The representatives are explicit 2-periodic maps on the totalised
    resolutions: the identities, and the constants E_11: TOT(1) -> TOT(2)
    and E_00: TOT(2) -> TOT(1).  Each is checked to be a chain map at the
    nodes lam = 0 and 1 of K = [{i: K_i at the node}], which makes it one at
    every lam, as a bracket is affine in lam (`_unit_brackets`)."""
    maps = {
        "e1": (1, 1, identity_elt(ctx, _LO, _HI)),
        "e2": (2, 2, identity_elt(ctx, _LO, _HI)),
        "Te1": (1, 2, iota_elt(ctx, 0, _LO, _HI, (1, 1))),
        "Te2": (2, 1, iota_elt(ctx, 0, _LO, _HI, (0, 0))),
    }
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
                exp_map = WindowHomElt(ctx, 0, _LO, _HI)
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
    classes = [(name, (i, j), vector(f)) for name, (i, j, f) in maps.items()]
    return classes, defects, {(stable[a], stable[b]): v for (a, b), v in ref.items()}


@dataclass
class StableEndoNodes:
    """The stable-endomorphism certificate at one Z-window, which holds at
    every lam at once: the structure constants it certified, and the four
    spans of null-homotopic maps at lam = 1 it tested them against."""

    table: dict  # the structure constants, over the stable labels
    spans: dict  # (i, j) -> the null-homotopic span at lam = 1


def stable_endo_nodes(ctx, zwin=3):
    """Certify the stable endomorphism table of the supersingular modules
    over the field ctx at every lam != 0 at once, with homotopies Z^z E,
    |z| <= zwin; raises ComparisonFailure.  The endo suite builds the nodes
    once per run and reads them at every lambda.

    Only D_i depends on lam, through K_i = (Z - lam) iota_1 = (1 - lam) K_0
    + lam K_1, so each premise is an identity in lam, checked on the nodes
    lam = 0 and 1:
    - D_lam^2 = dga_d(K_lam) + K_lam K_lam (delta^2 = 0), with dga_d affine
      in lam and K_lam K_lam = (1 - lam)^2 K_0 K_0 + lam (1 - lam) (K_0 K_1
      + K_1 K_0) + lam^2 K_1 K_1: it vanishes when dga_d(K_0), dga_d(K_1),
      K_0 K_0, K_1 K_1 and K_0 K_1 + K_1 K_0 do.
    - The representatives are chain maps (`_representatives`).
    - The symmetry Psi_lam of `_psi_exponents` carries [D_lam, E] to
      lam^e_E [D_1, E] for each pair and unit homotopy E, where [D_lam, E] =
      (1 - lam) x0 + lam x1 termwise from the node values of
      `_unit_brackets`.  On the term (a, b, l, z) with k = z + e[a][b],
      lam^k ((1 - lam) x0 + lam x1) = lam^e_E x1 as Laurent polynomials in
      lam iff k = e_E and x0 = x1, or k + 1 = e_E and x0 = 0.  The identity
      gives the pointwise one at every lam != 0, and it is stronger: at
      q = 3, lam^2 = 1 on all of F_3^x.  As Psi_lam(Z^z v) = lam^z Z^z
      Psi_lam(v) and Psi_lam is invertible, Psi_lam(span at lam) = span at
      lam = 1.
    - Every class and product defect v is Psi-homogeneous: its terms share
      z + e[a][b] = k, so Psi_lam(v) = lam^k v, and v is null-homotopic at
      lam iff v lies in the span at lam = 1.  One membership test decides
      every lam.
    The stable-hom dimensions are not computed here: the endo suite reports
    `stable_hom_S`, and a real stable Hom is ROADMAP item 5.
    """
    K = [{i: _koszul(ctx, i, node) for i in (1, 2)} for node in (0, 1)]
    for i in (1, 2):
        k0, k1 = K[0][i], K[1][i]
        if not (
            all(dga_d(k).is_zero() and dga_mul(k, k).is_zero() for k in (k0, k1))
            and dga_mul(k0, k1).add(dga_mul(k1, k0)).is_zero()
        ):
            raise ComparisonFailure(f"D_{i}^2 != 0")
    classes, defects, table = _representatives(ctx, K)
    units = _unit_brackets(ctx)
    for pair, brackets in units.items():
        e = _psi_exponents(pair)
        for (a, b, _), terms in zip(_UNITS, brackets):
            for (a2, b2, _, z), x0, x1 in terms:
                k = z + e[a2][b2] - e[a][b]
                if not (k == 0 and x0 == x1 or k == -1 and not x0):
                    raise ComparisonFailure(
                        f"Z -> lam Z does not carry a bracket of {pair} to lam = 1"
                    )
    # at lam = 1 a bracket is its node-1 value
    spans = {
        pair: _boundary_span(ctx, [{key: x1 for key, _, x1 in t if x1} for t in brackets], zwin)
        for pair, brackets in units.items()
    }

    def null_homotopic(label, pair, vec):
        e = _psi_exponents(pair)
        if len({z + e[a][b] for a, b, _, z in vec}) > 1:
            raise ComparisonFailure(f"{label} is not homogeneous under Z -> lam Z")
        return spans[pair].contains(vec)

    for name, pair, vec in classes:
        if null_homotopic(name, pair, vec):
            raise ComparisonFailure(f"{name} is null-homotopic")
    for name, pair, vec in defects:
        if not null_homotopic(f"product {name}", pair, vec):
            raise ComparisonFailure(f"product {name} disagrees with R")
    return StableEndoNodes(table=table, spans=spans)


def stable_endo_supersingular(nodes, lam_idx):
    """Structure constants of the stable endomorphism algebra of the
    supersingular module at lambda, compared against R: the table of the
    `nodes`, which `stable_endo_nodes` certified at every lam != 0 at once.
    The table reads nothing of the module's regular orbit: it is the same
    for every one."""
    if lam_idx == 0:
        raise ZeroLambda("lambda must be nonzero")
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

