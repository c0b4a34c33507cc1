"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the library's own decomposition path: submodules are
found by enumerating cyclic generators, indecomposable types are recognised by
dimension signatures, and decompositions are found by backtracking search.
"""

from __future__ import annotations

from heckelab.linalg import Span, mat_vec, rank


def brute_force_counts(M):
    """(a1, a2, b1, b2) by exhaustive cyclic-submodule search (dim <= 4)."""
    ctx, n = M.ctx, M.dim

    def all_vecs(k):
        if k == 0:
            yield []
            return
        for rest in all_vecs(k - 1):
            for c in range(ctx.q):
                yield rest + [c]

    subs = {}
    for v in all_vecs(n):
        if all(c == 0 for c in v):
            continue
        gens = [v]
        for g in ("e1", "e2", "T"):
            gens.append(mat_vec(ctx, M.g(g), v))
        gens.append(mat_vec(ctx, M.g("T"), mat_vec(ctx, M.g("e1"), v)))
        gens.append(mat_vec(ctx, M.g("T"), mat_vec(ctx, M.g("e2"), v)))
        span = Span(ctx, n)
        basis = []
        for w in gens:
            if span.add(w):
                basis.append(w)
        key = tuple(tuple(r) for r in span.rows)
        if key not in subs:
            subs[key] = basis

    def signature(basis):
        k = len(basis)
        cols = lambda mat: [mat_vec(ctx, mat, b) for b in basis]
        dim_e1 = rank(ctx, cols(M.g("e1")))
        dim_T = rank(ctx, cols(M.g("T")))
        tm = cols(M.g("T"))
        sp = Span(ctx, n)
        for w in tm:
            sp.add(w)
        top_e1 = 0
        for b in cols(M.g("e1")):
            if sp.add(b):
                top_e1 += 1
        return (k, dim_e1, top_e1, dim_T)

    # signatures of the four indecomposables; decomposable cyclic modules
    # (e.g. chi1 (+) chi2, with T-rank 0) fall through and are discarded
    sig_to_type = {
        (1, 1, 1, 0): "chi1",
        (1, 0, 0, 0): "chi2",
        (2, 1, 1, 1): "Re1",
        (2, 1, 0, 1): "Re2",
    }
    items = []
    for key, basis in subs.items():
        typ = sig_to_type.get(signature(basis))
        if typ:
            items.append((basis, typ))

    best = None

    def search(chosen_span, counts, start):
        nonlocal best
        if best is not None:
            return
        if chosen_span.dim == n:
            best = counts
            return
        for idx in range(start, len(items)):
            basis, typ = items[idx]
            test = chosen_span.copy()
            if all(test.add(b) for b in basis):
                c2 = dict(counts)
                c2[typ] = c2.get(typ, 0) + 1
                search(test, c2, idx)
                if best is not None:
                    return

    search(Span(ctx, n), {}, 0)
    assert best is not None, "no decomposition found by brute force"
    return (
        best.get("chi1", 0),
        best.get("chi2", 0),
        best.get("Re1", 0),
        best.get("Re2", 0),
    )


def random_scrambled_module(ctx, rng, max_dim=6):
    """A random direct sum of indecomposables in a random basis, with its
    multiplicity ground truth."""
    from heckelab.fdmod import std_module
    from heckelab.linalg import inverse

    counts = [0, 0, 0, 0]
    dim = 0
    while True:
        pick = rng.randrange(4)
        add = 1 if pick < 2 else 2
        if dim + add > max_dim:
            break
        counts[pick] += 1
        dim += add
        if dim == max_dim or rng.random() < 0.2:
            break
    if dim == 0:
        counts[0] = 1
    M = std_module(ctx, *counts)
    while True:
        C = [[rng.randrange(ctx.q) for _ in range(M.dim)] for _ in range(M.dim)]
        if inverse(ctx, C) is not None:
            break
    return M.conjugate(C), tuple(counts)


# -- dense oracle for the nodal Laurent ring B = k[X1,X2]/(X1X2)[Z^{+-1}] --
#
# Over a prime field F_p, where a field index is the residue itself, an element
# is a dense array a[z + NODAL_ZW][branch][deg] of integers mod p: branch 0
# holds the constant (deg 0) and the powers of X1, branch 1 the powers of X2
# (its deg-0 slot stays 0).  Arithmetic is plain integer arithmetic mod p over
# every pair of cells; X1 X2 = 0 is the rule that positive degrees on different
# branches multiply to nothing.

NODAL_ZW = 4  # Z exponents -NODAL_ZW .. NODAL_ZW
NODAL_DEG = 6  # X degrees 0 .. NODAL_DEG


def dense_zero():
    return [[[0] * (NODAL_DEG + 1) for _ in range(2)] for _ in range(2 * NODAL_ZW + 1)]


def dense_from_terms(terms):
    """The dense array of a {(z, signed X-degree): c} term map."""
    out = dense_zero()
    for (z, k), c in terms.items():
        out[z + NODAL_ZW][0 if k >= 0 else 1][abs(k)] = c
    return out


def dense_add(p, a, b, sign=1):
    return [
        [[(x + sign * y) % p for x, y in zip(ra, rb)] for ra, rb in zip(za, zb)]
        for za, zb in zip(a, b)
    ]


def dense_scal(p, a, c):
    return [[[(c * x) % p for x in row] for row in za] for za in a]


def dense_mul(p, a, b):
    cells = lambda arr: [
        (z, br, d, x)
        for z, za in enumerate(arr)
        for br, row in enumerate(za)
        for d, x in enumerate(row)
        if x
    ]
    out = dense_zero()
    right = cells(b)
    for z1, b1, d1, x in cells(a):
        for z2, b2, d2, y in right:
            if d1 and d2 and b1 != b2:
                continue  # X1 X2 = 0
            br = b1 if d1 else b2
            z, d = z1 + z2 - NODAL_ZW, d1 + d2
            out[z][br][d] = (out[z][br][d] + x * y) % p
    return out


def dense_mat_mul(p, A, B):
    def entry(i, j):
        return dense_add(p, dense_mul(p, A[i][0], B[0][j]), dense_mul(p, A[i][1], B[1][j]))

    return [[entry(i, j) for j in range(2)] for i in range(2)]


# -- term-by-term Hecke product ---------------------------------------------


def hecke_mul_termwise(x, y):
    """x . y with every pair of basis terms multiplied on its own.

    T_u T_v peels the letters of v = omega^a s_word t from the left: appending
    a new letter is length-additive, repeating the last letter applies the
    quadratic relation T_s^2 = mu T_s sum_{r in alpha^vee(F_q^x)} T_r.  What is
    left of v is omega^a t, of length zero, so T_x T_{omega^a t} = T_{x omega^a t}.
    Torus parts are exponent vectors here: each index is decoded, products add
    exponents mod q-1, and the result is encoded again, so the library's torus
    tables are not read.
    """
    from heckelab.hecke import HeckeElt
    from heckelab.torus import GroupKind, torus_exps, torus_index

    tctx, kind, q = x.tctx, x.kind, x.tctx.q
    fld, n = tctx.field, q - 1
    gl2, pgl2 = kind is GroupKind.GL2, kind is GroupKind.PGL2
    mu = fld.scalar_i(2 if pgl2 else 1)

    def times(e, f):
        return tuple((a + b) % n for a, b in zip(e, f))

    def s0(e):  # conjugation by the finite reflection
        return (e[1], e[0]) if gl2 else (-e[0] % n,)

    # alpha^vee(zeta^c) = diag(zeta^c, zeta^-c), pushed into each torus
    coroots = {(c, -c % n) if gl2 else ((2 if pgl2 else 1) * c % n,) for c in range(n)}

    def acc(terms, w, c):
        terms[w] = fld.add_i(terms.get(w, 0), c)

    out = {}
    for (a, word_u, t_u), cu in x.terms.items():
        for (b, word_v, t_v), cv in y.terms.items():
            current = {(a, word_u, torus_exps(kind, q, t_u)): fld.mul_i(cu, cv)}
            for letter in word_v:
                j = (letter + b) % 2  # omega^b s_i = s_{i+b} omega^b
                nxt = {}
                for (om, word, e), c in current.items():
                    if word and word[-1] == j:
                        for r in coroots:
                            acc(nxt, (om, word, times(r, s0(e))), fld.mul_i(c, mu))
                    else:
                        acc(nxt, (om, word + (j,), s0(e)), c)
                current = nxt
            # x omega^b t_v = omega^(om+b) s_(word flipped b times) t^(s0^b) t_v
            for (om, word, e), c in current.items():
                if b % 2:
                    word, e = tuple(1 - l for l in word), s0(e)
                om = (om + b) % 2 if pgl2 else om + b
                e = times(e, torus_exps(kind, q, t_v))
                acc(out, (om, word, torus_index(kind, q, e)), c)
    return HeckeElt(tctx, kind, out)


# -- pairwise homomorphism check ----------------------------------------------


def pairwise_hom_pairs(mm, Lmax):
    """The pairs (u, v) with len(u) + len(v) <= Lmax of the elements the
    pairwise check multiplied: the torus-free basis elements of length
    <= Lmax (omega powers 0 and 1 where the model has omega), and the first
    eight of them again with torus part (1, 0) (GL2) or (1,)."""
    from heckelab.hecke import weyl
    from heckelab.torus import GroupKind

    kind, q = mm.kind, mm.tctx.q
    omegas = (0, 1) if mm.has_omega() else (0,)
    words = [()] + [
        tuple((s + k) % 2 for k in range(n)) for n in range(1, Lmax + 1) for s in (0, 1)
    ]
    plain = [weyl(kind, q, omega_pow=a, word=w) for w in words for a in omegas]
    exps = (1, 0) if kind is GroupKind.GL2 else (1,)
    elems = plain + [weyl(kind, q, a, w, exps) for a, w, _ in plain[:8]]
    return [(u, v) for u in elems for v in elems if len(u[1]) + len(v[1]) <= Lmax]


def pairwise_hom_holds(mm, Lmax, products):
    """Whether Phi(T_u T_v) == Phi(T_u) Phi(T_v) on every pair of
    `pairwise_hom_pairs`: the O(N^2) check that the generator certificate
    replaced.  `products` memoises T_u T_v by (kind, u, v) across the models
    of one TorusCtx."""
    from heckelab.hecke import hecke_basis, hecke_mul

    tctx, kind = mm.tctx, mm.kind
    for u, v in pairwise_hom_pairs(mm, Lmax):
        prod = products.get((kind, u, v))
        if prod is None:
            prod = products[kind, u, v] = hecke_mul(
                hecke_basis(tctx, kind, u), hecke_basis(tctx, kind, v)
            )
        if mm.image_of_block(prod) != mm.image_of_weyl(u).mul(mm.image_of_weyl(v)):
            return False
    return True


# -- null-homotopic stable endomorphisms ----------------------------------------


def boundary_span_termwise(ctx, i, j, lam_idx, zwin):
    """The span of the boundaries D_j h + h D_i of the 8 (2 zwin + 1)
    homotopies h = Z^z E of degree -1 (E one of the eight unit homotopies, 1 in
    one block at the levels of one parity, |z| <= zwin), each composed on its
    own with `dga_mul`, read on levels 0 and 1 and in the Z-window
    [-(zwin + 1), zwin + 1]: the construction that `fdmod._boundary_span`
    shortens to eight brackets.  D_i = delta + K_i is built here as an
    explicit DGA element, delta with the signs (1, -1) on the tau-flagged
    diagonal blocks and K_i = (Z - lam) in block (0, 1) (i = 1) or (1, 0)
    (i = 2), so agreement also tests dga_d(x) = delta x - (-1)^n x delta."""
    from heckelab.dga import dga_mul, zero_elt
    from heckelab.rings import LaurentPoly

    def differential(k):
        d = zero_elt(ctx, 1, -1, 2)
        koszul = d.blocks[0][1] if k == 1 else d.blocks[1][0]
        for l in range(-1, 3):
            d.blocks[0][0].set(l, LaurentPoly.scalar(ctx, 1))
            d.blocks[1][1].set(l, LaurentPoly.scalar(ctx, ctx.neg_i(1)))
            koszul.set(l, LaurentPoly(ctx, {1: 1, 0: ctx.neg_i(lam_idx)}))
        return d

    Di, Dj = differential(i), differential(j)
    zlo, zhi = -(zwin + 1), zwin + 1
    span = Span(ctx, 8 * (zhi - zlo + 1))
    for a in range(2):
        for b in range(2):
            for parity in range(2):
                for z in range(-zwin, zwin + 1):
                    h = zero_elt(ctx, -1, 0, 2)
                    for l in range(parity, 3, 2):
                        h.blocks[a][b].set(l, LaurentPoly.z(ctx, z))
                    left, right = dga_mul(Dj, h).restrict(0, 1), dga_mul(h, Di).restrict(0, 1)
                    span.add(left.add(right).coeff_vector(zlo, zhi))
    return span


# -- the DGA differential level by level ----------------------------------------


def dga_d_termwise(x):
    """d x = delta x - (-1)^n x delta with every output level assembled from
    `LaurentPoly.scal` and `.add`: (d x)^{ij}_l = eps_i x_l - (-1)^n eps_j
    x_{l+1} on the blocks without tau, reading `dga._EPS` at call time.  This
    is the formula that `dga.dga_d` computes in one pass per level."""
    from heckelab import dga

    ctx, n = x.ctx, x.degree
    out = dga.zero_elt(ctx, n + 1, x.lo, x.hi - 1)
    eps = [ctx.scalar_i(e) for e in dga._EPS]
    sign_n = 1 if n % 2 == 0 else ctx.neg_i(1)
    for i in range(2):
        for j in range(2):
            src = x.blocks[i][j]
            if src.tau:
                continue
            c_l = eps[i]
            c_l1 = ctx.neg_i(ctx.mul_i(sign_n, eps[j]))
            for l in range(x.lo, x.hi):
                out.blocks[i][j].set(l, src.get(l).scal(c_l).add(src.get(l + 1).scal(c_l1)))
    return out


# -- irreducibility over F_p ----------------------------------------------------


def is_irreducible_frobenius(f, p):
    """Monic f over F_p of degree m >= 1 is irreducible iff x^(p^m) = x mod f
    and gcd(f, x^(p^(m/r)) - x) = 1 for every prime r dividing m: the
    criterion that `gf.is_irreducible` replaced by Ben-Or's."""
    from heckelab.gf import _poly_gcd, _poly_powmod, _trim, prime_factors

    m = len(f) - 1
    if m == 1:
        return True

    def frobenius_minus_x(k):
        fr = [0, 1]
        for _ in range(k):
            fr = _poly_powmod(fr, p, f, p)
        diff = fr + [0] * (2 - len(fr))
        diff[1] = (diff[1] - 1) % p
        return _trim(diff)

    if frobenius_minus_x(m):
        return False
    return all(len(_poly_gcd(f, frobenius_minus_x(m // r), p)) == 1 for r in prime_factors(m))


def search_modulus_frobenius(p, m):
    """The first monic irreducible of degree m over F_p in the order of the
    constant-first coefficient tuple (c0, ..., c_{m-1}), by the Frobenius
    criterion."""
    from itertools import product

    return next(
        list(tail) + [1]
        for tail in product(range(p), repeat=m)
        if is_irreducible_frobenius(list(tail) + [1], p)
    )


# -- the parameter map with a chain scheme per module -----------------------------


def correspondence_rows_fresh_scheme(tctx, kind):
    """The rows of `scheme.correspondence_table` with the chain scheme built
    afresh for every module (the cache of `build_scheme` is cleared before
    each parameter is read), as the parameter map did before that cache."""
    from heckelab.hecke import enumerate_supersingular
    from heckelab.scheme import build_scheme, langlands_parameter

    rows = []
    for module in enumerate_supersingular(tctx, kind).modules:
        build_scheme.cache_clear()
        point = langlands_parameter(tctx, kind, module)
        rows.append({"module": module.label(), "point": point.to_obj()})
    return rows
