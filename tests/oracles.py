"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the library's own decomposition path: submodules are
found by enumerating cyclic generators, indecomposable types are recognised by
dimension signatures, and decompositions are found by backtracking search.
"""

from __future__ import annotations

from heckelab.errors import RelationViolation
from heckelab.linalg import (
    Span,
    identity,
    inverse,
    is_zero_mat,
    mat_mul,
    mat_scal,
    mat_sub,
    mat_vec,
    nullspace,
    rank,
    sparse,
)
from heckelab.torus import GroupKind


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
        span = Span(ctx)
        basis = []
        for w in gens:
            if span.add(sparse(w)):
                basis.append(w)
        key = tuple(tuple(r) for r in rref(ctx, dense_rows(span, n))[0])  # the subspace, canonically
        if key not in subs:
            subs[key] = basis

    def signature(basis):
        k = len(basis)
        cols = lambda mat: [mat_vec(ctx, mat, b) for b in basis]
        dim_e1 = rank(ctx, cols(M.g("e1")))
        dim_T = rank(ctx, cols(M.g("T")))
        tm = cols(M.g("T"))
        sp = Span(ctx)
        for w in tm:
            sp.add(sparse(w))
        top_e1 = 0
        for b in cols(M.g("e1")):
            if sp.add(sparse(b)):
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
            if all(test.add(sparse(b)) for b in basis):
                c2 = dict(counts)
                c2[typ] = c2.get(typ, 0) + 1
                search(test, c2, idx)
                if best is not None:
                    return

    search(Span(ctx), {}, 0)
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


def decompose_reference(M):
    """(a1, a2, b1, b2) as `fdmod.decompose` found them before it split each
    side along T with one tagged elimination: `check_relations` first, bases
    V_i of e_i M from the columns of e_i, the T-split of each V_i from the
    Span of its T-images plus a `nullspace`, the complements of T(e_{3-i} M)
    in ker(T|e_i M), and a certificate g_M C = C g_model for all three
    generators."""
    from heckelab.fdmod import GENS, _cols_matrix, _columns, _extend, std_module

    M.check_relations()
    ctx, n = M.ctx, M.dim
    T = M.g("T")

    def split(side_cols):
        """The positions whose T-images are independent of the ones before,
        and a basis of ker(T|V) in M coordinates."""
        images = [mat_vec(ctx, T, c) for c in side_cols]
        span = Span(ctx)
        pivots = [j for j, w in enumerate(images) if span.add(sparse(w))]
        if not side_cols:
            return pivots, []
        ker = nullspace(ctx, _cols_matrix(images, n))
        return pivots, [mat_vec(ctx, _cols_matrix(side_cols, n), c) for c in ker]

    V1 = _extend(ctx, [], _columns(M.g("e1")))
    V2 = _extend(ctx, [], _columns(M.g("e2")))
    piv1, ker1 = split(V1)
    piv2, ker2 = split(V2)
    us = [V1[j] for j in piv1]
    vs = [V2[j] for j in piv2]
    w1 = _extend(ctx, [mat_vec(ctx, T, v) for v in vs], ker1)
    w2 = _extend(ctx, [mat_vec(ctx, T, u) for u in us], ker2)
    cols = w1 + w2 + [w for x in us + vs for w in (x, mat_vec(ctx, T, x))]
    C = _cols_matrix(cols, n)
    model = std_module(ctx, len(w1), len(w2), len(us), len(vs))
    if not (
        len(cols) == n
        and rank(ctx, C) == n
        and all(
            is_zero_mat(mat_sub(ctx, mat_mul(ctx, M.g(g), C), mat_mul(ctx, C, model.g(g))))
            for g in GENS
        )
    ):
        raise RelationViolation("decomposition certificate failed")
    return len(w1), len(w2), len(us), len(vs)


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


def dense_coeff_vector(mat, xdeg, zlo, zhi):
    """The dense coefficient vector of a `Mat2` over a window, truncating what
    lies outside it: entries in the order (0, 0), (0, 1), (1, 0), (1, 1), and
    per entry and Z power from zlo to zhi the constant, X1^1..X1^xdeg, then
    X2^1..X2^xdeg."""
    width = 2 * xdeg + 1
    out = []
    for row in mat.a:
        for entry in row:
            block = [0] * (width * (zhi - zlo + 1))
            for (z, k), c in entry.terms.items():
                if zlo <= z <= zhi and -xdeg <= k <= xdeg:
                    block[(z - zlo) * width + (k if k >= 0 else xdeg - k)] = c
            out.extend(block)
    return out


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


def with_images(mm, images):
    """The model `mm` with other generator images: a `VariantModel` of its
    own, so every check that reads the images runs afresh on it, with the
    orbit, the torus image and the product tables of `mm`, which read no
    image."""
    import dataclasses

    from heckelab.models import ModelMap

    return ModelMap(dataclasses.replace(mm.shape, images=images), mm.orbit, mm.torus)



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
        if mm.image_of_block(prod) != weyl_image_by_product(mm, u).mul(
            weyl_image_by_product(mm, v)
        ):
            return False
    return True


def torus_matrix(mm, t):
    """D(t), the model's torus image at t, as a full `Mat2`: the scalar
    diagonal of the field indices the library compares."""
    from heckelab.rings import Mat2, NodalLaurentPoly

    ctx = mm.field
    a, b = mm.torus.diag[t]
    z = NodalLaurentPoly(ctx)
    return Mat2(
        ctx, [[NodalLaurentPoly.scalar(ctx, a), z], [z, NodalLaurentPoly.scalar(ctx, b)]]
    )


def weyl_image_by_product(mm, w):
    """Phi(T_w) as the word image times the full torus image matrix."""
    omega_pow, word, torus = w
    return mm.shape.word_image(omega_pow, word).mul(torus_matrix(mm, torus))


def matrix_relation_failures(mm):
    """The names of the generator relations that fail on the model, every
    one multiplied out as a `Mat2` identity with the torus images of
    `torus_matrix`: what `models._relation_checks` decides, per name."""
    from heckelab.rings import Mat2
    from heckelab.torus import mu_alpha_order

    ctx, kind, images = mm.field, mm.kind, mm.images
    tab = mm.tctx.torus_table(kind)
    ident = Mat2.identity(ctx)
    failures = []

    def expect(name, cond):
        if not cond:
            failures.append(name)

    if "e1" in images:
        e1, e2 = images["e1"], images["e2"]
        expect("e1+e2=1", e1.add(e2) == ident)
        expect("e1^2=e1", e1.mul(e1) == e1)
        expect("e2^2=e2", e2.mul(e2) == e2)
        expect("e1e2=0", e1.mul(e2).is_zero())
    qsum = Mat2.zero(ctx)
    for t in tab.coroot:
        qsum = qsum.add(torus_matrix(mm, t))
    qsum = qsum.scal(ctx.scalar_i(mu_alpha_order(kind)))
    for name in ("ts0", "ts1"):
        m = images[name]
        expect(f"{name} quadratic", m.mul(m) == m.mul(qsum))
        for t in tab.gens:
            conj = torus_matrix(mm, tab.s0[t]).mul(m)
            expect(f"{name} torus conj", m.mul(torus_matrix(mm, t)) == conj)
    if mm.has_omega():
        tw, twi = images["tw"], images["tw_inv"]
        expect("tw invertible", tw.mul(twi) == ident)
        expect("omega conj s0", tw.mul(images["ts0"]).mul(twi) == images["ts1"])
        for t in tab.gens:
            conj = tw.mul(torus_matrix(mm, t)).mul(twi)
            expect("omega conj torus", conj == torus_matrix(mm, tab.s0[t]))
        tw2 = tw.mul(tw)
        if kind is GroupKind.PGL2:
            expect("tw^2=1", tw2 == ident)
        else:
            expect("tw^2 central scalar", tw2.is_scalar())
    return failures


def verify_model_per_model(mm, Lmax):
    """The block-model certificate of one model on its own, as it ran before
    the checks were shared: every generator relation, every row of the
    generator table evaluated on the model, the character check on the
    model's own diagonal, and independence and the power identities on a
    private copy of the images (`with_images`, so no check kept for the
    variant is read).  The table is built here, product by product, and
    Phi(T_w) is the word image times the full torus image matrix, so neither
    the product-shape certificate nor `image_of_block` is read.  Returns the
    per-model counts {generator_products, character_cases, power_identities},
    or raises VerificationFailure."""
    from heckelab import models
    from heckelab.errors import VerificationFailure
    from heckelab.hecke import hecke_basis, hecke_mul, weyl
    from heckelab.rings import Mat2
    from heckelab.torus import torus_exps, torus_index

    own = with_images(mm, dict(mm.images))
    ctx, kind, q = mm.field, mm.kind, mm.tctx.q
    tab = mm.tctx.torus_table(kind)
    failures = matrix_relation_failures(own)
    if failures:
        raise VerificationFailure(f"{mm.variant}: relation(s) failed: {failures}")

    rows = 0
    for word in models._alternating_words(Lmax):
        x = weyl(kind, q, word=word)
        for g in models._generator_keys(own.shape):
            if len(word) + len(g[1]) > Lmax:
                continue
            prod = hecke_mul(hecke_basis(mm.tctx, kind, x), hecke_basis(mm.tctx, kind, g))
            lhs = Mat2.zero(ctx)
            for w, c in prod.terms.items():
                lhs = lhs.add(weyl_image_by_product(own, w).scal(c))
            if lhs != weyl_image_by_product(own, x).mul(weyl_image_by_product(own, g)):
                raise VerificationFailure(f"{mm.variant}: homomorphism fails on T_x T_g")
            rows += 1
    diag, mul = mm.torus.diag, ctx.mul
    if diag[0] != (1, 1):
        raise VerificationFailure(f"{mm.variant}: torus image of 1 is not the identity")
    for g in tab.gens:
        for t in range(tab.order):
            a, b = diag[t]
            ga, gb = diag[g]
            # t t_i from the exponent vectors, not from the library's group law
            exps = [x + y for x, y in zip(torus_exps(kind, q, t), torus_exps(kind, q, g))]
            if diag[torus_index(kind, q, exps)] != (mul[a][ga], mul[b][gb]):
                raise VerificationFailure(
                    f"{mm.variant}: torus image is not a character at "
                    f"t={torus_exps(kind, q, t)}, t_i={torus_exps(kind, q, g)}"
                )
    if not models._independence_check(own.shape, Lmax):
        raise VerificationFailure(f"{mm.variant}: basis images are linearly dependent")
    return {
        "generator_products": rows,
        "character_cases": 1 + len(tab.gens) * tab.order,
        "power_identities": models._power_identity_checks(own.shape, Lmax),
    }


def ext_group_per_degree(M, N, n):
    """dim Ext^n(M, N) from a resolution of length n + 1 built for this n
    alone, and its own Hom spaces: the per-degree computation that
    `fdmod.ext_group` replaced by one resolution for every degree."""
    from heckelab.fdmod import _unflatten, hom_space, projective_resolution

    ctx = M.ctx
    Ps, ds, _ = projective_resolution(M, n + 1)
    homs = [hom_space(Ps[j], N) for j in range(n + 2)]

    def induced(j):
        """matrix of Hom(P_j, N) -> Hom(P_{j+1}, N), f -> f . d_{j+1}."""
        out_rows = []
        for f in homs[j]:
            fm = _unflatten(f, N.dim, Ps[j].dim)
            if Ps[j].dim and Ps[j + 1].dim:
                comp = mat_mul(ctx, fm, ds[j])
            else:
                comp = [[0] * Ps[j + 1].dim for _ in range(N.dim)]
            out_rows.append([c for row in comp for c in row])
        return out_rows

    if not homs[n]:
        return 0
    cur = induced(n)
    img_prev = induced(n - 1) if n >= 1 else []
    return len(homs[n]) - (rank(ctx, cur) if cur else 0) - (rank(ctx, img_prev) if img_prev else 0)


# -- null-homotopic stable endomorphisms ----------------------------------------


def boundary_span_termwise(ctx, i, j, lam_idx, zwin):
    """The span of the boundaries D_j h + h D_i of the 8 (2 zwin + 1)
    homotopies h = Z^z E of degree -1 (E one of the eight unit homotopies, 1 in
    one block at the levels of one parity, |z| <= zwin), each composed on its
    own with `dga_mul`, read on levels 0 and 1 as `coeff_terms`: the
    construction that `fdmod._boundary_span` shortens to eight brackets.
    D_i = delta + K_i is built here as an explicit DGA element, delta with
    the signs (1, -1) on the tau-flagged diagonal blocks and K_i = (Z - lam)
    in block (0, 1) (i = 1) or (1, 0) (i = 2), so agreement also tests
    dga_d(x) = delta x - (-1)^n x delta."""
    from heckelab.dga import WindowHomElt, dga_mul

    def differential(k):
        a, b = (0, 1) if k == 1 else (1, 0)
        terms = {}
        for l in range(-1, 3):
            terms[(0, 0, l, 0)] = 1
            terms[(1, 1, l, 0)] = ctx.neg_i(1)
            terms[(a, b, l, 1)] = 1
            terms[(a, b, l, 0)] = ctx.neg_i(lam_idx)
        return WindowHomElt(ctx, 1, -1, 2, terms)

    Di, Dj = differential(i), differential(j)
    span = Span(ctx)
    for a in range(2):
        for b in range(2):
            for parity in range(2):
                for z in range(-zwin, zwin + 1):
                    h = WindowHomElt(ctx, -1, 0, 2, {(a, b, l, z): 1 for l in range(parity, 3, 2)})
                    left, right = dga_mul(Dj, h).restrict(0, 1), dga_mul(h, Di).restrict(0, 1)
                    span.add(left.add(right).coeff_terms())
    return span


# -- the DGA on 2x2 blocks of level-indexed Laurent polynomials -------------------
# The reference for the flat term maps of `dga.WindowHomElt`: an element is
# taken apart into blocks[i][j] = {level: {z: c}}, every operation runs block by
# block and level by level on Laurent coefficient maps through the scalar field
# operations, and the result is put back together as a term map.  Tau flags
# come from the block's position and the degree, as the nested form stored them.


def tau_flag(degree, i, j):
    """Block (i, j) carries tau iff it is diagonal in odd degree or
    off-diagonal in even degree."""
    return (degree % 2 == 1) if i == j else (degree % 2 == 0)


def to_blocks(x):
    blocks = [[{} for _ in range(2)] for _ in range(2)]
    for (i, j, l, z), c in x.terms.items():
        blocks[i][j].setdefault(l, {})[z] = c
    return blocks


def from_blocks(ctx, degree, lo, hi, blocks):
    from heckelab.dga import WindowHomElt

    terms = {
        (i, j, l, z): c
        for i in range(2)
        for j in range(2)
        for l, pol in blocks[i][j].items()
        for z, c in pol.items()
    }
    return WindowHomElt(ctx, degree, lo, hi, terms)


def laurent_add(ctx, f, g):
    out = dict(f)
    for z, c in g.items():
        out[z] = ctx.add_i(out.get(z, 0), c)
    return {z: c for z, c in out.items() if c}


def laurent_scal(ctx, f, c):
    return {z: v for z, u in f.items() if (v := ctx.mul_i(c, u))}


def laurent_mul(ctx, f, g):
    out = {}
    for z1, c1 in f.items():
        for z2, c2 in g.items():
            out = laurent_add(ctx, out, {z1 + z2: ctx.mul_i(c1, c2)})
    return out


def dga_d_termwise(x):
    """d x = delta x - (-1)^n x delta with every output level assembled from
    Laurent coefficient maps: (d x)^{ij}_l = eps_i x_l - (-1)^n eps_j x_{l+1}
    on the blocks without tau, for every l in [lo, hi - 1], reading
    `dga._EPS` at call time.  This is the formula that `dga.dga_d` computes
    in one pass over the terms."""
    from heckelab import dga

    ctx, n = x.ctx, x.degree
    eps = [ctx.scalar_i(e) for e in dga._EPS]
    sign_n = 1 if n % 2 == 0 else ctx.neg_i(1)
    src = to_blocks(x)
    out = [[{} for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            if tau_flag(n, i, j):
                continue
            c_l = eps[i]
            c_l1 = ctx.neg_i(ctx.mul_i(sign_n, eps[j]))
            for l in range(x.lo, x.hi):
                here = laurent_scal(ctx, src[i][j].get(l, {}), c_l)
                above = laurent_scal(ctx, src[i][j].get(l + 1, {}), c_l1)
                out[i][j][l] = laurent_add(ctx, here, above)
    return from_blocks(ctx, n + 1, x.lo, x.hi - 1, out)


def dga_mul_blockwise(x, y):
    """x . y on the intersection of y's window with x's shifted by |y|:
    (x y)^{ki}_l = sum_j x^{kj}_{l + |y|} y^{ji}_l, skipping the middle
    summands j whose two blocks both carry tau."""
    ctx = x.ctx
    lo, hi = max(y.lo, x.lo - y.degree), min(y.hi, x.hi - y.degree)
    xb, yb = to_blocks(x), to_blocks(y)
    out = [[{} for _ in range(2)] for _ in range(2)]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                if tau_flag(x.degree, k, j) and tau_flag(y.degree, j, i):
                    continue
                for l in range(lo, hi + 1):
                    prod = laurent_mul(ctx, xb[k][j].get(l + y.degree, {}), yb[j][i].get(l, {}))
                    out[k][i][l] = laurent_add(ctx, out[k][i].get(l, {}), prod)
    return from_blocks(ctx, x.degree + y.degree, lo, hi, out)


def add_blockwise(x, y):
    ctx = x.ctx
    xb, yb = to_blocks(x), to_blocks(y)
    out = [[{} for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for l in range(x.lo, x.hi + 1):
                out[i][j][l] = laurent_add(ctx, xb[i][j].get(l, {}), yb[i][j].get(l, {}))
    return from_blocks(ctx, x.degree, x.lo, x.hi, out)


def scal_blockwise(x, c):
    ctx = x.ctx
    out = [
        [{l: laurent_scal(ctx, pol, c) for l, pol in row[j].items()} for j in range(2)]
        for row in to_blocks(x)
    ]
    return from_blocks(ctx, x.degree, x.lo, x.hi, out)


def restrict_blockwise(x, lo, hi):
    out = [
        [{l: pol for l, pol in row[j].items() if lo <= l <= hi} for j in range(2)]
        for row in to_blocks(x)
    ]
    return from_blocks(x.ctx, x.degree, lo, hi, out)


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


# -- the census one module at a time ----------------------------------------------


def correspondence_table_per_module(tctx, kind, lam_values=None):
    """`scheme.correspondence_table` as a loop over `census.modules`, as it
    was before the census became orbits x lambdas: one `langlands_parameter`
    per module, the fibres of that map, and the nodes crossed with every
    lambda.  A dict keyed like the table's attributes."""
    from heckelab.hecke import enumerate_supersingular
    from heckelab.scheme import build_scheme, langlands_parameter, singular_points

    q = tctx.q
    scheme = build_scheme(kind, q)
    if kind is GroupKind.GL2:
        lams = lam_values if lam_values is not None else [tctx.value_i(e) for e in range(q - 1)]
        census = enumerate_supersingular(tctx, kind, lambdas=lams)
        nodes = singular_points(scheme, gm_values=lams)
    else:
        census = enumerate_supersingular(tctx, kind)
        nodes = singular_points(scheme)
    rows, fibers = [], {}
    for m in census.modules:
        pt = langlands_parameter(tctx, kind, m)
        fibers.setdefault((pt.component, pt.segment, pt.coord, pt.gm), []).append(m)
        rows.append({"module": m.label(), "point": pt.to_obj()})
    out = {
        "rows": rows,
        "module_count": len(census.modules),
        "node_count": len(nodes),
        "image_is_nodes": set(fibers) == {(p.component, p.segment, p.coord, p.gm) for p in nodes},
        "injective": all(len(v) == 1 for v in fibers.values()),
    }
    if kind is GroupKind.SL2:
        partition = sorted(sorted(m.char.restriction.exps[0] for m in v) for v in fibers.values())
        expected = [[(q - 1) // 2]] + [[i, q - 1 - i] for i in range(1, (q - 1) // 2)]
        out["fiber_partition"] = partition
        out["fibers_match_L_packets"] = partition == sorted(sorted(e) for e in expected)
    return out


def census_modules_pass(census):
    """`SupersingModule.check` on every module of `census.modules`, one at a
    time: True when all pass, False at the first RelationViolation."""
    try:
        return all(m.check() for m in census.modules)
    except RelationViolation:
        return False


# -- the defining relations of a supersingular module, multiplied out ----------------


def supersingular_relations_hold(module):
    """Whether `module` satisfies the defining relations of the Hecke algebra,
    multiplied out matrix by matrix: the quadratic relations, T_s rho(t) =
    rho(t^{s0}) T_s, T_omega T_s0 T_omega^-1 = T_s1, T_omega rho(t) T_omega^-1
    = rho(t^{s0}) and T_omega^2 = lambda, the torus relations at the torus
    generators.  This is the generic check that `SupersingModule.check` (a
    check of the module's shape) replaced; unlike that one it accepts any
    module, whatever characters its torus action carries."""
    from heckelab.torus import mu_alpha_order

    fld = module.tctx.field
    kind = module.kind
    tab = module.tctx.torus_table(kind)
    mats, rho = module.mats, module.torus_matrix
    mu = fld.scalar_i(mu_alpha_order(kind))
    acc = [[0] * module.dim for _ in range(module.dim)]
    for t in tab.coroot:
        acc = [[fld.add[a][b] for a, b in zip(ra, rb)] for ra, rb in zip(acc, rho(t))]

    def equal(a, b):
        return is_zero_mat(mat_sub(fld, a, b))

    for name in ("Ts0", "Ts1"):
        ts = mats[name]
        if not equal(mat_mul(fld, ts, ts), mat_mul(fld, ts, mat_scal(fld, mu, acc))):
            return False
        for t in tab.gens:
            if not equal(mat_mul(fld, ts, rho(t)), mat_mul(fld, rho(tab.s0[t]), ts)):
                return False
    if "Tomega" not in mats:
        return True
    om = mats["Tomega"]
    om_inv = inverse(fld, om)
    if om_inv is None:
        return False

    def conj(a):
        return mat_mul(fld, mat_mul(fld, om, a), om_inv)

    return (
        equal(conj(mats["Ts0"]), mats["Ts1"])
        and all(equal(conj(rho(t)), rho(tab.s0[t])) for t in tab.gens)
        and equal(mat_mul(fld, om, om), mat_scal(fld, module.lam_idx, identity(2)))
    )


# -- dense Gaussian elimination, the reference for `linalg` -----------------------


def rref(ctx, rows):
    """Dense Gaussian elimination: a row-reduced copy of `rows` and its pivot
    column list."""
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


# -- incremental row spaces -------------------------------------------------------


class SpanEnumerateScan:
    """Dense incremental row space, the elimination that `linalg.Span` did on
    lists: rows sorted by pivot, each reduced against the rows before it,
    with the leading entry of a reduced vector found by an `enumerate`
    generator."""

    def __init__(self, ctx, ncols):
        self.ctx = ctx
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def _reduce(self, v):
        ctx = self.ctx
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                mf = ctx.mul[ctx.neg[c]]
                for j in range(pc, self.ncols):
                    if row[j]:
                        v[j] = ctx.add[v[j]][mf[row[j]]]
        return v

    def add(self, v):
        ctx = self.ctx
        v = self._reduce(v)
        pc = next((j for j, c in enumerate(v) if c), None)
        if pc is None:
            return False
        inv = ctx.inv[v[pc]]
        if inv != 1:
            mi = ctx.mul[inv]
            v = [mi[c] for c in v]
        at = next((k for k, q in enumerate(self.pivots) if q > pc), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True

    def contains(self, v):
        return not any(self._reduce(v))

    @property
    def dim(self):
        return len(self.rows)


def dense_rows(span, ncols):
    """The rows of a `linalg.Span` of vectors with integer keys below ncols,
    as dense lists, in pivot order."""
    out = []
    for pc in sorted(span.rows):
        row = [0] * ncols
        for j, c in span.rows[pc].items():
            row[j] = c
        out.append(row)
    return out
