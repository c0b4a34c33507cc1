"""Matrix models of the Hecke blocks and structural checks.

Every block of the rank-one algebras acts through an explicit 2x2 matrix model
over one of the rings B, A, k[X,Z^(+-1)], k[X].  Model maps are stored via
their generator images; the image of an arbitrary basis element is the product
of the images along a length-additive factorisation, which is well defined
once the generator relations are verified.

Injectivity of a model map is certified up to a configurable length bound:
the algebras are infinite dimensional, but the basis-image formulas are exact,
so a failure at any bound is a genuine error.

The e2-side images that the block isomorphism does not display explicitly are
derived from conjugation by the omega generator, which normalises everything
in sight.

The generator images depend on the model's variant alone, and a block enters
only through the exponent vectors of the two characters on the diagonal of
the torus image.  So the models of a kind are verified by what they read
(`verify_models`): the certificate that every exponent vector gives a
character, and the class certificate, once per kind; the Hecke products of
the homomorphism table once per kind and presence of omega; and every other
check once per variant, on one orbit of the variant's class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import (
    KindMismatch,
    TruncationTooSmall,
    UnsupportedCharacteristic,
    VerificationFailure,
    WrongRegularity,
)
from .hecke import (
    HeckeElt,
    gen_Tomega,
    generators,
    hecke_basis,
    hecke_mul,
    idempotent,
    is_central,
    orbit_idempotent,
    weyl,
    weyl_obj,
)
from .linalg import Span, add_scaled, mat_mul, mat_scal
from .rings import Mat2, NodalLaurentPoly
from .torus import (
    GroupKind,
    TorusCtx,
    char_value_i,
    coroot,
    coroot_image,
    coroot_pairing,
    lift_character,
    mu_alpha_order,
    orbit_class,
    orbit_counts,
    orbit_list_faults,
    orbit_obj,
    orbit_pair,
    orbit_pairs,
    s0_exps,
    torus_exps,
)

# model variants
GL2_REG = "GL2_REG"
GL2_NONREG = "GL2_NONREG"
PGL2_REG = "PGL2_REG"
PGL2_NONREG = "PGL2_NONREG"
AFF_REG = "AFF_REG"
SL2_REG = "SL2_REG"
SL2_SIGMA = "SL2_SIGMA"
_OMEGA_VARIANTS = (GL2_REG, GL2_NONREG, PGL2_REG, PGL2_NONREG)
_SINGLE_IDEMPOTENT = (GL2_NONREG, PGL2_NONREG, SL2_SIGMA)
# the orbit classes of `orbit_pairs`, each with the variants of its models in
# the order an orbit lists them (the trivial SL2 orbit has no model)
_CLASS_VARIANTS = {
    GroupKind.GL2: {"regular": (GL2_REG, AFF_REG), "trivial": (GL2_NONREG,)},
    GroupKind.PGL2: {"regular": (PGL2_REG,), "trivial": (PGL2_NONREG,)},
    GroupKind.SL2: {"regular": (SL2_REG,), "trivial": (), "sign": (SL2_SIGMA,)},
}


@dataclass(eq=False)
class VariantModel:
    """The generator images of one model variant over one TorusCtx, and the
    word images W(a, word) = tw^a ts_word derived from them (`word_cache`).
    The models suite builds one per variant; a lone `build_model` builds its
    own."""

    kind: GroupKind
    variant: str
    tctx: TorusCtx
    images: dict

    def __post_init__(self):
        self.word_cache = {}

    @property
    def field(self):
        return self.tctx.field

    def has_omega(self):
        return self.variant in _OMEGA_VARIANTS

    def word_image(self, omega_pow, word):
        key = (omega_pow, word)
        cached = self.word_cache.get(key)
        if cached is not None:
            return cached
        if word:
            head = self.word_image(omega_pow, word[:-1])
            out = head.mul(self.images["ts0" if word[-1] == 0 else "ts1"])
        elif omega_pow:
            if not self.has_omega():
                raise KindMismatch(f"{self.variant} has no omega generator")
            step = 1 if omega_pow > 0 else -1
            head = self.word_image(omega_pow - step, ())
            out = head.mul(self.images["tw" if step > 0 else "tw_inv"])
        else:
            out = Mat2.identity(self.field)
        self.word_cache[key] = out
        return out

    def image_of_torus_free(self, x: HeckeElt):
        """sum_w c_w W(w) over the terms of x, all of torus part 1: the image
        of x in every model of the variant whose torus image has D(1) = 1."""
        images = (
            (self.word_image(omega_pow, word), c, c) for (omega_pow, word, _), c in x.terms.items()
        )
        return Mat2.sum_scal_cols(self.field, images)

    def idempotent_side_image(self, member_index, w):
        """Image of e_xi T_w for a torus-free w, where xi is the rep (0) or
        its twist (1)."""
        base = self.word_image(w[0], w[1])
        if self.variant in _SINGLE_IDEMPOTENT:
            return base
        e = self.images["e1"] if member_index == 0 else self.images["e2"]
        return e.mul(base)


class ModelMap:
    """A block model: its variant's `VariantModel` (`shape`), its orbit as the
    exponent pair (xi, xi^{s0}) (`pair`), and the exponent vectors (xi, xi')
    of the characters of its diagonal torus image (`characters`): the pair,
    or (xi, xi) for the single-idempotent variants."""

    def __init__(self, shape: VariantModel, pair):
        xi, xi_tw = pair
        self.shape, self.pair = shape, pair
        self.characters = (xi, xi) if shape.variant in _SINGLE_IDEMPOTENT else (xi, xi_tw)

    variant = property(lambda self: self.shape.variant)
    kind = property(lambda self: self.shape.kind)
    tctx = property(lambda self: self.shape.tctx)
    images = property(lambda self: self.shape.images)
    field = property(lambda self: self.shape.field)

    def has_omega(self):
        return self.shape.has_omega()

    def image_of_block(self, x: HeckeElt):
        """Image of e_gamma . x for a Hecke element x.

        Torus images are constant diagonal matrices, so the terms of x that
        share a torus-free part collapse to one column scaling:
        sum_t c_t Phi(T_{w t}) = Phi(T_w) . diag(sum_t c_t xi(t), sum_t c_t xi'(t)).
        The scaled word images are accumulated entrywise.
        """
        add, mul = self.field.add, self.field.mul
        tctx, kind, (xi, xi_tw) = self.tctx, self.kind, self.characters
        sums = {}
        for (omega_pow, word, t), c in x.terms.items():
            a, b = char_value_i(tctx, kind, xi, t), char_value_i(tctx, kind, xi_tw, t)
            key = (omega_pow, word)
            sa, sb = sums.get(key, (0, 0))
            sums[key] = (add[sa][mul[c][a]], add[sb][mul[c][b]])
        images = (
            (self.shape.word_image(omega_pow, word), sa, sb)
            for (omega_pow, word), (sa, sb) in sums.items()
        )
        return Mat2.sum_scal_cols(self.field, images)


def _mono(ctx, branch, k, zexp=0, coeff=1):
    return NodalLaurentPoly.mono(ctx, branch, k, zexp, coeff)


def _zero(ctx):
    return NodalLaurentPoly(ctx)


def _sc(ctx, c):
    return NodalLaurentPoly.scalar(ctx, c)


def _variant_of(kind, pair, q, affine=False):
    """The model variant of the block of the orbit listed as `pair`
    (`build_model`), by the orbit's class."""
    cls = orbit_class(kind, q, pair[0])
    regular = cls == "regular"
    if kind is GroupKind.GL2:
        if affine:
            if not regular:
                raise WrongRegularity("affine model requires a regular GL2 orbit")
            return AFF_REG
        return GL2_REG if regular else GL2_NONREG
    if kind is GroupKind.PGL2:
        if q % 2 == 0:
            raise UnsupportedCharacteristic("PGL2 models require p > 2")
        return PGL2_REG if regular else PGL2_NONREG
    if kind is GroupKind.SL2:
        if regular:
            return SL2_REG
        if cls == "sign":
            return SL2_SIGMA
        raise WrongRegularity("no matrix model for the trivial SL2 orbit")
    raise KindMismatch(f"no model for {kind} / affine={affine}")


def build_model(kind, pair, tctx, affine=False):
    """The displayed matrix model of the block of the orbit listed as the
    exponent pair `pair` = (xi, xi^{s0}), on its own.

    GL2 regular blocks map onto M2(B); GL2 non-regular blocks embed into
    M2(k[X,Z^(+-1)]); PGL2 uses the Z = 1 specialisations; the affine flag (or
    kind SL2) selects the omega-free model into M2(A).  The pair selects the
    variant and the characters of the torus image; the generator images
    depend on the variant alone.  The model's `VariantModel` is its own.
    """
    variant = _variant_of(kind, pair, tctx.q, affine)
    return ModelMap(VariantModel(kind, variant, tctx, _variant_images(tctx, variant)), pair)


def _variant_images(tctx, variant):
    """The generator images of a model variant: they depend on the variant
    and the field alone."""
    ctx = tctx.field
    one = _sc(ctx, 1)
    m_one = _sc(ctx, ctx.neg_i(1))
    z0 = _zero(ctx)
    idempotents = {
        "e1": Mat2(ctx, [[one, z0], [z0, z0]]),
        "e2": Mat2(ctx, [[z0, z0], [z0, one]]),
    }
    if variant == GL2_REG:
        return {
            **idempotents,
            "tw": Mat2(ctx, [[z0, NodalLaurentPoly.z_power(ctx, 1)], [one, z0]]),
            "tw_inv": Mat2(ctx, [[z0, one], [NodalLaurentPoly.z_power(ctx, -1), z0]]),
            "ts0": Mat2(ctx, [[z0, _mono(ctx, 1, 1)], [_mono(ctx, 2, 1, zexp=-1), z0]]),
            "ts1": Mat2(ctx, [[z0, _mono(ctx, 2, 1)], [_mono(ctx, 1, 1, zexp=-1), z0]]),
        }
    if variant == GL2_NONREG:
        x = _mono(ctx, 1, 1)
        x2_minus_z = _mono(ctx, 1, 2).sub(NodalLaurentPoly.z_power(ctx, 1))
        tw = Mat2(ctx, [[x, x2_minus_z], [m_one, x.neg()]])
        tw_inv = Mat2(
            ctx,
            [
                [_mono(ctx, 1, 1, zexp=-1), _mono(ctx, 1, 2, zexp=-1).sub(one)],
                [NodalLaurentPoly.z_power(ctx, -1).neg(), _mono(ctx, 1, 1, zexp=-1).neg()],
            ],
        )
        ts0 = Mat2(ctx, [[z0, z0], [z0, m_one]])
        return {"tw": tw, "tw_inv": tw_inv, "ts0": ts0, "ts1": tw.mul(ts0).mul(tw_inv)}
    if variant == PGL2_REG:
        return {
            **idempotents,
            "tw": Mat2(ctx, [[z0, one], [one, z0]]),
            "tw_inv": Mat2(ctx, [[z0, one], [one, z0]]),
            "ts0": Mat2(ctx, [[z0, _mono(ctx, 1, 1)], [_mono(ctx, 2, 1), z0]]),
            "ts1": Mat2(ctx, [[z0, _mono(ctx, 2, 1)], [_mono(ctx, 1, 1), z0]]),
        }
    if variant == PGL2_NONREG:
        x = _mono(ctx, 1, 1)
        x2_minus_1 = _mono(ctx, 1, 2).sub(one)
        tw = Mat2(ctx, [[x, x2_minus_1], [m_one, x.neg()]])
        ts0 = Mat2(ctx, [[z0, z0], [z0, m_one]])
        return {"tw": tw, "tw_inv": tw, "ts0": ts0, "ts1": tw.mul(ts0).mul(tw)}
    # omega-free models into M2(A)
    reflections = {
        "ts0": Mat2(ctx, [[z0, _mono(ctx, 1, 1)], [_mono(ctx, 2, 1), z0]]),
        "ts1": Mat2(ctx, [[z0, _mono(ctx, 2, 1)], [_mono(ctx, 1, 1), z0]]),
    }
    return reflections if variant == SL2_SIGMA else {**idempotents, **reflections}


# ---------------------------------------------------------------------------
# verification


def _alternating_words(max_len):
    out = [()]
    for n in range(1, max_len + 1):
        for start in (0, 1):
            out.append(tuple((start + k) % 2 for k in range(n)))
    return out


def _basis_words(shape, max_len, omega_window=None):
    """Torus-free basis elements of bounded length (with omega variants)."""
    kind, q = shape.kind, shape.tctx.q
    omegas = (omega_window or [0, 1]) if shape.has_omega() else [0]
    return [weyl(kind, q, omega_pow=a, word=w) for w in _alternating_words(max_len) for a in omegas]


def _conjugation_entries(images):
    """(relation, i, j) per nonzero entry (i, j) of ts0, ts1 and tw (`_relation_checks`)."""
    relations = {"ts0": "ts0 torus conj", "ts1": "ts1 torus conj", "tw": "omega conj torus"}
    return [
        (relation, i, j)
        for name, relation in relations.items()
        if name in images  # tw: the variants with omega
        for i, row in enumerate(images[name].a)
        for j, entry in enumerate(row)
        if not entry.is_zero()
    ]


def _relation_checks(mm, sums):
    """Generator relations as exact matrix identities, names of the failing
    ones: those that read no torus image (the idempotents, tw tw^-1 = 1,
    tw ts0 tw^-1 = ts1 and tw^2: 1 for PGL2, a central scalar for GL2), then
    the quadratic relations and torus conjugation by ts0, ts1 and tw, which
    read the torus image D(t) = diag(xi_0(t), xi_1(t)) through the exponent
    vectors of `ModelMap.characters` alone, by (c) of `_hom_check`.

    (m D(t))_ij = m_ij xi_j(t) and (D(t^{s0}) m)_ij = xi_i(t^{s0}) m_ij, so
    m D(t) = D(t^{s0}) m for every t iff xi_j == xi_i.s0_twist() on every
    nonzero entry (i, j) of m (nonzero scalars keep model-ring entries
    nonzero); for m = tw it is tw D(t) tw^-1 = D(t^{s0}) once tw has the
    inverse tw^-1 ("tw invertible": a right inverse over a commutative ring
    is an inverse).  The quadratic relation reads the coroot sum of xi_i
    (`sums`, from `_characters_certified`).
    """
    ctx, kind, q, images = mm.field, mm.kind, mm.tctx.q, mm.images
    ident = Mat2.identity(ctx)
    checks = []
    if "e1" in images:
        e1, e2 = images["e1"], images["e2"]
        checks += [
            ("e1+e2=1", e1.add(e2) == ident),
            ("e1^2=e1", e1.mul(e1) == e1),
            ("e2^2=e2", e2.mul(e2) == e2),
            ("e1e2=0", e1.mul(e2).is_zero()),
        ]
    if mm.has_omega():
        tw, twi = images["tw"], images["tw_inv"]
        tw2 = tw.mul(tw)
        checks += [
            ("tw invertible", tw.mul(twi) == ident),
            ("omega conj s0", tw.mul(images["ts0"]).mul(twi) == images["ts1"]),
            ("tw^2=1", tw2 == ident)
            if kind is GroupKind.PGL2
            else ("tw^2 central scalar", tw2.is_scalar()),
        ]
    failures = [name for name, holds in checks if not holds]
    chars = mm.characters
    mu = ctx.mul[ctx.scalar_i(mu_alpha_order(kind))]
    sa, sb = (mu[sums[coroot_pairing(kind, q, xi)]] for xi in chars)
    for name in ("ts0", "ts1"):
        if images[name].mul(images[name]) != images[name].scal_cols(sa, sb):
            failures.append(f"{name} quadratic")
    twists = [s0_exps(kind, q, xi) for xi in chars]
    for relation, i, j in _conjugation_entries(images):
        if chars[j] != twists[i] and relation not in failures:
            failures.append(relation)
    return failures


def _independence_check(shape, Lmax):
    """Images of e_xi T_w, len(w) <= Lmax, are linearly independent (w
    torus-free: one check per variant)."""
    window = [-1, 0, 1, 2] if shape.variant in (GL2_REG, GL2_NONREG) else None
    words = _basis_words(shape, Lmax, omega_window=window)
    sides = [0] if shape.variant in _SINGLE_IDEMPOTENT else [0, 1]
    span = Span(shape.field)
    images = (shape.idempotent_side_image(s, w) for w in words for s in sides)
    return all(span.add(m.coeff_terms()) for m in images)


def _generator_keys(shape):
    """Term keys of the generators of the model's algebra: those of
    `hecke.generators`, without T_omega for the omega-free models, and with
    T_omega^-1 added for GL2 (for PGL2 it is T_omega)."""
    keys = [w for _, g in generators(shape.tctx, shape.kind) for w in g.terms]
    if not shape.has_omega():
        return [w for w in keys if not w[0]]
    if shape.kind is GroupKind.GL2:
        keys.append(weyl(shape.kind, shape.tctx.q, omega_pow=-1))
    return keys


def _product_shape(tctx, kind, x, g):
    """The terms that T_x T_g must have when the row (x, g) of the generator
    table reaches the torus, or None for the other rows: T_{x t_i} for a
    torus generator g = T_ti, and T_x c_s = mu_alpha sum_{r in alpha^vee} T_{x r}
    for g = T_s with x ending in s (the quadratic relation)."""
    word = x[1]
    _, g_word, t = g
    if t:
        return {(0, word, t): 1}
    if word and g_word == (word[-1],):
        mu = tctx.field.scalar_i(mu_alpha_order(kind))
        return {(0, word, r): mu for r in coroot_image(kind, tctx.q)}
    return None


def _torus_free(x: HeckeElt):
    return not any(t for _, _, t in x.terms)


def _generator_products(shape, Lmax):
    """The generator table of `_hom_check`, certified on the Hecke side:
    T_x T_g for the generators g of `_generator_keys` and the torus-free,
    omega-free x = s_word with len(x) + len(g) <= Lmax.

    A row of one of the two shapes of `_product_shape` must give exactly that
    product, and every other row a product without torus part.  Returns (the
    other rows [(x, g, T_x T_g)], {"generator_products": the shape rows}).
    The products depend on the kind, on whether the model has omega and on
    Lmax, and on no model: `verify_models` certifies one table per kind and
    presence of omega and hands it to every variant that reads it.
    """
    tctx, kind = shape.tctx, shape.kind
    free, shaped = [], 0
    gens = _generator_keys(shape)
    for x in (weyl(kind, tctx.q, word=w) for w in _alternating_words(Lmax)):
        for g in gens:
            if len(x[1]) + len(g[1]) > Lmax:
                continue
            prod = hecke_mul(hecke_basis(tctx, kind, x), hecke_basis(tctx, kind, g))
            want = _product_shape(tctx, kind, x, g)
            if want is None and _torus_free(prod):
                free.append((x, g, prod))
            elif prod.terms == want:
                shaped += 1
            else:
                raise VerificationFailure(
                    f"product T_x T_g is not of its shape at "
                    f"x={weyl_obj(kind, tctx.q, x)}, g={weyl_obj(kind, tctx.q, g)}"
                )
    return free, {"generator_products": shaped}


def _characters_certified(tctx, kind):
    """(c) of `_hom_check`, once per kind: the zeta table
    (`TorusCtx.zeta_fault`) and the coroot image.  Returns ([sum_{c < |coroot
    image|} zeta^(k c) for k mod q - 1], {"character_cases": the zeta steps
    and coroot elements walked})."""
    q, n = tctx.q, tctx.q - 1
    fault = tctx.zeta_fault()
    if fault:
        raise VerificationFailure(fault)
    image, on_coroot = coroot_image(kind, q), torus_exps(kind, q, coroot(kind, q, 1))
    for c, r in enumerate(image):
        if torus_exps(kind, q, r) != tuple(c * a % n for a in on_coroot):
            raise VerificationFailure(f"coroot image is not alpha^vee(zeta)^c at c={c}")
    zeta, add = [tctx.value_i(a) for a in range(n)], tctx.field.add
    sums = [0] * n
    for k, c in product(range(n), range(len(image))):
        sums[k] = add[sums[k]][zeta[k * c % n]]
    return sums, {"character_cases": n + len(image)}


def _torus_free_rows(shape, rows):
    """(b) of `_hom_check`: G(x, g) on the rows of the generator table
    without torus part; returns their number."""
    for x, g, prod in rows:
        lhs = shape.image_of_torus_free(prod)
        if lhs != shape.word_image(x[0], x[1]).mul(shape.word_image(g[0], g[1])):
            raise VerificationFailure(
                f"homomorphism fails on T_x T_g with "
                f"x={weyl_obj(shape.kind, shape.tctx.q, x)}, "
                f"g={weyl_obj(shape.kind, shape.tctx.q, g)}"
            )
    return len(rows)


def _hom_check(mm, Lmax, products=None):
    """Certify Phi(T_u T_v) = Phi(T_u) Phi(T_v) for all basis elements u, v
    with len(u) + len(v) <= Lmax, whatever their torus parts and omega powers,
    given (c) and the relations.  `products` is the table of (a), or the
    VerificationFailure that certifying it raised; without it the table is
    certified here.  Returns (the product-shape report, the number of rows
    of (b)).

    Phi(T_w) = W(a, word) D(t) for w = omega^a s_word t, with
    W(a, word) = tw^a ts_word the product of the generator images along
    omega^a s_word (`VariantModel.word_image`) and D(t) = diag(xi(t), xi'(t))
    the diagonal torus image of the model's characters, xi(t) =
    zeta^<exps(t), xi> (`torus.char_value_i`); Phi is extended linearly
    (`image_of_block`).  Write G(x, g) for Phi(T_x T_g) = Phi(T_x) Phi(T_g).
    The generator table is the rows (x, g) for every generator g of
    `_generator_keys` (T_s0, T_s1, the torus generators T_ti, and
    T_omega^(+-1) where the model has omega) and every x = s_word, torus-free
    and of omega power 0, with len(x) <= Lmax - len(g): Lmax - 1 for the
    reflections, Lmax for the others.  Three certificates are read:

    (a) the products T_x T_g, on the Hecke side (`_generator_products`),
        which read no model: a torus-generator row gives T_{x t_i},
        a quadratic row (g = T_s, x ending in s) gives T_x c_s with
        c_s = mu_alpha sum_{r in alpha^vee} T_r, and every other row gives a
        product without torus part;
    (b) G(x, g) on the rows of (a) without torus part, here
        (`_torus_free_rows`): x, g and T_x T_g are torus-free, so the image of
        T_x T_g is sum c_w W(w) D(1) = sum c_w W(w) by (c), and
        Phi(T_x) Phi(T_g) = W(x) W(g); both read no character;
    (c) by `verify_model` (`_characters_certified`), which reads no model:
        zeta^a is a homomorphism Z/(q-1) -> F^x of exact order q - 1, and
        the coroot image lists alpha^vee(zeta)^c in order.  The group law
        of T is exponent addition (`torus.torus_mul`) and t -> t^{s0} is
        `s0_exps`, a swap or a negation, by definition.
        So for every exponent vector xi: xi(1) = 1 and xi(t t_i) =
        xi(t) xi(t_i), the pairing <exps(t), xi> being bilinear, and D is
        multiplicative on T, which the t_i generate; xi o s0 has exponents
        s0_exps(xi), as <s0(t), xi> = <t, s0(xi)> for a swap or a negation;
        unequal exponents give unequal characters, and xi sums over the
        coroot image to the coroot sum of zeta^k = xi(alpha^vee(zeta)).

    Step 1, the table.  (b) gives G on the torus-free rows.  On a
    torus-generator row, Phi(T_{x t_i}) = W(x) D(t_i) is the definition of
    Phi, and so is Phi(T_x) Phi(T_ti) = W(x) D(1) D(t_i), by (c).  On a
    quadratic row, x = x' s and W(x) = W(x') ts, where ts is the image of
    T_s; with D(r) = diag(a_r, b_r),
        Phi(T_x c_s) = W(x) diag(mu sum a_r, mu sum b_r)
                     = W(x') ts diag(mu sum a_r, mu sum b_r) = W(x') ts ts,
    by the quadratic relation of `_relation_checks`, and
    W(x') ts ts = W(x) ts = Phi(T_x) Phi(T_s).  By (a) there are no other
    rows, so G holds on the whole table for every model that passes
    `_relation_checks`.

    Step 2, torus parts.  `_relation_checks` decides, for every t in T by
    (c), Phi(T_s) D(t) = D(t^s0) Phi(T_s) for s = s0, s1 and
    tw D(t) tw^-1 = D(t^s0).  Let x = x0 t with x0 in the range of the
    table.  For g = T_ti, T_x T_g = T_{x0 (t t_i)}, and G(x, g) is (c)
    whatever x0 is.  For the other g, T_t T_g = T_g T_{t^s0} (s0, s1 and
    omega all act on T by s0), and right multiplication by T_t' only
    multiplies torus parts by t', on which D is multiplicative, so
        Phi(T_x T_g) = Phi(T_x0 T_g) D(t^s0) = Phi(T_x0) Phi(T_g) D(t^s0)   [Step 1]
                     = Phi(T_x0) D(t) Phi(T_g) = Phi(T_x) Phi(T_g).

    Step 3, omega on the left.  T_omega^k T_w = T_w'' with
    w'' = omega^(a+k) s_word t, and W(a + k, word) = tw^k W(a, word) for every
    integer k, because `_relation_checks` verifies tw tw^-1 = 1 (and
    tw^2 = 1 for PGL2, whose omega powers are taken mod 2).  So
    Phi(T_omega^k y) = tw^k Phi(y) for every y, and the identity for u
    follows from the identity for omega^-a u: take omega(u) = 0.

    Step 4, omega powers of v (GL2).  T_omega^2 is central in H, of length 0,
    and tw^2 is a scalar matrix (`_relation_checks`).  For v = omega^2k v1,
    Step 3 gives Phi(T_u T_v) = tw^2k Phi(T_u T_v1) and
    Phi(T_v) = tw^2k Phi(T_v1), so the identity for v1 gives it for v: take
    omega(v) = b in {0, 1}.

    Step 5, induction on v.  As omega^b s_word = s_word' omega^b (word' is
    word with s0 and s1 swapped b times), T_v = T_sj1 ... T_sjn T_omega^b
    T_t1' ... T_tk' is a length-additive product of generators: the
    reflections, then T_omega if b = 1, then torus generators.  Induct on the
    number of factors, the base T_v = 1 being Phi(1) = 1.  With T_v = T_v' T_g,
        Phi(T_u T_v) = Phi((T_u T_v') T_g) = Phi(T_u T_v') Phi(T_g)   [G on supp(T_u T_v')]
                     = Phi(T_u) Phi(T_v') Phi(T_g)                  [induction]
                     = Phi(T_u) Phi(T_v)                            [G(v', g)].
    For a reflection or T_omega, v' is a word s_j1 ... with no omega and no
    torus part, so every x in supp(T_u T_v') has omega power 0 and
    len(x) <= len(u) + len(v') <= Lmax - len(g), and v' lies in the same
    range: Step 2 gives G there from the table.  For g = T_ti, Step 2 gives G
    from (c) alone.  This is exactly the range of the table; the induction
    does not use T_omega^-1, whose row in (b) ties the images at omega power
    -1, which the independence check reads, to the generator images directly.
    """
    try:
        table = _generator_products(mm.shape, Lmax) if products is None else products
        if isinstance(table, VerificationFailure):
            raise table
        rows, shapes = table
        return shapes, _torus_free_rows(mm.shape, rows)
    except VerificationFailure as exc:
        raise VerificationFailure(f"{mm.variant}: {exc}") from None


def _power_identity_checks(shape, Lmax):
    """The displayed closed-form power identities of the variant's images
    (torus-free: one check per variant)."""
    ctx = shape.field
    kind, q = shape.kind, shape.tctx.q
    tctx = shape.tctx
    checked = 0
    if shape.variant == GL2_REG:
        # (e1 T_{s_i omega})^n = e1 T_{w_{i,n} omega^n}, image X_i^n in the corner
        for i, branch in ((0, 1), (1, 2)):
            # s_i omega in normal form is omega . s_{1-i}
            h = hecke_basis(tctx, kind, weyl(kind, q, omega_pow=1, word=(1 - i,)))
            power = hecke_basis(tctx, kind, weyl(kind, q))
            for n in range(1, Lmax + 1):
                power = hecke_mul(power, h)
                if len(power.terms) != 1:
                    raise VerificationFailure("span identity: power is not a single basis element")
                (wp, cp), = power.terms.items()
                if cp != 1 or wp[0] != n or len(wp[1]) != n or wp[2]:
                    raise VerificationFailure(f"span identity fails at n={n}, i={i}")
                img = shape.images["e1"].mul(shape.word_image(wp[0], wp[1]))
                want = Mat2(
                    ctx,
                    [
                        [_mono(ctx, branch, n), _zero(ctx)],
                        [_zero(ctx), _zero(ctx)],
                    ],
                )
                if img != want:
                    raise VerificationFailure(f"span identity image fails at n={n}, i={i}")
                checked += 1
    if shape.variant in (AFF_REG, SL2_REG, SL2_SIGMA):
        t0, t1 = shape.images["ts0"], shape.images["ts1"]
        for m in range(1, Lmax // 2 + 1):
            d01 = t0.mul(t1).power(m)
            d10 = t1.mul(t0).power(m)
            w01 = Mat2(ctx, [[_mono(ctx, 1, 2 * m), _zero(ctx)], [_zero(ctx), _mono(ctx, 2, 2 * m)]])
            w10 = Mat2(ctx, [[_mono(ctx, 2, 2 * m), _zero(ctx)], [_zero(ctx), _mono(ctx, 1, 2 * m)]])
            odd0 = t0.mul(t1.mul(t0).power(m))
            w_odd0 = Mat2(
                ctx,
                [[_zero(ctx), _mono(ctx, 1, 2 * m + 1)], [_mono(ctx, 2, 2 * m + 1), _zero(ctx)]],
            )
            odd1 = t1.mul(t0.mul(t1).power(m))
            w_odd1 = Mat2(
                ctx,
                [[_zero(ctx), _mono(ctx, 2, 2 * m + 1)], [_mono(ctx, 1, 2 * m + 1), _zero(ctx)]],
            )
            for got, want, tag in ((d01, w01, "(T0T1)^m"), (d10, w10, "(T1T0)^m"),
                                   (odd0, w_odd0, "T0(T1T0)^m"), (odd1, w_odd1, "T1(T0T1)^m")):
                if got != want:
                    raise VerificationFailure(f"affine power identity {tag} fails at m={m}")
                checked += 1
    if shape.variant == PGL2_NONREG:
        tw, ts0 = shape.images["tw"], shape.images["ts0"]
        a = tw.mul(ts0)
        b = ts0.mul(tw)
        neg1 = ctx.neg_i(1)

        def xpow(n, coeff=1):
            return _mono(ctx, 1, n, coeff=coeff) if n > 0 else _sc(ctx, coeff if n == 0 else 0)

        for n in range(1, Lmax + 1):
            want_a = Mat2(
                ctx,
                [
                    [_zero(ctx), xpow(n + 1, neg1).add(xpow(n - 1))],
                    [_zero(ctx), xpow(n)],
                ],
            )
            if a.power(n) != want_a:
                raise VerificationFailure(f"PGL2 basis-image formula (T_w T_s0)^n fails at n={n}")
            want_b = Mat2(
                ctx,
                [[_zero(ctx), _zero(ctx)], [xpow(n - 1), xpow(n)]],
            )
            if b.power(n) != want_b:
                raise VerificationFailure(f"PGL2 basis-image formula (T_s0 T_w)^n fails at n={n}")
            want_c = Mat2(ctx, [[_zero(ctx), _zero(ctx)], [_zero(ctx), xpow(n - 1, neg1)]])
            if ts0.mul(a.power(n - 1)) != want_c:
                raise VerificationFailure(f"PGL2 formula T_s0 (T_w T_s0)^(n-1) fails at n={n}")
            top = xpow(n)
            if n >= 2:
                top = top.sub(xpow(n - 2))
            want_d = Mat2(
                ctx,
                [
                    [top, xpow(n + 1).add(xpow(n - 1, neg1))],
                    [xpow(n - 1, neg1), xpow(n, neg1)],
                ],
            )
            if tw.mul(b.power(n - 1)) != want_d:
                raise VerificationFailure(f"PGL2 formula T_w (T_s0 T_w)^(n-1) fails at n={n}")
            checked += 4
    return checked


def verify_model(mm: ModelMap, Lmax=6, certificate=None, products=None):
    """Relation, homomorphism, independence and power-identity checks of one
    model.  `certificate` is its kind's `_characters_certified`, `products`
    the `_generator_products` table of its kind and presence of omega, or the
    VerificationFailure that certifying it raised; a lone model certifies
    both itself.  Raises VerificationFailure with the first counterexample;
    returns a report otherwise, with the reports of the table
    (`product_shapes`) and the certificate (`character_checks`) it read."""
    try:
        sums, characters = certificate or _characters_certified(mm.tctx, mm.kind)
    except VerificationFailure as exc:
        raise VerificationFailure(f"{mm.variant}: {exc}") from None
    failures = _relation_checks(mm, sums)
    if failures:
        raise VerificationFailure(f"{mm.variant}: relation(s) failed: {failures}")
    shapes, rows = _hom_check(mm, Lmax, products)
    if not _independence_check(mm.shape, Lmax):
        raise VerificationFailure(f"{mm.variant}: basis images are linearly dependent")
    return {
        "variant": mm.variant,
        "orbit": orbit_obj(mm.kind, mm.tctx.q, mm.pair),
        "Lmax": Lmax,
        "product_shapes": shapes,
        "character_checks": characters,
        "exponent_comparisons": len(_conjugation_entries(mm.images)),
        "variant_checks": {
            "generator_products": rows,
            "independent_images": True,
            "power_identities": _power_identity_checks(mm.shape, Lmax),
        },
        "pass": True,
    }


def _class_facts(kind, q, listed, sums):
    """The class certificate over `listed`, the class lists of `orbit_pairs`
    and their list certificate: ({class: the indices of the pairs that its
    first pair does not stand for}, the number of pairs of the classes with a
    model).

    The lists must hold each class's orbits once (`orbit_list_faults`, the
    list certificate, which also says which pairs are an orbit of the list's
    class listed as (x, s0(x)) from its smallest member); otherwise it raises
    VerificationFailure.  `_relation_checks` reads the characters (x, y) of a
    listed pair, or (x, x) for the single-idempotent variants, only through
    whether x is fixed by s0, that is by the class, for each comparison
    xi_j == s0(xi_i), and through the coroot sums at <alpha^vee, x> and
    <alpha^vee, y>.  The other checks of a variant read no character.  So a
    model passes exactly when the first pair's model of the variant does
    where the list certificate vouches for its pair and its two coroot sums
    equal the first such pair's.
    """
    classes, (bad, fault) = listed
    if fault:
        raise VerificationFailure(fault)
    off, walked = {}, 0
    for c, pairs in classes.items():
        walked += len(pairs) if _CLASS_VARIANTS[kind][c] else 0
        found = [tuple(sums[coroot_pairing(kind, q, xi)] for xi in pair) for pair in pairs]
        first = next((f for j, f in enumerate(found) if j not in bad[c]), None)
        off[c] = {j for j, f in enumerate(found) if j in bad[c] or f != first}
    return off, walked


def verify_models(tctx, kind, Lmax=6, listed=None):
    """The models suite's report on the block models of a kind: the
    character and class certificates once, the generator table once per
    presence of omega, and `verify_model` once per variant, on the first
    orbit of its class that the class certificate lets stand for the rest.
    Only a failure walks orbits: a failing variant fails every orbit its
    check stands for, with its counterexample, the orbits it does not stand
    for are verified one by one, and a failing certificate fails every listed
    model; each failure names variant and orbit, in orbit order.

    `listed` is (the class lists of `orbit_pairs`, their `orbit_list_faults`),
    which a run builds once per kind (`cli.run`); by default they are built
    here.
    """
    q = tctx.q
    if listed is None:
        classes = orbit_pairs(kind, q)
        listed = classes, orbit_list_faults(kind, q, classes)
    classes, variants = listed[0], _CLASS_VARIANTS[kind]
    failed, reports, tables, walked = [], {}, {}, 0
    try:
        certificate = _characters_certified(tctx, kind)
        off, walked = _class_facts(kind, q, listed, certificate[0])
    except VerificationFailure as exc:
        named = [(x, v) for c, ps in classes.items() for x, _ in ps for v in variants[c]]
        failed, classes = [(x, v, f"{v}: {exc}") for x, v in named], {}

    def failure(shape, pair):
        """verify_model's counterexample on the shape's model of the orbit
        listed as the exponent pair (xi, xi'), or None."""
        mm = ModelMap(shape, pair)
        try:
            report = verify_model(mm, Lmax, certificate, tables[shape.has_omega()])
        except VerificationFailure as exc:
            return str(exc)
        reports.setdefault(shape.variant, report)

    for c, pairs in classes.items():
        for variant in variants[c] if pairs else ():
            shape = VariantModel(kind, variant, tctx, _variant_images(tctx, variant))
            if shape.has_omega() not in tables:
                try:
                    tables[shape.has_omega()] = _generator_products(shape, Lmax)
                except VerificationFailure as exc:
                    tables[shape.has_omega()] = exc
            stray = off[c]
            first = next((j for j in range(len(pairs)) if j not in stray), None)
            message = first is not None and failure(shape, pairs[first])
            if message:
                failed += [
                    (x, variant, message) for j, (x, _) in enumerate(pairs) if j not in stray
                ]
            for j in sorted(stray):
                if message := failure(shape, pairs[j]):
                    failed.append((pairs[j][0], variant, message))
    failed.sort(key=lambda f: f[0])  # stable: an orbit's variants keep their order
    checked = reports.values()
    tables_read = {rep["variant"] in _OMEGA_VARIANTS: rep["product_shapes"] for rep in checked}
    details = {
        "models": sum(len(variants[c]) * count for c, count in orbit_counts(kind, q).items()),
        "all_pass": not failed,
        "variants_verified": len(reports),
        "generator_products": sum(t["generator_products"] for t in tables_read.values())
        + sum(rep["variant_checks"]["generator_products"] for rep in checked),
        "character_cases": (certificate[1]["character_cases"] + walked if reports else 0)
        + sum(rep["exponent_comparisons"] for rep in checked),
        "power_identities": sum(rep["variant_checks"]["power_identities"] for rep in checked),
    }
    if failed:
        details["failures"] = [
            {"variant": v, "orbit": orbit_obj(kind, q, orbit_pair(kind, q, x)), "counterexample": m}
            for x, v, m in failed
        ]
    return details


# ---------------------------------------------------------------------------
# centres


def center_elements(kind, pair, tctx):
    """The block-centre generators with centrality and scalar-image
    certificates, for the block of the orbit listed as the exponent pair
    `pair` = (xi, xi^{s0}).

    Returns a list of (name, hecke element, image) where each image is a
    scalar matrix; raises VerificationFailure if a certificate fails.
    """
    mm = build_model(kind, pair, tctx)
    q = tctx.q
    xi, xi_tw = pair
    e_gamma = orbit_idempotent(tctx, kind, pair)
    t01 = hecke_basis(tctx, kind, weyl(kind, q, word=(0, 1)))
    t10 = hecke_basis(tctx, kind, weyl(kind, q, word=(1, 0)))
    out = []

    def push(name, helt):
        img = mm.image_of_block(helt)
        if not is_central(helt):
            raise VerificationFailure(f"{name} is not central")
        # a scalar matrix over the commutative B commutes with every image
        if not img.is_scalar():
            raise VerificationFailure(f"{name} image is not scalar")
        out.append((name, helt, img))

    if mm.variant in (GL2_REG, PGL2_REG):
        e1h = idempotent(tctx, kind, xi)
        tw = gen_Tomega(tctx, kind)
        tw_inv = hecke_basis(tctx, kind, weyl(kind, q, omega_pow=-1))
        for name, word0 in (("X1", (1,)), ("X2", (0,))):
            # e1 T_{s_i omega} + its omega-conjugate
            base = hecke_mul(e1h, hecke_basis(tctx, kind, weyl(kind, q, omega_pow=1, word=word0)))
            conj = hecke_mul(hecke_mul(tw, base), tw_inv)
            push(name, base.add(conj))
    elif mm.variant in (GL2_NONREG, PGL2_NONREG):
        s0w = hecke_basis(tctx, kind, weyl(kind, q, omega_pow=1, word=(1,)))  # T_{s0} T_omega
        w_alone = gen_Tomega(tctx, kind)
        ws0 = hecke_basis(tctx, kind, weyl(kind, q, omega_pow=1, word=(0,)))  # T_{omega s0}
        push("X", hecke_mul(e_gamma, s0w.add(w_alone).add(ws0)))
    elif mm.variant == SL2_REG:
        e1h = idempotent(tctx, kind, xi)
        e2h = idempotent(tctx, kind, xi_tw)
        push("C1", hecke_mul(e1h, t01).add(hecke_mul(e2h, t10)))
        push("C2", hecke_mul(e2h, t01).add(hecke_mul(e1h, t10)))
    elif mm.variant == SL2_SIGMA:
        push("C", hecke_mul(e_gamma, t01.add(t10)))
    if kind is GroupKind.GL2:
        push("Z", hecke_mul(e_gamma, gen_Tomega(tctx, kind, 2)))
    return out


# ---------------------------------------------------------------------------
# freeness of M2(A) over the parity subalgebra


def freeness_check(tctx, D, pair=None):
    """M2(A) = Pi + Pi.J in every total degree <= D, with Pi the parity
    subalgebra (A_e on the diagonal, A_o off it) and J the antidiagonal unit.

    When an orbit is supplied, as its exponent pair, it must be a regular
    GL2 orbit (a lifted non-trivial orbit); the slice decomposition itself is
    orbit independent.
    """
    if pair is not None and orbit_class(GroupKind.GL2, tctx.q, pair[0]) != "regular":
        raise WrongRegularity("freeness statement concerns regular (lifted) orbits")
    ctx = tctx.field
    one = _sc(ctx, 1)
    z0 = _zero(ctx)
    J = Mat2(ctx, [[z0, one], [one, z0]])
    for d in range(D + 1):
        pi_mats = []
        monos_e = [NodalLaurentPoly.scalar(ctx, 1)] if d == 0 else (
            [_mono(ctx, 1, d), _mono(ctx, 2, d)] if d % 2 == 0 else []
        )
        monos_o = [_mono(ctx, 1, d), _mono(ctx, 2, d)] if d % 2 == 1 else []
        for i in range(2):
            for j in range(2):
                monos = monos_e if i == j else monos_o
                for mono in monos:
                    rows = [[z0, z0], [z0, z0]]
                    rows[i][j] = mono
                    pi_mats.append(Mat2(ctx, rows))
        pij_mats = [m.mul(J) for m in pi_mats]
        span = Span(ctx)
        for m in pi_mats:
            if not span.add(m.coeff_terms()):
                return False
        for m in pij_mats:
            if not span.add(m.coeff_terms()):
                return False  # intersection nonzero
        # 8 independent matrices (4 at d = 0) span all of M2(A)_d
    return True


# ---------------------------------------------------------------------------
# the enlarged centre for SL2


@dataclass
class TildeZ:
    """Component list of the enlarged central algebra: one k[X] factor for the
    trivial orbit and one nodal factor per nontrivial SL2 orbit, in the order
    of its smallest member (via the fixed lift of that member, given as the
    exponent pair of its GL2 orbit)."""

    components: list = field(default_factory=list)


def build_tilde_z(tctx):
    q = tctx.q
    classes = orbit_pairs(GroupKind.SL2, q)
    # the trivial orbit contributes the k[X] factor; the sign orbit comes last
    lifted = (lift_character(q, x) for c in ("regular", "sign") for x, _ in classes[c])
    return TildeZ([("k[X]", None)] + [("A", orbit_pair(GroupKind.GL2, q, x)) for x in lifted])


# ---------------------------------------------------------------------------
# Ollivier-Schneider exactness at a specialisation


def _tensor(ctx, v, mv):
    """The slots of (sum_pos v[pos] x_pos) (x) (mv_0 m_0 + mv_1 m_1)."""
    out = {}
    for m, a in enumerate(mv):
        if a:
            add_scaled(ctx, out, a, {2 * pos + m: c for pos, c in v.items()})
    return out


def _quotient_rank(rel, vecs):
    """The dimension of the span of vecs modulo the relations rel."""
    sp = rel.copy()
    return sum(1 for v in vecs if sp.add(v))


class _Trunc:
    """The lambda-free part of `os_resolution_check`, built once per call
    for its D and read at every lambda of the call.

    It holds coordinates on M2(A)_{<= D} (x) k^2: the position k of each
    matrix-basis element x (one monomial in one entry, X-degree degs[k]), and
    the slot 2k + m of x (x) m_m for the basis m_0, m_1 of M = k^2.  And it
    holds the products x r in M2(B) for the right factors r of the resolution
    (`RIGHT`), as sparse terms (position, Z-power, coefficient) of X-degree
    <= D.

    The products are taken before Z is specialised.  Specialising Z to lambda
    is a ring map B -> A, so the specialisation of x r is the product of the
    specialisations, and its coefficient at a position is the sum of
    c lambda^z over that position's terms (`at`).

    The relation spans.  rel0 (vertex term) and rel1 (chamber term) are
    spanned by the vectors x r (x) m_j - x (x) r.m_j, where r acts on M
    through its image at the node X1 = X2 = 0 (T_s0 by 0, T_omega by minus
    its action on the chamber term).  `homogeneous` certifies that the terms
    of each such vector, those of x r and those of r's action on m_j, carry
    one Z-power z.  At Z = lambda the vector is then lambda^z times its value
    at Z = 1, and lambda != 0, so the span at lambda is the span at Z = 1.
    So rel0 and rel1 are built once, at Z = 1, and with them the lambda-free
    ranks T1 and T0 of the degree <= D - 1 slots modulo rel1 and rel0.
    """

    RIGHT = ("e1", "e2", "ts0 e1", "ts0 e2", "tw e1", "tw e2", "tw_inv")

    def __init__(self, shape, D):
        ctx = shape.field
        self.ctx = ctx
        index = {}  # (i, j, signed X-degree) -> matrix-basis position
        self.mats, self.degs = [], []
        for d in range(D + 1):
            branches = [(0, 0)] if d == 0 else [(1, d), (2, d)]
            for i in range(2):
                for j in range(2):
                    for br, deg in branches:
                        index[(i, j, deg if br == 1 else -deg)] = len(self.mats)
                        rows = [[_zero(ctx), _zero(ctx)], [_zero(ctx), _zero(ctx)]]
                        rows[i][j] = _sc(ctx, 1) if d == 0 else _mono(ctx, br, d)
                        self.mats.append(Mat2(ctx, rows))
                        self.degs.append(d)
        self.nmat = len(self.mats)
        self.dim = 2 * self.nmat
        e1, e2, tw, tw_inv, ts0 = (shape.images[n] for n in ("e1", "e2", "tw", "tw_inv", "ts0"))
        right = (e1, e2, ts0.mul(e1), ts0.mul(e2), tw.mul(e1), tw.mul(e2), tw_inv)
        self.products = {}
        for name, r in zip(self.RIGHT, right):
            self.products[name] = per_x = []
            for x in self.mats:
                xr = x.mul(r)
                per_x.append(
                    [
                        (index[(i, j, k)], z, c)
                        for i in range(2)
                        for j in range(2)
                        for (z, k), c in xr.a[i][j].terms.items()
                        if (i, j, k) in index
                    ]
                )

        # r's action on M: the action matrix at Z = 1, and the image of r whose
        # part at the node is the action (none for T_s0, which acts by 0)
        minus_one = ctx.neg_i(1)
        E1, E2, W1 = (shape.images[n].evaluate(0, 0, 1) for n in ("e1", "e2", "tw"))
        twisted_W1 = mat_scal(ctx, minus_one, W1)
        zero = [[0, 0], [0, 0]]
        acting = {
            "e1": (E1, e1),
            "e2": (E2, e2),
            "ts0 e1": (zero, None),
            "ts0 e2": (zero, None),
            "tw e1": (mat_mul(ctx, twisted_W1, E1), right[4]),
            "tw e2": (mat_mul(ctx, twisted_W1, E2), right[5]),
        }
        self.homogeneous = True

        def relations(names_and_degs):
            """Span of x r (x) m - x (x) r.m at Z = 1 over the truncation
            basis x and the basis m of M, for r in `names_and_degs` (name,
            X-degree of r) with deg x + deg r <= D."""
            span = Span(ctx)
            for name, r_deg in names_and_degs:
                at_one = self.at(1, name)
                act, image = acting[name]
                # the Z-powers of column mj of the action
                act_powers = [
                    {z for i in range(2) for (z, k) in image.a[i][mj].terms if k == 0}
                    if image
                    else set()
                    for mj in (0, 1)
                ]
                for k in range(self.nmat):
                    if self.degs[k] + r_deg > D:
                        continue
                    zs = {z for _, z, _ in self.products[name][k]}
                    for mj in (0, 1):
                        self.homogeneous &= len(zs | act_powers[mj]) <= 1
                        v = {2 * pos + mj: c for pos, c in at_one[k].items()}
                        acted = _tensor(ctx, {k: 1}, [row[mj] for row in act])
                        add_scaled(ctx, v, minus_one, acted)
                        span.add(v)
            return span

        self.rel0 = relations([("e1", 0), ("e2", 0), ("ts0 e1", 1), ("ts0 e2", 1)])
        self.rel1 = relations([("e1", 0), ("e2", 0), ("tw e1", 0), ("tw e2", 0)])
        # the slots of filtration degree <= D - 1, where exactness is certified
        self.low = [2 * k + mj for k in range(self.nmat) if self.degs[k] <= D - 1 for mj in (0, 1)]
        self.T1 = _quotient_rank(self.rel1, ({s: 1} for s in self.low))
        self.T0 = _quotient_rank(self.rel0, ({s: 1} for s in self.low))

    def at(self, lam_idx, name):
        """[{position: coefficient} of x_k r at Z = lambda, per k] for the
        right factor r called `name`."""
        ctx = self.ctx
        add, mul = ctx.add, ctx.mul
        zpow = {}
        rows = []
        for terms in self.products[name]:
            v = {}
            for pos, z, c in terms:
                if z not in zpow:
                    zpow[z] = ctx.pow_i(lam_idx, z)
                v[pos] = add[v.get(pos, 0)][mul[c][zpow[z]]]
            rows.append({pos: c for pos, c in v.items() if c})
        return rows


def os_resolution_check(mm, lambdas, D):
    """Exactness of 0 -> H (x)_{H_C^+} M^eps -> H (x)_{H_x0^+} M -> M -> 0
    after specialising the central Laurent variable Z to lambda and truncating
    the X-degree at D; exactness is certified in filtration degrees <= D-1.
    Returns one report per lambda of `lambdas` (field indices), in order.

    `mm` is a certified GL2_REG block model, and M = M_{gamma,lambda} is k^2
    with the idempotents acting by e1, e2, T_omega by tw and T_s0 by 0, all at
    Z = lambda.  The orientation twist on the chamber term sends T_omega to
    minus its action on M (Ollivier-Schneider 2014).

    The check reads only the model's generator images e1, e2, tw, tw_inv and
    ts0, which `_variant_images` builds from the variant alone; gamma enters
    only through which torus characters the idempotents stand for.  So the
    report depends on lambda and D, not on the block.

    The relation spans and the ranks T1 and T0 do not depend on lambda once
    the relation vectors are certified Z-homogeneous (`_Trunc`, built once
    here, reported as `relations_homogeneous`); per lambda remain the
    boundary, the counit checks and the rank of the boundary image.
    """
    if D < 2:
        raise TruncationTooSmall("need D >= 2")
    if 0 in lambdas:
        raise KindMismatch("lambda must be nonzero")
    if mm.variant != GL2_REG:
        raise WrongRegularity("Ollivier-Schneider check runs on regular GL2 block models")
    ctx = mm.field
    minus_one = ctx.neg_i(1)
    tr = _Trunc(mm.shape, D)
    rel0, rel1, low = tr.rel0, tr.rel1, tr.low

    def apply_linear(table, vec):
        out = {}
        for slot, c in vec.items():
            add_scaled(ctx, out, c, table[slot])
        return out

    reports = []
    for lam_idx in lambdas:
        # the action of T_omega on M at Z = lambda
        W0 = mm.images["tw"].evaluate(0, 0, lam_idx)
        tw_inv = tr.at(lam_idx, "tw_inv")
        # boundary and counit on the ambient basis, by slot, then extended linearly
        bnd = {}
        eps = {}
        for k, x in enumerate(tr.mats):
            x0 = x.evaluate(0, 0, lam_idx)
            for mj in (0, 1):
                v = {2 * k + mj: 1}
                add_scaled(ctx, v, minus_one, _tensor(ctx, tw_inv[k], [row[mj] for row in W0]))
                bnd[2 * k + mj] = v
                eps[2 * k + mj] = {m: row[mj] for m, row in enumerate(x0) if row[mj]}

        report = {"D": D, "dim_ambient": tr.dim, "relations_homogeneous": tr.homogeneous}
        report["boundary_descends"] = all(
            rel0.contains(apply_linear(bnd, row)) for row in rel1.rows.values()
        )
        report["counit_kills_relations"] = not any(
            apply_linear(eps, row) for row in rel0.rows.values()
        )
        report["counit_after_boundary_zero"] = not any(apply_linear(eps, bnd[s]) for s in low)
        eps_span = Span(ctx)
        for v in eps.values():
            eps_span.add(v)
        report["counit_surjective"] = eps_span.dim == 2

        i1 = _quotient_rank(rel0, (bnd[s] for s in low))
        k0 = tr.T0 - 2
        report["dims"] = {"T1": tr.T1, "boundary_image": i1, "T0": tr.T0, "ker_counit": k0}
        report["boundary_injective"] = i1 == tr.T1
        report["exact_middle"] = i1 == k0
        report["pass"] = all(
            report[key]
            for key in (
                "relations_homogeneous",
                "boundary_descends",
                "counit_kills_relations",
                "counit_after_boundary_zero",
                "counit_surjective",
                "boundary_injective",
                "exact_middle",
            )
        )
        reports.append(report)
    return reports
