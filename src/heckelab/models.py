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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
from .linalg import Span, mat_mul, mat_scal, mat_vec
from .rings import Mat2, NodalLaurentPoly
from .torus import (
    CharOrbit,
    GroupKind,
    TorusCtx,
    lift_character,
    mu_alpha_order,
    orbit_of,
    orbit_partition,
    sign_character,
    torus_exps,
    torus_index,
)

# model variants
GL2_REG = "GL2_REG"
GL2_NONREG = "GL2_NONREG"
PGL2_REG = "PGL2_REG"
PGL2_NONREG = "PGL2_NONREG"
AFF_REG = "AFF_REG"
SL2_REG = "SL2_REG"
SL2_SIGMA = "SL2_SIGMA"


@dataclass
class ModelMap:
    """Generator images of a block model, with derived basis-element images."""

    variant: str
    kind: GroupKind
    orbit: CharOrbit
    tctx: TorusCtx
    images: dict

    def __post_init__(self):
        self._word_cache = {}

    @property
    def field(self):
        return self.tctx.field

    def has_omega(self):
        return self.variant in (GL2_REG, GL2_NONREG, PGL2_REG, PGL2_NONREG)

    @cached_property
    def _characters(self):
        """The characters (xi, xi') on the diagonal of the torus image: the
        orbit's (xi, xi^{s0}), or (rep, rep) for the single-idempotent variants."""
        if self.variant in (GL2_NONREG, PGL2_NONREG, SL2_SIGMA):
            rep = self.orbit.rep()
            return rep, rep
        return self.orbit.pair()

    @cached_property
    def _torus_diag(self):
        """_torus_diag[t] = field indices (a, b) of the constant diagonal image
        diag(a, b) of the torus element with index t, for all of T at once."""
        xi, xi_tw = self._characters
        return list(zip(xi.values_i(self.tctx), xi_tw.values_i(self.tctx)))

    def torus_image(self, t):
        ctx = self.field
        a, b = self._torus_diag[t]
        z = NodalLaurentPoly(ctx)
        return Mat2(
            ctx,
            [[NodalLaurentPoly.scalar(ctx, a), z], [z, NodalLaurentPoly.scalar(ctx, b)]],
        )

    def _word_image(self, omega_pow, word):
        key = (omega_pow, word)
        cached = self._word_cache.get(key)
        if cached is not None:
            return cached
        if word:
            head = self._word_image(omega_pow, word[:-1])
            out = head.mul(self.images["ts0" if word[-1] == 0 else "ts1"])
        elif omega_pow:
            if not self.has_omega():
                raise KindMismatch(f"{self.variant} has no omega generator")
            step = 1 if omega_pow > 0 else -1
            head = self._word_image(omega_pow - step, ())
            out = head.mul(self.images["tw" if step > 0 else "tw_inv"])
        else:
            out = Mat2.identity(self.field)
        self._word_cache[key] = out
        return out

    def image_of_weyl(self, w):
        """Image of e_gamma T_w (product of generator images along the normal form)."""
        omega_pow, word, t = w
        out = self._word_image(omega_pow, word)
        if not t:
            return out
        return out.scal_cols(*self._torus_diag[t])

    def image_of_block(self, x: HeckeElt):
        """Image of e_gamma . x for a Hecke element x.

        Torus images are constant diagonal matrices, so the terms of x that
        share a torus-free part collapse to one column scaling:
        sum_t c_t Phi(T_{w t}) = Phi(T_w) . diag(sum_t c_t xi(t), sum_t c_t xi^{s0}(t)).
        The scaled word images are accumulated entrywise into one matrix.
        """
        add, mul = self.field.add, self.field.mul
        diag = self._torus_diag
        sums = {}
        for (omega_pow, word, t), c in x.terms.items():
            a, b = diag[t]
            key = (omega_pow, word)
            sa, sb = sums.get(key, (0, 0))
            sums[key] = (add[sa][mul[c][a]], add[sb][mul[c][b]])
        images = (
            (self._word_image(omega_pow, word), sa, sb)
            for (omega_pow, word), (sa, sb) in sums.items()
        )
        return Mat2.sum_scal_cols(self.field, images)

    def idempotent_side_image(self, member_index, w):
        """Image of e_xi T_w where xi is the rep (0) or its twist (1)."""
        base = self.image_of_weyl(w)
        if self.variant in (GL2_NONREG, PGL2_NONREG, SL2_SIGMA):
            return base
        e = self.images["e1"] if member_index == 0 else self.images["e2"]
        return e.mul(base)


def _mono(ctx, branch, k, zexp=0, coeff=1):
    return NodalLaurentPoly.mono(ctx, branch, k, zexp, coeff)


def _zero(ctx):
    return NodalLaurentPoly(ctx)


def _sc(ctx, c):
    return NodalLaurentPoly.scalar(ctx, c)


def build_model(kind, orbit, tctx, affine=False):
    """The displayed matrix model of the block of `orbit`.

    GL2 regular blocks map onto M2(B); GL2 non-regular blocks embed into
    M2(k[X,Z^(+-1)]); PGL2 uses the Z = 1 specialisations; the affine flag (or
    kind SL2) selects the omega-free model into M2(A).
    """
    ctx = tctx.field
    one = _sc(ctx, 1)
    m_one = _sc(ctx, ctx.neg_i(1))
    z0 = _zero(ctx)
    if kind is GroupKind.GL2 and not affine:
        if orbit.regular:
            images = {
                "e1": Mat2(ctx, [[one, z0], [z0, z0]]),
                "e2": Mat2(ctx, [[z0, z0], [z0, one]]),
                "tw": Mat2(ctx, [[z0, NodalLaurentPoly.z_power(ctx, 1)], [one, z0]]),
                "tw_inv": Mat2(ctx, [[z0, one], [NodalLaurentPoly.z_power(ctx, -1), z0]]),
                "ts0": Mat2(ctx, [[z0, _mono(ctx, 1, 1)], [_mono(ctx, 2, 1, zexp=-1), z0]]),
                "ts1": Mat2(ctx, [[z0, _mono(ctx, 2, 1)], [_mono(ctx, 1, 1, zexp=-1), z0]]),
            }
            return ModelMap(GL2_REG, kind, orbit, tctx, images)
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
        images = {"tw": tw, "tw_inv": tw_inv, "ts0": ts0, "ts1": tw.mul(ts0).mul(tw_inv)}
        return ModelMap(GL2_NONREG, kind, orbit, tctx, images)

    if kind is GroupKind.PGL2:
        if tctx.q % 2 == 0:
            raise UnsupportedCharacteristic("PGL2 models require p > 2")
        if orbit.regular:
            images = {
                "e1": Mat2(ctx, [[one, z0], [z0, z0]]),
                "e2": Mat2(ctx, [[z0, z0], [z0, one]]),
                "tw": Mat2(ctx, [[z0, one], [one, z0]]),
                "tw_inv": Mat2(ctx, [[z0, one], [one, z0]]),
                "ts0": Mat2(ctx, [[z0, _mono(ctx, 1, 1)], [_mono(ctx, 2, 1), z0]]),
                "ts1": Mat2(ctx, [[z0, _mono(ctx, 2, 1)], [_mono(ctx, 1, 1), z0]]),
            }
            return ModelMap(PGL2_REG, kind, orbit, tctx, images)
        x = _mono(ctx, 1, 1)
        x2_minus_1 = _mono(ctx, 1, 2).sub(one)
        tw = Mat2(ctx, [[x, x2_minus_1], [m_one, x.neg()]])
        ts0 = Mat2(ctx, [[z0, z0], [z0, m_one]])
        images = {"tw": tw, "tw_inv": tw, "ts0": ts0, "ts1": tw.mul(ts0).mul(tw)}
        return ModelMap(PGL2_NONREG, kind, orbit, tctx, images)

    # omega-free models into M2(A)
    images = {
        "e1": Mat2(ctx, [[one, z0], [z0, z0]]),
        "e2": Mat2(ctx, [[z0, z0], [z0, one]]),
        "ts0": Mat2(ctx, [[z0, _mono(ctx, 1, 1)], [_mono(ctx, 2, 1), z0]]),
        "ts1": Mat2(ctx, [[z0, _mono(ctx, 2, 1)], [_mono(ctx, 1, 1), z0]]),
    }
    if kind is GroupKind.GL2 and affine:
        if not orbit.regular:
            raise WrongRegularity("affine model requires a regular GL2 orbit")
        return ModelMap(AFF_REG, kind, orbit, tctx, images)
    if kind is GroupKind.SL2:
        sig = sign_character(GroupKind.SL2, tctx.q)
        if orbit.regular:
            return ModelMap(SL2_REG, kind, orbit, tctx, images)
        if sig is not None and sig in orbit.members:
            del images["e1"], images["e2"]
            return ModelMap(SL2_SIGMA, kind, orbit, tctx, images)
        raise WrongRegularity("no matrix model for the trivial SL2 orbit")
    raise KindMismatch(f"no model for {kind} / affine={affine}")


# ---------------------------------------------------------------------------
# verification


def _alternating_words(max_len):
    out = [()]
    for n in range(1, max_len + 1):
        for start in (0, 1):
            out.append(tuple((start + k) % 2 for k in range(n)))
    return out


def _basis_words(mm, max_len, omega_window=None):
    """Torus-free basis elements of bounded length (with omega variants)."""
    kind, q = mm.kind, mm.tctx.q
    if omega_window is None:
        omegas = [0, 1] if mm.has_omega() else [0]
    else:
        omegas = omega_window if mm.has_omega() else [0]
    out = []
    for w in _alternating_words(max_len):
        for a in omegas:
            out.append(weyl(kind, q, omega_pow=a, word=w))
    return out


def _relation_checks(mm):
    """Generator relations as exact matrix identities."""
    ctx = mm.field
    kind, q = mm.kind, mm.tctx.q
    failures = []
    ident = Mat2.identity(ctx)

    def expect(name, cond):
        if not cond:
            failures.append(name)

    if "e1" in mm.images:
        e1, e2 = mm.images["e1"], mm.images["e2"]
        expect("e1+e2=1", e1.add(e2) == ident)
        expect("e1^2=e1", e1.mul(e1) == e1)
        expect("e2^2=e2", e2.mul(e2) == e2)
        expect("e1e2=0", e1.mul(e2).is_zero())

    # quadratic relations: T_s^2 = T_s . (mu_alpha * sum over coroot image)
    mu = ctx.scalar_i(mu_alpha_order(kind))
    tab = mm.tctx.torus_table(kind)
    qsum = Mat2.zero(ctx)
    for t in tab.coroot:
        qsum = qsum.add(mm.torus_image(t))
    qsum = qsum.scal(mu)
    for name in ("ts0", "ts1"):
        m = mm.images[name]
        expect(f"{name} quadratic", m.mul(m) == m.mul(qsum))

    # torus conjugation and multiplicativity
    gens_exps = [(1, 0), (0, 1)] if kind is GroupKind.GL2 else [(1,)]
    gens_t = [torus_index(kind, q, e) for e in gens_exps]
    for t, e in zip(gens_t, gens_exps):
        mt = mm.torus_image(t)
        mts = mm.torus_image(tab.s0[t])
        for name in ("ts0", "ts1"):
            m = mm.images[name]
            expect(f"{name} torus conj", m.mul(mt) == mts.mul(m))
        for t2, e2 in zip(gens_t, gens_exps):
            t_t2 = torus_index(kind, q, [x + y for x, y in zip(e, e2)])
            expect("torus hom", mm.torus_image(t_t2) == mt.mul(mm.torus_image(t2)))
    if mm.has_omega():
        tw, twi = mm.images["tw"], mm.images["tw_inv"]
        expect("tw invertible", tw.mul(twi) == ident)
        expect("omega conj s0", tw.mul(mm.images["ts0"]).mul(twi) == mm.images["ts1"])
        for t in gens_t:
            expect(
                "omega conj torus",
                tw.mul(mm.torus_image(t)).mul(twi) == mm.torus_image(tab.s0[t]),
            )
        tw2 = tw.mul(tw)
        if kind is GroupKind.PGL2:
            expect("tw^2=1", tw2 == ident)
        else:
            expect("tw^2 central scalar", tw2.is_scalar())
    return failures


def _independence_check(mm, Lmax):
    """Images of e_xi T_w, len(w) <= Lmax, are linearly independent."""
    window = [-1, 0, 1, 2] if mm.variant in (GL2_REG, GL2_NONREG) else None
    words = _basis_words(mm, Lmax, omega_window=window)
    sides = [0] if mm.variant in (GL2_NONREG, PGL2_NONREG, SL2_SIGMA) else [0, 1]
    mats = []
    for w in words:
        for s in sides:
            mats.append(mm.idempotent_side_image(s, w))
    xdeg = Lmax + 2
    zr = [m.a[i][j].z_range() for m in mats for i in range(2) for j in range(2)]
    zlo = min(r[0] for r in zr)
    zhi = max(r[1] for r in zr)
    vecs = [m.coeff_vector(xdeg, zlo, zhi) for m in mats]
    span = Span(mm.field, len(vecs[0]))
    return all(span.add(v) for v in vecs)


def _generator_keys(mm):
    """Term keys of the generators of the model's algebra: those of
    `hecke.generators`, without T_omega for the omega-free models, and with
    T_omega^-1 added for GL2 (for PGL2 it is T_omega)."""
    keys = [w for _, g in generators(mm.tctx, mm.kind) for w in g.terms]
    if not mm.has_omega():
        return [w for w in keys if not w[0]]
    if mm.kind is GroupKind.GL2:
        keys.append(weyl(mm.kind, mm.tctx.q, omega_pow=-1))
    return keys


def _generator_products(mm, Lmax):
    """[(x, g, T_x T_g)] for the generators g of `_generator_keys` and the
    torus-free, omega-free x = s_word with len(x) + len(g) <= Lmax.

    The products depend on the kind, on whether the model has omega and on
    Lmax, not on the block, so every model of a kind shares one table, kept in
    the TorusCtx (which fixes the field and q).
    """
    key = ("hom_generator_products", mm.kind, mm.has_omega(), Lmax)
    table = mm.tctx.cache.get(key)
    if table is None:
        tctx, kind = mm.tctx, mm.kind
        gens = _generator_keys(mm)
        table = tctx.cache[key] = [
            (x, g, hecke_mul(hecke_basis(tctx, kind, x), hecke_basis(tctx, kind, g)))
            for x in (weyl(kind, tctx.q, word=w) for w in _alternating_words(Lmax))
            for g in gens
            if len(x[1]) + len(g[1]) <= Lmax
        ]
    return table


def _character_check(mm):
    """D(1) = 1 and D(t t_i) = D(t) D(t_i) for every torus element t and
    torus generator t_i, where D(t) = diag(a, b) is the model's torus image.
    Field-index comparisons only; returns the number of cases checked."""
    tab = mm.tctx.torus_table(mm.kind)
    mul = mm.field.mul
    diag = mm._torus_diag
    if diag[0] != (1, 1):
        raise VerificationFailure(f"{mm.variant}: torus image of 1 is not the identity")
    for g in tab.gens:
        row_a, row_b = (mul[c] for c in diag[g])
        for t, ((a, b), row) in enumerate(zip(diag, tab.mul)):
            if diag[row[g]] != (row_a[a], row_b[b]):
                raise VerificationFailure(
                    f"{mm.variant}: torus image is not a character at "
                    f"t={torus_exps(mm.kind, mm.tctx.q, t)}, "
                    f"t_i={torus_exps(mm.kind, mm.tctx.q, g)}"
                )
    return 1 + len(tab.gens) * tab.order


def _hom_check(mm, Lmax):
    """Certify Phi(T_u T_v) = Phi(T_u) Phi(T_v) for all basis elements u, v
    with len(u) + len(v) <= Lmax, whatever their torus parts and omega powers.
    Returns (generator products, character cases) checked.

    Phi(T_w) = W(a, word) D(t) for w = omega^a s_word t, with
    W(a, word) = tw^a ts_word the product of the generator images along
    omega^a s_word (`_word_image`) and D the diagonal torus image; Phi is
    extended linearly (`image_of_block`).  With G(x, g) standing for
    Phi(T_x T_g) = Phi(T_x) Phi(T_g), two tables are checked:

    (a) G(x, g) for every generator g of `_generator_keys` (T_s0, T_s1, the
        torus generators T_ti, and T_omega^(+-1) where the model has omega)
        and every x = s_word, torus-free and of omega power 0, with
        len(x) <= Lmax - len(g): Lmax - 1 for the reflections, Lmax for the
        others (`_generator_products`);
    (b) D(1) = 1 and D(t t_i) = D(t) D(t_i) for every t in T and every torus
        generator t_i (`_character_check`).  As the t_i generate T, D is
        multiplicative on all of T.

    Step 1, torus parts.  `_relation_checks` verifies, at the t_i,
    Phi(T_s) D(t) = D(t^s0) Phi(T_s) for s = s0, s1 and
    tw D(t) tw^-1 = D(t^s0); by (b), and as t -> t^s0 is an automorphism of
    T, they hold for every t.  Let x = x0 t with x0 in the range of (a).  For
    g = T_ti, T_x T_g = T_{x0 (t t_i)}, and G(x, g) is (b) whatever x0 is.
    For the other g, T_t T_g = T_g T_{t^s0} (s0, s1 and omega all act on T by
    s0), and right multiplication by T_t' only multiplies torus parts by t',
    on which D is multiplicative, so
        Phi(T_x T_g) = Phi(T_x0 T_g) D(t^s0) = Phi(T_x0) Phi(T_g) D(t^s0)   [(a)]
                     = Phi(T_x0) D(t) Phi(T_g) = Phi(T_x) Phi(T_g).

    Step 2, omega on the left.  T_omega^k T_w = T_w'' with
    w'' = omega^(a+k) s_word t, and W(a + k, word) = tw^k W(a, word) for every
    integer k, because `_relation_checks` verifies tw tw^-1 = 1 (and
    tw^2 = 1 for PGL2, whose omega powers are taken mod 2).  So
    Phi(T_omega^k y) = tw^k Phi(y) for every y, and the identity for u
    follows from the identity for omega^-a u: take omega(u) = 0.

    Step 3, omega powers of v (GL2).  T_omega^2 is central in H, of length 0,
    and tw^2 is a scalar matrix (`_relation_checks`).  For v = omega^2k v1,
    Step 2 gives Phi(T_u T_v) = tw^2k Phi(T_u T_v1) and
    Phi(T_v) = tw^2k Phi(T_v1), so the identity for v1 gives it for v: take
    omega(v) = b in {0, 1}.

    Step 4, induction on v.  As omega^b s_word = s_word' omega^b (word' is
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
    range: Step 1 gives G there from (a).  For g = T_ti, Step 1 gives G from
    (b) alone.  This is exactly the range of (a); the induction does not use
    T_omega^-1, whose row in (a) ties the images at omega power -1, which the
    independence check reads, to the generator images directly.
    """
    table = _generator_products(mm, Lmax)
    for x, g, prod in table:
        if mm.image_of_block(prod) != mm.image_of_weyl(x).mul(mm.image_of_weyl(g)):
            raise VerificationFailure(
                f"{mm.variant}: homomorphism fails on T_x T_g with "
                f"x={weyl_obj(mm.kind, mm.tctx.q, x)}, g={weyl_obj(mm.kind, mm.tctx.q, g)}"
            )
    return len(table), _character_check(mm)


def _power_identity_checks(mm, Lmax):
    """The displayed closed-form power identities of the model."""
    ctx = mm.field
    kind, q = mm.kind, mm.tctx.q
    tctx = mm.tctx
    checked = 0
    if mm.variant == GL2_REG:
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
                img = mm.images["e1"].mul(mm.image_of_weyl(wp))
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
    if mm.variant in (AFF_REG, SL2_REG, SL2_SIGMA):
        t0, t1 = mm.images["ts0"], mm.images["ts1"]
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
    if mm.variant == PGL2_NONREG:
        tw, ts0 = mm.images["tw"], mm.images["ts0"]
        a = tw.mul(ts0)
        b = ts0.mul(tw)
        neg1 = ctx.neg_i(1)

        def xpow(n, coeff=1):
            return _mono(ctx, 1, n, coeff=coeff) if n > 0 else _sc(ctx, coeff if n == 0 else 0)

        for n in range(1, 6):
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


def _parity_check(mm, Lmax):
    """Images land in the (A_e A_o; A_o A_e) pattern with parity = length mod 2."""
    if mm.variant not in (AFF_REG, SL2_REG, SL2_SIGMA):
        return 0
    checked = 0
    for w in _basis_words(mm, Lmax):
        img = mm.image_of_weyl(w)
        par = len(w[1]) % 2
        for i in range(2):
            for j in range(2):
                slot_par = 0 if i == j else 1
                degs = {abs(k) for _, k in img.a[i][j].terms}
                if any(d % 2 != slot_par for d in degs):
                    raise VerificationFailure(
                        f"parity pattern violated in slot ({i},{j}) for word {w[1]}"
                    )
                if degs and par != slot_par:
                    raise VerificationFailure(
                        f"length-parity violated: length {len(w[1])} word hits slot ({i},{j})"
                    )
        checked += 1
    return checked


def verify_model(mm: ModelMap, Lmax=6):
    """Relation, homomorphism, independence, power-identity and parity checks.

    Raises VerificationFailure with the first counterexample; returns a report
    of executed checks otherwise.
    """
    failures = _relation_checks(mm)
    if failures:
        raise VerificationFailure(f"{mm.variant}: relation(s) failed: {failures}")
    report = {"variant": mm.variant, "orbit": mm.orbit.to_obj(), "Lmax": Lmax}
    report["generator_products"], report["character_cases"] = _hom_check(mm, Lmax)
    if not _independence_check(mm, Lmax):
        raise VerificationFailure(f"{mm.variant}: basis images are linearly dependent")
    report["independent_images"] = True
    report["power_identities"] = _power_identity_checks(mm, Lmax)
    report["parity_cases"] = _parity_check(mm, Lmax)
    report["pass"] = True
    return report


def all_models(tctx, kind):
    """Every block model of the kind at this q (skipping the trivial SL2 orbit)."""
    out = []
    for orb in orbit_partition(kind, tctx.q):
        if kind is GroupKind.SL2:
            if not orb.regular and sign_character(kind, tctx.q) not in orb.members:
                continue  # trivial orbit: no matrix model
        out.append(build_model(kind, orb, tctx))
    if kind is GroupKind.GL2:
        for orb in orbit_partition(kind, tctx.q):
            if orb.regular:
                out.append(build_model(kind, orb, tctx, affine=True))
    return out


# ---------------------------------------------------------------------------
# centres


def center_elements(kind, orbit, tctx):
    """The block-centre generators with centrality and scalar-image certificates.

    Returns a list of (name, hecke element, image) where each image is a
    scalar matrix; raises VerificationFailure if a certificate fails.
    """
    mm = build_model(kind, orbit, tctx)
    ctx = tctx.field
    q = tctx.q
    e_gamma = orbit_idempotent(tctx, orbit)
    out = []

    def push(name, helt):
        img = mm.image_of_block(helt)
        if not is_central(helt):
            raise VerificationFailure(f"{name} is not central")
        if not img.is_scalar():
            raise VerificationFailure(f"{name} image is not scalar")
        for gen_name, gen_img in mm.images.items():
            if not img.commutes_with(gen_img):
                raise VerificationFailure(f"{name} image fails to commute with {gen_name}")
        out.append((name, helt, img))

    if mm.variant in (GL2_REG, PGL2_REG):
        xi, _ = orbit.pair()
        e1h = idempotent(tctx, xi)
        tw = gen_Tomega(tctx, kind)
        tw_inv = hecke_basis(tctx, kind, weyl(kind, q, omega_pow=-1))
        for name, word0 in (("X1", (1,)), ("X2", (0,))):
            # e1 T_{s_i omega} + its omega-conjugate
            base = hecke_mul(e1h, hecke_basis(tctx, kind, weyl(kind, q, omega_pow=1, word=word0)))
            conj = hecke_mul(hecke_mul(tw, base), tw_inv)
            push(name, base.add(conj))
        if kind is GroupKind.GL2:
            push("Z", hecke_mul(e_gamma, gen_Tomega(tctx, kind, 2)))
    elif mm.variant in (GL2_NONREG, PGL2_NONREG):
        s0w = hecke_basis(tctx, kind, weyl(kind, q, omega_pow=1, word=(1,)))  # T_{s0} T_omega
        w_alone = gen_Tomega(tctx, kind)
        ws0 = hecke_basis(tctx, kind, weyl(kind, q, omega_pow=1, word=(0,)))  # T_{omega s0}
        x_elt = hecke_mul(e_gamma, s0w.add(w_alone).add(ws0))
        push("X", x_elt)
        if kind is GroupKind.GL2:
            push("Z", hecke_mul(e_gamma, gen_Tomega(tctx, kind, 2)))
    elif mm.variant in (SL2_REG,):
        xi, xi_tw = orbit.pair()
        e1h = idempotent(tctx, xi)
        e2h = idempotent(tctx, xi_tw)
        t01 = hecke_basis(tctx, kind, weyl(kind, q, word=(0, 1)))
        t10 = hecke_basis(tctx, kind, weyl(kind, q, word=(1, 0)))
        push("C1", hecke_mul(e1h, t01).add(hecke_mul(e2h, t10)))
        push("C2", hecke_mul(e2h, t01).add(hecke_mul(e1h, t10)))
    elif mm.variant == SL2_SIGMA:
        t01 = hecke_basis(tctx, kind, weyl(kind, q, word=(0, 1)))
        t10 = hecke_basis(tctx, kind, weyl(kind, q, word=(1, 0)))
        push("C", hecke_mul(e_gamma, t01.add(t10)))
    return out


# ---------------------------------------------------------------------------
# freeness of M2(A) over the parity subalgebra


def freeness_check(tctx, D, orbit=None):
    """M2(A) = Pi + Pi.J in every total degree <= D, with Pi the parity
    subalgebra (A_e on the diagonal, A_o off it) and J the antidiagonal unit.

    When an orbit is supplied it must be regular (a lifted non-trivial orbit);
    the slice decomposition itself is orbit independent.
    """
    if orbit is not None and not orbit.regular:
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
        vec = lambda m: m.coeff_vector(D, 0, 0)
        span = Span(ctx, len(vec(J)))
        for m in pi_mats:
            if not span.add(vec(m)):
                return False
        for m in pij_mats:
            if not span.add(vec(m)):
                return False  # intersection nonzero
        target = 4 if d == 0 else 8
        if span.dim != target:
            return False
    return True


# ---------------------------------------------------------------------------
# the enlarged centre for SL2


@dataclass
class TildeZ:
    """Component list of the enlarged central algebra: one k[X] factor for the
    trivial orbit and one nodal factor per nontrivial SL2 orbit (via the fixed
    lift of its representative)."""

    components: list = field(default_factory=list)


def build_tilde_z(tctx):
    comps = [("k[X]", None)]
    q = tctx.q
    for orb in orbit_partition(GroupKind.SL2, q):
        small = min(c.exps[0] for c in orb.members)
        if small == 0:
            continue  # trivial orbit contributes the k[X] factor
        lift = lift_character(next(c for c in orb.members if c.exps[0] == small))
        comps.append(("A", orbit_of(lift)))
    return TildeZ(comps)


# ---------------------------------------------------------------------------
# Ollivier-Schneider exactness at a specialisation


class _Trunc:
    """Coordinates on M2(A)_{<= D} (x) k^2 at a fixed Z-specialisation."""

    def __init__(self, ctx, D):
        self.ctx = ctx
        self.D = D
        self.index = {}  # (i, j, signed X-degree) -> matrix-basis position
        self.slices = []  # (degree, i, j, branch)
        k = 0
        for d in range(D + 1):
            branches = [(0, 0)] if d == 0 else [(1, d), (2, d)]
            for i in range(2):
                for j in range(2):
                    for br, deg in branches:
                        self.index[(i, j, deg if br == 1 else -deg)] = k
                        self.slices.append((d, i, j, br))
                        k += 1
        self.nmat = k
        self.dim = 2 * k

    def mat_basis(self, k):
        d, i, j, br = self.slices[k]
        ctx = self.ctx
        rows = [[_zero(ctx), _zero(ctx)], [_zero(ctx), _zero(ctx)]]
        rows[i][j] = _sc(ctx, 1) if d == 0 else _mono(ctx, br, d)
        return Mat2(ctx, rows)

    def vec(self, mat: Mat2, mvec):
        """Dense vector of mat (x) (mvec_0 m_0 + mvec_1 m_1); drops degrees > D."""
        ctx = self.ctx
        out = [0] * self.dim
        for i in range(2):
            for j in range(2):
                for (z, k), c in mat.a[i][j].terms.items():
                    pos = self.index.get((i, j, k))
                    if z or pos is None:
                        continue
                    for mj in (0, 1):
                        if mvec[mj]:
                            slot = 2 * pos + mj
                            out[slot] = ctx.add_i(out[slot], ctx.mul_i(c, mvec[mj]))
        return out


def _vsub(ctx, a, b):
    add, neg = ctx.add, ctx.neg
    return [add[x][neg[y]] for x, y in zip(a, b)]


def os_resolution_check(tctx, orbit, module, lam_idx, D):
    """Exactness of 0 -> H (x)_{H_C^+} M^eps -> H (x)_{H_x0^+} M -> M -> 0
    after specialising the central Laurent variable to lambda and truncating
    the X-degree at D; exactness is certified in filtration degrees <= D-1.

    `module` is the supersingular module M_{gamma,lambda}; None means the zero
    module, which is trivially exact.  The orientation twist on the chamber
    term sends the omega generator to minus its module action.

    The complex does not depend on the orbit: at Z = lambda every regular GL2
    block has the same M2(A) presentation (the idempotents go to E11 and E22,
    T_omega to (0 lambda; 1 0), T_s0 to (0 X1; lambda^-1 X2 0)), and M_{gamma,
    lambda} is k^2 with T_omega acting by the same matrix; gamma enters only
    through which torus characters the idempotents stand for.  So the
    arguments are validated on every call, and the report is computed once per
    (field, lambda, D) in the TorusCtx cache.
    """
    if D < 2:
        raise TruncationTooSmall("need D >= 2")
    ctx = tctx.field
    if lam_idx == 0:
        raise KindMismatch("lambda must be nonzero")
    if not orbit.regular:
        raise WrongRegularity("Ollivier-Schneider check runs on regular GL2 blocks")
    if module is None:
        return {"pass": True, "trivial": True}
    if module.orbit != orbit:
        raise KindMismatch("module does not factor through this block")
    if module.lam_idx != lam_idx:
        raise KindMismatch("module was built for a different lambda")
    key = ("os_resolution", ctx.key, lam_idx, D)
    report = tctx.cache.get(key)
    if report is None:
        report = tctx.cache[key] = _os_resolution_report(ctx, lam_idx, D)
    return {**report, "dims": dict(report["dims"])}


def _os_resolution_report(ctx, lam_idx, D):
    """The body of os_resolution_check for validated arguments."""
    lam_inv = ctx.inv_i(lam_idx)
    one = _sc(ctx, 1)
    z0 = _zero(ctx)
    # the block model at Z = lambda: M2(A)
    E11 = Mat2(ctx, [[one, z0], [z0, z0]])
    E22 = Mat2(ctx, [[z0, z0], [z0, one]])
    W = Mat2(ctx, [[z0, _sc(ctx, lam_idx)], [one, z0]])
    W_inv = Mat2(ctx, [[z0, one], [_sc(ctx, lam_inv), z0]])
    T = Mat2(ctx, [[z0, _mono(ctx, 1, 1)], [_mono(ctx, 2, 1, coeff=lam_inv), z0]])
    W0 = W.evaluate(0, 0, 1)
    E110 = E11.evaluate(0, 0, 1)
    E220 = E22.evaluate(0, 0, 1)
    Z20 = [[0, 0], [0, 0]]

    tr = _Trunc(ctx, D)
    basis_m = ((1, 0), (0, 1))
    mats = [tr.mat_basis(k) for k in range(tr.nmat)]
    degs = [tr.slices[k][0] for k in range(tr.nmat)]

    # relation subspaces
    rel0 = Span(ctx, tr.dim)
    right0 = [(E11, E110, 0), (E22, E220, 0), (T.mul(E11), Z20, 1), (T.mul(E22), Z20, 1)]
    for k, x in enumerate(mats):
        for r_mat, r_act, r_deg in right0:
            if degs[k] + r_deg > D:
                continue
            for mv in basis_m:
                v = tr.vec(x.mul(r_mat), mv)
                v = _vsub(ctx, v, tr.vec(x, mat_vec(ctx, r_act, mv)))
                rel0.add(v)

    rel1 = Span(ctx, tr.dim)
    right1 = [
        (E11, E110),
        (E22, E220),
        (W.mul(E11), mat_scal(ctx, ctx.neg_i(1), mat_mul(ctx, W0, E110))),
        (W.mul(E22), mat_scal(ctx, ctx.neg_i(1), mat_mul(ctx, W0, E220))),
    ]
    for k, x in enumerate(mats):
        for r_mat, r_act in right1:
            for mv in basis_m:
                v = tr.vec(x.mul(r_mat), mv)
                v = _vsub(ctx, v, tr.vec(x, mat_vec(ctx, r_act, mv)))
                rel1.add(v)

    # boundary and counit on the ambient basis, then extended linearly
    bnd = {}
    eps = {}
    for k, x in enumerate(mats):
        x0 = x.evaluate(0, 0, 1)
        xw = x.mul(W_inv)
        for mj in (0, 1):
            mv = basis_m[mj]
            v = tr.vec(x, mv)
            v = _vsub(ctx, v, tr.vec(xw, mat_vec(ctx, W0, mv)))
            bnd[(k, mj)] = v
            eps[(k, mj)] = mat_vec(ctx, x0, mv)

    def apply_linear(table, vec, out_dim):
        out = [0] * out_dim
        for k in range(tr.nmat):
            for mj in (0, 1):
                c = vec[2 * k + mj]
                if c:
                    tv = table[(k, mj)]
                    mc = ctx.mul[c]
                    out = [ctx.add_i(o, mc[t]) for o, t in zip(out, tv)]
        return out

    report = {"D": D, "dim_ambient": tr.dim}
    report["boundary_descends"] = all(
        rel0.contains(apply_linear(bnd, row, tr.dim)) for row in rel1.rows
    )
    report["counit_kills_relations"] = all(
        apply_linear(eps, row, 2) == [0, 0] for row in rel0.rows
    )
    report["counit_after_boundary_zero"] = all(
        apply_linear(eps, bnd[(k, mj)], 2) == [0, 0]
        for k in range(tr.nmat)
        if degs[k] <= D - 1
        for mj in (0, 1)
    )
    eps_span = Span(ctx, 2)
    for v in eps.values():
        eps_span.add(v)
    report["counit_surjective"] = eps_span.dim == 2

    N = D - 1
    low = [k for k in range(tr.nmat) if degs[k] <= N]
    sp = rel1.copy()
    d1 = sum(1 for k in low for mv in basis_m if sp.add(tr.vec(mats[k], mv)))
    sp = rel0.copy()
    i1 = sum(1 for k in low for mj in (0, 1) if sp.add(bnd[(k, mj)]))
    sp = rel0.copy()
    d0 = sum(1 for k in low for mv in basis_m if sp.add(tr.vec(mats[k], mv)))
    k0 = d0 - 2
    report["dims"] = {"T1": d1, "boundary_image": i1, "T0": d0, "ker_counit": k0}
    report["boundary_injective"] = i1 == d1
    report["exact_middle"] = i1 == k0
    report["pass"] = all(
        report[key]
        for key in (
            "boundary_descends",
            "counit_kills_relations",
            "counit_after_boundary_zero",
            "counit_surjective",
            "boundary_injective",
            "exact_middle",
        )
    )
    return report
