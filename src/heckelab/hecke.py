"""The rank-one pro-p Hecke algebra in the Iwahori-Matsumoto basis.

Extended Weyl group elements are kept in the normal form

    omega^a . s_{word} . t

with `word` a strictly alternating string over {s0, s1} and t a finite torus
element, and are stored as the plain tuple (a, word, t) with t the torus index
(`torus.torus_index`); a HeckeElt maps these tuples to field indices and
carries the kind and the TorusCtx.  `weyl` is the validating constructor.
Reflection lifts are fixed so that s_i^2 = alpha^vee(-1) (the class of the
standard matrix lifts); all relations re-derive this normal form.

The group algebra k[T(F_q)] is the span of the T_t, so the block idempotents
are Hecke elements too, and `hecke_mul` is the one product.  It groups the
right factor's terms by their torus-free part and peels one generator of that
part at a time (each step a single length-additive or quadratic-relation case,
which bounds the work by the word length), then applies the torus parts
through the dense multiplication table of T(F_q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CtxMismatch, KindMismatch, RelationViolation
from .linalg import identity, inverse, is_zero_mat, mat_add, mat_mul, mat_scal, mat_sub, zeros
from .rings import _canon, _scaled, _sum
from .torus import (
    CharOrbit,
    GroupKind,
    TorusChar,
    TorusCtx,
    coroot_neg1,
    enumerate_characters,
    mu_alpha_order,
    orbit_partition,
    s0_exps,
    torus_exps,
    torus_index,
)


def _flip_word(word, k):
    if k % 2 == 0:
        return word
    return tuple(1 - x for x in word)


def weyl(kind, q, omega_pow=0, word=(), torus_exps=None):
    """The term key (omega_pow, word, t) of omega^omega_pow . s_word . t, with t
    given by its exponent vector (default the identity)."""
    if kind is GroupKind.SL2 and omega_pow != 0:
        raise KindMismatch("SL2 has no omega")
    if kind is GroupKind.PGL2:
        omega_pow %= 2
    word = tuple(word)
    if any(a == b for a, b in zip(word, word[1:])):
        raise KindMismatch("word must strictly alternate")
    return omega_pow, word, 0 if torus_exps is None else torus_index(kind, q, torus_exps)


def weyl_obj(kind, q, w):
    """{omega_pow, word, torus exponents} of a term key, for messages."""
    omega_pow, word, t = w
    return {"omega_pow": omega_pow, "word": list(word), "torus": list(torus_exps(kind, q, t))}


def weyl_mul(kind, q, u, v):
    """Normal-form product, using omega s_i omega^-1 = s_{1-i},
    s_i t s_i^-1 = t^{s0}, omega t omega^-1 = t^{s0} and s_i^2 = alpha^vee(-1)."""
    a, word_u, t_u = u
    b, word_v, t_v = v
    left = list(_flip_word(word_u, b))
    right = list(word_v)
    cancels = 0
    while left and right and left[-1] == right[0]:
        left.pop()
        right.pop(0)
        cancels += 1
    exps_u = torus_exps(kind, q, t_u)
    if (b + len(word_v)) % 2:
        exps_u = s0_exps(kind, exps_u)
    eps = torus_exps(kind, q, coroot_neg1(kind, q))
    exps = [x + y + cancels * e for x, y, e in zip(exps_u, torus_exps(kind, q, t_v), eps)]
    omega_pow = (a + b) % 2 if kind is GroupKind.PGL2 else a + b
    return omega_pow, tuple(left + right), torus_index(kind, q, exps)


def weyl_inv(kind, q, u):
    """u^-1 = t^-1 s_word^-1 omega^-a, with s_i^-1 = s_i alpha^vee(-1) and
    alpha^vee(-1) of order two and fixed by s0."""
    a, word, t = u
    out = weyl(kind, q, torus_exps=[-e for e in torus_exps(kind, q, t)])
    for letter in reversed(word):
        out = weyl_mul(kind, q, out, weyl(kind, q, word=(letter,)))
    eps = torus_exps(kind, q, coroot_neg1(kind, q))
    out = weyl_mul(kind, q, out, weyl(kind, q, torus_exps=[len(word) * e for e in eps]))
    return weyl_mul(kind, q, out, weyl(kind, q, omega_pow=-a))


def _check_same(x, y):
    if x.kind is not y.kind or x.tctx.q != y.tctx.q:
        raise KindMismatch(f"mixed Hecke elements: {x.kind}/{x.tctx.q} vs {y.kind}/{y.tctx.q}")
    if x.tctx.field is not y.tctx.field and x.tctx.field.key != y.tctx.field.key:
        raise CtxMismatch("mixed coefficient fields")


class HeckeElt:
    """Finitely supported map (omega_pow, word, torus index) -> nonzero field
    coefficient."""

    __slots__ = ("tctx", "kind", "terms")

    def __init__(self, tctx: TorusCtx, kind: GroupKind, terms=None):
        self.tctx = tctx
        self.kind = kind
        self.terms = {w: c for w, c in terms.items() if c} if terms else {}

    def add(self, other):
        _check_same(self, other)
        return _hecke(self.tctx, self.kind, _sum(self.tctx.field.add, self.terms, other.terms))

    def sub(self, other):
        _check_same(self, other)
        fld = self.tctx.field
        return _hecke(self.tctx, self.kind, _sum(fld.add, self.terms, other.terms, fld.neg))

    def scal(self, c):
        return _hecke(self.tctx, self.kind, _scaled(self.tctx.field.mul, self.terms, c))

    def mul(self, other):
        return hecke_mul(self, other)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        _check_same(self, other)
        return self.terms == other.terms

    def __repr__(self):
        return f"HeckeElt({self.kind}, {len(self.terms)} terms)"


def _hecke(tctx, kind, terms):
    """A HeckeElt around a term map that holds no zero coefficient."""
    out = HeckeElt.__new__(HeckeElt)
    out.tctx = tctx
    out.kind = kind
    out.terms = terms
    return out


def hecke_basis(tctx, kind, w, coeff=1):
    return HeckeElt(tctx, kind, {w: coeff})


def hecke_one(tctx, kind):
    return hecke_basis(tctx, kind, weyl(kind, tctx.q))


def gen_Tt(tctx, kind, exps):
    return hecke_basis(tctx, kind, weyl(kind, tctx.q, torus_exps=exps))


def gen_Ts(tctx, kind, i):
    return hecke_basis(tctx, kind, weyl(kind, tctx.q, word=(i,)))


def gen_Tomega(tctx, kind, power=1):
    if kind is GroupKind.SL2:
        raise KindMismatch("SL2 has no T_omega")
    return hecke_basis(tctx, kind, weyl(kind, tctx.q, omega_pow=power))


def generators(tctx, kind):
    """Generator list (name, element): T_s0, T_s1, the torus generators and
    T_omega.  Used by the centrality tests and the model homomorphism
    certificate (`models._hom_check`, which adds T_omega^-1 for GL2)."""
    gens = [("Ts0", gen_Ts(tctx, kind, 0)), ("Ts1", gen_Ts(tctx, kind, 1))]
    if kind is GroupKind.GL2:
        gens.append(("Tt10", gen_Tt(tctx, kind, (1, 0))))
        gens.append(("Tt01", gen_Tt(tctx, kind, (0, 1))))
        gens.append(("Tomega", gen_Tomega(tctx, kind)))
    else:
        gens.append(("Tt1", gen_Tt(tctx, kind, (1,))))
        if kind is GroupKind.PGL2:
            gens.append(("Tomega", gen_Tomega(tctx, kind)))
    return gens


# -- multiplication ---------------------------------------------------------


def _single_letter(tctx, tab, x, j, out, coeff):
    """Accumulate coeff * T_x T_{s_j} into `out` (dict key -> coeff, zeros kept)."""
    a, word, t = x
    t_s = tab.s0[t]
    fld = tctx.field
    add = fld.add
    if word and word[-1] == j:
        c = fld.mul[coeff][fld.scalar_i(mu_alpha_order(tab.kind))]
        row = tab.mul[t_s]
        for r in tab.coroot:
            w = (a, word, row[r])
            out[w] = add[out.get(w, 0)][c]
    else:
        w = (a, word + (j,), t_s)
        out[w] = add[out.get(w, 0)][coeff]


def _term_mul(tctx, tab, u, a, word, coeff, out):
    """Accumulate coeff * T_u T_v0 into `out` (dict key -> coeff, zeros kept)
    for the torus-free v0 = omega^a s_word."""
    current = {u: coeff}
    for letter in word:
        # peel the first letter: omega^a s_i = s_{i+a} omega^a
        j = (letter + a) % 2
        nxt = {}
        for x, c in current.items():
            _single_letter(tctx, tab, x, j, nxt, c)
        current = _canon(nxt)
        if not current:
            return
    # what is left is omega^a: T_x T_{omega^a} = T_{x omega^a}, which is T_x when a = 0
    add = tctx.field.add
    for x, c in current.items():
        w = weyl_mul(tab.kind, tab.q, x, (a, (), 0)) if a else x
        out[w] = add[out.get(w, 0)][c]


def hecke_mul(x: HeckeElt, y: HeckeElt):
    """The product x . y, the only product on HeckeElt.

    H is a free right k[T(F_q)]-module on the torus-free basis elements T_v0,
    v0 = omega^a s_word, with T_{v0 t} = T_v0 T_t (Vigneras 2016).  Right
    multiplication by T_t only multiplies torus parts: T_w T_t = T_{w t}, and
    w t keeps the omega power and word of w.  Hence

        T_u T_{v0 t} = (T_u T_v0) T_t.

    The terms of y are grouped by v0: x is multiplied by T_v0 once per group
    by peeling letters, and the group's torus coefficients are applied through
    the dense multiplication table of T(F_q).  On k[T(F_q)], the span of the
    T_t, this is the group-algebra convolution.
    """
    _check_same(x, y)
    tctx, kind = x.tctx, x.kind
    tab = tctx.torus_table(kind)
    table = tab.mul
    add, mul = tctx.field.add, tctx.field.mul
    groups = {}
    for (a, word, t), c in y.terms.items():
        groups.setdefault((a, word), []).append((t, c))
    acc = {}  # (omega_pow, word) -> dense torus coefficients
    for (a, word), torus_terms in groups.items():
        prod = {}
        for u, cu in x.terms.items():
            _term_mul(tctx, tab, u, a, word, cu, prod)
        for (wa, wword, wt), cw in prod.items():
            if not cw:
                continue
            dense = acc.get((wa, wword))
            if dense is None:
                dense = acc[wa, wword] = [0] * tab.order
            row, scaled = table[wt], mul[cw]
            for k, c in torus_terms:
                m = row[k]
                dense[m] = add[dense[m]][scaled[c]]
    return _hecke(
        tctx,
        kind,
        {(a, word, m): c for (a, word), dense in acc.items() for m, c in enumerate(dense) if c},
    )


def idempotent(tctx, chi: TorusChar):
    """e_xi = |T|^{-1} sum_t xi(t^{-1}) T_t, an element of k[T(F_q)] inside H."""
    tab = tctx.torus_table(chi.kind)
    fld = tctx.field
    inv_size = fld.inv_i(fld.scalar_i(tab.order))
    row = fld.mul[inv_size]
    return _hecke(
        tctx, chi.kind, {(0, (), t): row[chi.eval_i(tctx, s)] for t, s in enumerate(tab.inv)}
    )


def orbit_idempotent(tctx, orbit: CharOrbit):
    """e_gamma: e_xi for non-regular orbits, e_xi + e_{xi^{s0}} for regular ones."""
    out = HeckeElt(tctx, orbit.kind)
    for chi in orbit.members:
        out = out.add(idempotent(tctx, chi))
    return out


def is_central(x: HeckeElt):
    return all(hecke_mul(x, g) == hecke_mul(g, x) for _, g in generators(x.tctx, x.kind))


def pgl2_reduce(tctx_pgl: TorusCtx, x: HeckeElt):
    """Quotient map H_GL2 -> H_PGL2 killing T_omega^2 - 1 and central T_t - 1."""
    if x.kind is not GroupKind.GL2:
        raise KindMismatch("pgl2_reduce expects a GL2 element")
    q = x.tctx.q
    add = tctx_pgl.field.add
    out = {}
    for (a, word, t), c in x.terms.items():
        e1, e2 = torus_exps(GroupKind.GL2, q, t)
        key = (a % 2, word, torus_index(GroupKind.PGL2, q, (e1 - e2,)))
        out[key] = add[out.get(key, 0)][c]
    return _hecke(tctx_pgl, GroupKind.PGL2, _canon(out))


# ---------------------------------------------------------------------------
# supersingular characters and modules


@dataclass(frozen=True)
class SupersingChar:
    """Character of the affine algebra: restriction to T(F_q) plus the two
    reflection values; finite_pd records Koziol's criterion (case (ii))."""

    restriction: TorusChar
    ts0_val: int  # 0 or -1 (as integers)
    ts1_val: int
    finite_pd: bool

    def value_i(self, tctx, gen_name):
        fld = tctx.field
        v = {"Ts0": self.ts0_val, "Ts1": self.ts1_val}[gen_name]
        return fld.scalar_i(v % fld.p)


def supersingular_characters(kind, q):
    """All supersingular characters of the affine algebra, with Koziol flags."""
    out = []
    for xi in enumerate_characters(kind, q):
        if not xi.trivial_on_coroot_image():
            out.append(SupersingChar(xi, 0, 0, finite_pd=False))
        else:
            out.append(SupersingChar(xi, 0, -1, finite_pd=True))
            out.append(SupersingChar(xi, -1, 0, finite_pd=True))
    return out


def sl2_chi(q, n):
    """The supersingular character chi_n of H_SL2 (0 < n <= q-2)."""
    xi = TorusChar(GroupKind.SL2, q, (n,))
    if xi.trivial_on_coroot_image():
        raise KindMismatch("chi_n requires n != 0")
    return SupersingChar(xi, 0, 0, finite_pd=False)


def _character_value(tctx, chi, t):
    """chi.eval_i(tctx, t), memoised per (character, t) in `tctx.cache`: a
    census holds one module per orbit and lambda, and all of them evaluate the
    same characters at the same torus elements.  The key is the exponent
    vector, which is the character (the value at t depends on nothing else
    once tctx fixes q)."""
    key = ("character_value", chi.exps, t)
    value = tctx.cache.get(key)
    if value is None:
        value = tctx.cache[key] = chi.eval_i(tctx, t)
    return value


class SupersingModule:
    """Simple supersingular module M_{gamma,lambda} for GL2/PGL2 (2-dimensional,
    basis e0, e1), or a 1-dimensional character module for SL2."""

    def __init__(self, tctx, kind, orbit, lam_idx, char=None):
        self.tctx = tctx
        self.kind = kind
        self.orbit = orbit
        self.lam_idx = lam_idx  # field index of lambda (1 for PGL2)
        self.char = char  # SupersingChar for SL2
        fld = tctx.field
        if kind is GroupKind.SL2:
            self.dim = 1
            v = char.value_i(tctx, "Ts0")
            w = char.value_i(tctx, "Ts1")
            self.mats = {"Ts0": [[v]], "Ts1": [[w]]}
        else:
            if not orbit.regular:
                raise KindMismatch("M_{gamma,lambda} requires a regular orbit")
            self.dim = 2
            zero = 0
            self.mats = {
                "Ts0": [[zero, zero], [zero, zero]],
                "Ts1": [[zero, zero], [zero, zero]],
                "Tomega": [[0, lam_idx], [1, 0]],
            }

    @cached_property
    def _characters(self):
        """(xi, xi^{s0}): the torus acts on e0 through xi and on e1 through xi^{s0}."""
        return self.orbit.pair()

    def torus_matrix(self, t):
        """Action of the torus element with index t."""
        if self.kind is GroupKind.SL2:
            return [[_character_value(self.tctx, self.char.restriction, t)]]
        xi, xi_tw = self._characters
        return [
            [_character_value(self.tctx, xi, t), 0],
            [0, _character_value(self.tctx, xi_tw, t)],
        ]

    def check(self):
        """Verify the defining relations on this module; raises on failure.

        The relations between the torus and the other generators,
        T_s rho(t) = rho(t^{s0}) T_s and T_omega rho(t) T_omega^-1 = rho(t^{s0}),
        are checked at the torus generators only.  That suffices: rho is a
        homomorphism and t -> t^{s0} an automorphism of T, so a relation that
        holds at t and at u holds at tu, and the generators reach all of T.
        """
        fld = self.tctx.field
        kind = self.kind
        tab = self.tctx.torus_table(kind)
        # quadratic relations
        mu = fld.scalar_i(mu_alpha_order(kind))
        acc = zeros(self.dim, self.dim)
        for t in tab.coroot:
            acc = mat_add(fld, acc, self.torus_matrix(t))
        for name in ("Ts0", "Ts1"):
            lhs = mat_mul(fld, self.mats[name], self.mats[name])
            rhs = mat_mul(fld, self.mats[name], mat_scal(fld, mu, acc))
            if not is_zero_mat(mat_sub(fld, lhs, rhs)):
                raise RelationViolation(f"quadratic relation fails for {name}")
        # torus conjugation by reflections
        for t in tab.gens:
            for name in ("Ts0", "Ts1"):
                lhs = mat_mul(fld, self.mats[name], self.torus_matrix(t))
                rhs = mat_mul(fld, self.torus_matrix(tab.s0[t]), self.mats[name])
                if not is_zero_mat(mat_sub(fld, lhs, rhs)):
                    raise RelationViolation(f"reflection/torus relation fails for {name}")
        if self.kind is not GroupKind.SL2:
            om = self.mats["Tomega"]
            om_inv = inverse(fld, om)
            lhs = mat_mul(fld, mat_mul(fld, om, self.mats["Ts0"]), om_inv)
            if not is_zero_mat(mat_sub(fld, lhs, self.mats["Ts1"])):
                raise RelationViolation("omega conjugation fails")
            for t in tab.gens:
                lhs = mat_mul(fld, mat_mul(fld, om, self.torus_matrix(t)), om_inv)
                if not is_zero_mat(mat_sub(fld, lhs, self.torus_matrix(tab.s0[t]))):
                    raise RelationViolation("omega/torus relation fails")
            om2 = mat_mul(fld, om, om)
            lam = self.lam_idx
            if not is_zero_mat(mat_sub(fld, om2, mat_scal(fld, lam, identity(2)))):
                raise RelationViolation("T_omega^2 != lambda")
        return True

    def label(self):
        if self.kind is GroupKind.SL2:
            return f"chi_{self.char.restriction.exps[0]}"
        return f"M[{sorted(list(c.exps) for c in self.orbit.members)};lam={self.lam_idx}]"


@dataclass
class SupersingularCensus:
    characters: list
    modules: list


def enumerate_supersingular(tctx: TorusCtx, kind: GroupKind, lambdas=None):
    """All supersingular characters plus the simple supersingular modules.

    For GL2 the module list takes one M_{gamma,lambda} per regular orbit and
    per lambda, given as field indices (default: all of F_q^x); for PGL2 lambda
    is fixed to 1; for SL2 the modules are the infinite-projective-dimension
    characters chi_n.
    """
    q = tctx.q
    chars = supersingular_characters(kind, q)
    modules = []
    if kind is GroupKind.SL2:
        for n in range(1, q - 1):
            modules.append(SupersingModule(tctx, kind, None, 1, char=sl2_chi(q, n)))
    else:
        if lambdas is None:
            lambdas = [1] if kind is GroupKind.PGL2 else [tctx.value_i(e) for e in range(q - 1)]
        for orb in orbit_partition(kind, q):
            if not orb.regular:
                continue
            for lam in lambdas:
                modules.append(SupersingModule(tctx, kind, orb, lam))
    return SupersingularCensus(chars, modules)
