"""The rank-one pro-p Hecke algebra in the Iwahori-Matsumoto basis.

Extended Weyl group elements are kept in the normal form

    omega^a . s_{word} . t

with `word` a strictly alternating string over {s0, s1} and t a finite torus
element, and are stored as the plain tuple (a, word, t) with t the torus index
(`torus.torus_index`); a HeckeElt maps these tuples to field indices and
carries the kind and the TorusCtx.  `weyl` is the validating constructor.
Reflection lifts are fixed so that s_i^2 = alpha^vee(-1) (the class of the
standard matrix lifts), but no product of the package reads that: `hecke_mul`
peels letters with the quadratic relation, and the one product in the group
it forms is by omega^a (`_times_omega`), which cancels no letter.

The group algebra k[T(F_q)] is the span of the T_t, so the block idempotents
are Hecke elements too, and `hecke_mul` is the one product.  It groups the
right factor's terms by their torus-free part and peels one generator of that
part at a time (each step a single length-additive or quadratic-relation case,
which bounds the work by the word length), then multiplies the torus parts
by the group law of T(F_q), exponent addition on the digits of their indices
(`torus.torus_mul`), into one dict per torus-free part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

from .errors import ConfigError, CtxMismatch, KindMismatch, RelationViolation
from .rings import _canon, _scaled, _sum
from .torus import (
    GroupKind,
    TorusCtx,
    char_value_i,
    coroot_image,
    mu_alpha_order,
    orbit_list_faults,
    orbit_pairs,
    s0_exps,
    s0_index,
    torus_exps,
    torus_generators,
    torus_index,
    torus_mul,
    torus_order,
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


def _times_omega(kind, q, x, a):
    """The term key of x omega^a, using omega s_i omega^-1 = s_{1-i} and
    omega t omega^-1 = t^{s0}: omega^b s_word t omega^a =
    omega^(b+a) s_(word flipped a times) t^(s0^a)."""
    b, word, t = x
    if a % 2:
        t = s0_index(kind, q, t)
    return (b + a) % 2 if kind is GroupKind.PGL2 else b + a, _flip_word(word, a), t


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
    gens += [("Tt" + "".join(map(str, u)), gen_Tt(tctx, kind, u)) for u in torus_generators(kind)]
    if kind is not GroupKind.SL2:
        gens.append(("Tomega", gen_Tomega(tctx, kind)))
    return gens


# -- multiplication ---------------------------------------------------------


def _single_letter(tctx, kind, x, j, out, coeff):
    """Accumulate coeff * T_x T_{s_j} into `out` (dict key -> coeff, zeros kept):
    T_t T_s = T_s T_{t^{s0}}, and T_s T_s = T_s c_s with c_s = mu_alpha
    sum_{r in alpha^vee(F_q^x)} T_r."""
    a, word, t = x
    q, fld, add = tctx.q, tctx.field, tctx.field.add
    t_s = s0_index(kind, q, t)
    if word and word[-1] == j:
        c = fld.mul[coeff][fld.scalar_i(mu_alpha_order(kind))]
        for m in torus_mul(kind, q, t_s, coroot_image(kind, q)):
            w = (a, word, m)
            out[w] = add[out.get(w, 0)][c]
    else:
        w = (a, word + (j,), t_s)
        out[w] = add[out.get(w, 0)][coeff]


def _times_v0(tctx, kind, terms, a, word):
    """The terms of T_x T_v0, zeros dropped, for the term map `terms` of x
    and the torus-free v0 = omega^a s_word."""
    current = terms
    for letter in word:
        # peel the first letter: omega^a s_i = s_{i+a} omega^a
        j = (letter + a) % 2
        nxt = {}
        for x, c in current.items():
            _single_letter(tctx, kind, x, j, nxt, c)
        current = _canon(nxt)
    if not a:
        return current
    # what is left is omega^a: T_x T_{omega^a} = T_{x omega^a}
    out, add = {}, tctx.field.add
    for x, c in current.items():
        w = _times_omega(kind, tctx.q, x, a)
        out[w] = add[out.get(w, 0)][c]
    return out


def hecke_mul(x: HeckeElt, y: HeckeElt):
    """The product x . y, the only product on HeckeElt.

    H is a free right k[T(F_q)]-module on the torus-free basis elements T_v0,
    v0 = omega^a s_word, with T_{v0 t} = T_v0 T_t (Vigneras 2016).  Right
    multiplication by T_t only multiplies torus parts: T_w T_t = T_{w t}, and
    w t keeps the omega power and word of w.  Hence

        T_u T_{v0 t} = (T_u T_v0) T_t.

    The terms of y are grouped by v0: x is multiplied by T_v0 once per group
    by peeling letters (`_times_v0`), and the group's torus parts multiply
    those of T_x T_v0 by the group law of T(F_q), exponent addition on index
    digits (`torus_mul`, each term of the shorter side into all of the
    longer: T is abelian), into one dict per torus-free part of the product.
    On k[T(F_q)], the span of the T_t, this is the group-algebra convolution.
    """
    _check_same(x, y)
    tctx, kind, q = x.tctx, x.kind, x.tctx.q
    add, mul = tctx.field.add, tctx.field.mul
    groups = {}
    for (a, word, t), c in y.terms.items():
        groups.setdefault((a, word), []).append((t, c))
    acc = {}  # (omega_pow, word) -> {torus part: coefficient}
    for (a, word), torus_terms in groups.items():
        parts = {}  # the terms of T_x T_v0 by torus-free part: [(torus part, coefficient)]
        for (wa, wword, wt), cw in _times_v0(tctx, kind, x.terms, a, word).items():
            parts.setdefault((wa, wword), []).append((wt, cw))
        for key, terms in parts.items():
            part = acc.setdefault(key, {})
            # T is abelian and F commutative: multiply each term of the shorter side
            # into all of the longer
            outer, inner = sorted((terms, torus_terms), key=len)
            ts, cs = zip(*inner)
            for s, c in outer:
                scaled = mul[c]
                for m, b in zip(torus_mul(kind, q, s, ts), cs):
                    part[m] = add[part.get(m, 0)][scaled[b]]
    terms = {(a, w, m): c for (a, w), part in acc.items() for m, c in part.items() if c}
    return _hecke(tctx, kind, terms)


def idempotent(tctx, kind, xi):
    """e_xi = |T|^{-1} sum_t xi(t^{-1}) T_t for the character with exponent
    vector xi, an element of k[T(F_q)] inside H; xi(t^{-1}) is the value at
    t of the character with exponent vector -xi."""
    fld, order = tctx.field, torus_order(kind, tctx.q)
    row = fld.mul[fld.inv_i(fld.scalar_i(order))]
    inverse = [-e for e in xi]
    return _hecke(
        tctx, kind, {(0, (), t): row[char_value_i(tctx, kind, inverse, t)] for t in range(order)}
    )


def orbit_idempotent(tctx, kind, pair):
    """e_gamma for the orbit listed as the exponent pair (xi, xi^{s0}): e_xi
    for non-regular orbits, e_xi + e_{xi^{s0}} for regular ones."""
    return reduce(HeckeElt.add, (idempotent(tctx, kind, xi) for xi in dict.fromkeys(pair)))


def is_central(x: HeckeElt):
    return all(hecke_mul(x, g) == hecke_mul(g, x) for _, g in generators(x.tctx, x.kind))


def idempotent_system(tctx, kind):
    """Whether `hecke_mul` and zeta meet the premises from which the e_gamma
    = sum_{xi in gamma} e_xi, e_xi = |T|^{-1} sum_t xi(t^{-1}) T_t, of a list
    holding each Weyl orbit of characters once are orthogonal central
    idempotents of H with sum 1.  It builds no idempotent; the blocks suite
    reads it with the run's list certificate (`counts_match`).

    Theorems: (T1) k[T] is the group algebra of T in H, T_t T_u = T_{tu},
    and T_t T_g = T_g T_{t^{s0}} for g = T_s0, T_s1, T_omega (Vigneras 2016);
    (T2) |T| = (q - 1)^r is prime to p, and with zeta of exact order q - 1
    the characters are the exponent vectors mod q - 1, so by character
    orthogonality on the finite abelian T the e_xi are orthogonal idempotents
    with sum 1; (T3) by (T1) T_g e_xi = e_{xi o s0} T_g, so e_gamma commutes
    with T_g when gamma is closed under the twist, and with k[T], which is
    commutative; (T4) the listed orbits (xi, xi^{s0}) are closed under the
    twist and, by the list certificate (`torus.orbit_list_faults`), partition
    the characters: the e_gamma are orthogonal central idempotents, sum 1.

    Premises, checked, that `hecke_mul` and zeta are what (T1), (T2) read:
    (P1) the group-law rows T_ti sum_t c_t T_t = sum_t c_t T_{t_i t} at the
    torus generators, the right side keyed by `torus_index` of the summed
    exponent vectors, never `torus_mul`; c_t = zeta^{exps(t)_j} tags t by one
    digit, one row per digit j, which with (P3) pins every entry (all c_t = 1
    would pass any bijection of T).  The tagged sum is |T| e_xi, xi = -(unit
    vector j): these are T_ti e_xi = xi(t_i) e_xi at r characters.  (P2) T_t
    T_g = T_g T_{t^{s0}} at the torus generators, keyed by `s0_exps`.  (P3)
    zeta has exact order q - 1 (`TorusCtx.zeta_fault`).  So the cost is r^2
    products of |T| terms.  The limit: a wrong `idempotent` passes here, as
    the verdict rests on the formula for e_xi; `models.center_elements` and
    the oracle `tests/oracles.py::pairwise_idempotent_system` build them.
    """
    if tctx.zeta_fault():
        return False
    q, units = tctx.q, torus_generators(kind)
    movers = [(0, (0,)), (0, (1,))] + ([] if kind is GroupKind.SL2 else [(1, ())])
    for u, (a, word) in product(units, movers):
        moved = hecke_mul(gen_Tt(tctx, kind, u), hecke_basis(tctx, kind, weyl(kind, q, a, word)))
        if moved.terms != {weyl(kind, q, a, word, s0_exps(kind, q, u)): 1}:
            return False
    exps = [torus_exps(kind, q, t) for t in range(torus_order(kind, q))]
    keys = {u: [torus_index(kind, q, [a + b for a, b in zip(e, u)]) for e in exps] for u in units}
    for j in range(len(units)):
        tags = [tctx.value_i(e[j]) for e in exps]
        tagged = _hecke(tctx, kind, {(0, (), t): c for t, c in enumerate(tags)})
        for u, row_keys in keys.items():
            row = hecke_mul(gen_Tt(tctx, kind, u), tagged).terms
            if row != {(0, (), m): c for m, c in zip(row_keys, tags)}:
                return False
    return True


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
# the supersingular census


@dataclass
class SupersingularCensus:
    """The simple supersingular modules of a kind, kept as the indices they
    are: a module is an orbit pair (xi, xi^{s0}) and a lambda, with no module
    object and no matrix stored.

    For GL2/PGL2, `pairs` is the regular list of `orbit_pairs` and `lambdas`
    the field indices of lambda ((1,) for PGL2).  M_{gamma,lambda} has basis
    e0, e1, T_s0 = T_s1 = 0, the torus acting on e0 through xi and on e1
    through xi^{s0}, and T_omega = [[0, lambda], [1, 0]].  For SL2, `pairs` is
    the regular list and then the sign list, with no lambda, and each member
    of an orbit is a module: the character chi_n (T_s0 = T_s1 = 0 on a
    line), one for each n != 0, the characters of infinite projective
    dimension."""

    tctx: TorusCtx
    kind: GroupKind
    pairs: tuple
    lambdas: tuple

    @property
    def module_count(self):
        if self.kind is GroupKind.SL2:
            return sum(len(set(pair)) for pair in self.pairs)
        return len(self.pairs) * len(self.lambdas)

    def class_lists(self):
        """The census's orbit lists by class, as the list certificate reads
        them: all of `pairs` as the regular list for GL2/PGL2; for SL2 the
        pairs with two members as the regular list and those with one, (x,
        x), as the sign list."""
        if self.kind is not GroupKind.SL2:
            return {"regular": self.pairs}
        return {
            "regular": tuple(pair for pair in self.pairs if pair[0] != pair[1]),
            "sign": tuple(pair for pair in self.pairs if pair[0] == pair[1]),
        }

    def check(self):
        """Certify every module of the census at once; raises
        RelationViolation on the first fault.

        M_{gamma,lambda} is defined by T_s0 = T_s1 = 0 and T_omega = [[0,
        lambda], [1, 0]], with the torus acting through the pair's
        characters, rho(t) = diag(xi(t), xi'(t)).  So the defining relations
        that hold a T_s (the quadratic relations, T_s rho(t) = rho(t^{s0})
        T_s and T_omega T_s0 T_omega^-1 = T_s1) read 0 = 0, and the others
        ask only what the census's data can get wrong:
        (a) T_omega rho(t) T_omega^-1 = diag(xi'(t), xi(t)) is rho(t^{s0}):
            xi(t^{s0}) = xi'(t) and xi'(t^{s0}) = xi(t).  With t^{s0} and
            xi' = xi^{s0} both `s0_exps` of their exponent vectors, a swap or
            a negation, <s0(t), xi> = <t, s0(xi)>, and s0 is an involution:
            this holds once (b) certifies xi';
        (b) the pairs are the orbits (xi, s0_exps(xi)), each once: the list
            certificate `orbit_list_faults` on `class_lists` (each pair is
            an orbit of its list's class listed from its smallest member xi,
            the smallest members are distinct, and each class has its
            `orbit_counts` orbits);
        (c) T_omega is invertible and T_omega^2 = lambda lies in the centre:
            lambda != 0, and lambda = 1 for PGL2 (T_omega^2 = 1 in H_PGL2).
        So (b) and (c) are checked, (b) alone for SL2, on its regular and
        sign lists.  The first faulty pair is named, else the list's fault.
        """
        tctx, kind = self.tctx, self.kind
        bad, fault = orbit_list_faults(kind, tctx.q, self.class_lists())
        for faults in bad.values():
            if faults:
                raise RelationViolation(faults[min(faults)])
        if fault:
            raise RelationViolation(fault)
        for lam in self.lambdas:
            if not lam:
                raise RelationViolation("T_omega is not [[0, lambda], [1, 0]] with lambda != 0")
            if kind is GroupKind.PGL2 and lam != 1:
                raise RelationViolation(f"T_omega^2 = {lam} != 1 in a PGL2 module")
        return True


def enumerate_supersingular(tctx: TorusCtx, kind: GroupKind, lambdas=None, classes=None):
    """The simple supersingular modules of `kind` (`SupersingularCensus`):
    for GL2 every regular orbit times every lambda, given as field indices
    (default: all of F_q^x), for PGL2 lambda = 1 alone (T_omega^2 = 1 in
    H_PGL2), for SL2 the regular and sign orbits, whose members are the
    chi_n, with no lambda; another lambda list is a ConfigError.  The orbits
    are read off `classes`, the class lists of `orbit_pairs` (default: built
    here), and no character, orbit or module object is built.  Each call
    builds a census; a run builds one per kind (`cli.run`)."""
    q = tctx.q
    if lambdas is None:
        lambdas = [tctx.value_i(e) for e in range(q - 1)] if kind is GroupKind.GL2 else [1]
    elif kind is GroupKind.GL2 and not lambdas:
        # the census and its parameter map would be empty products
        raise ConfigError("a GL2 census needs at least one lambda")
    elif kind is GroupKind.SL2 or kind is GroupKind.PGL2 and list(lambdas) != [1]:
        raise ConfigError(f"a {kind} census takes no lambda list but the default, got {lambdas}")
    if classes is None:
        classes = orbit_pairs(kind, q)
    if kind is GroupKind.SL2:
        # the chi_n, n != 0, are the members of the regular and sign orbits
        return SupersingularCensus(tctx, kind, classes["regular"] + classes["sign"], ())
    return SupersingularCensus(tctx, kind, classes["regular"], tuple(lambdas))
