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
through the rows of the group law of T(F_q) (`TorusTable.row`), built only
for the torus elements that a product reaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, CtxMismatch, KindMismatch, RelationViolation
from .rings import _canon, _scaled, _sum
from .torus import (
    CharOrbit,
    GroupKind,
    TorusChar,
    TorusCtx,
    coroot_neg1,
    enumerate_characters,
    mu_alpha_order,
    orbit_of,
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
        row = tab.row(t_s)
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
    the row of each torus part of T_x T_v0 in the group law of T(F_q)
    (`TorusTable.row`).  On k[T(F_q)], the span of the T_t, this is the
    group-algebra convolution.
    """
    _check_same(x, y)
    tctx, kind = x.tctx, x.kind
    tab = tctx.torus_table(kind)
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
            row, scaled = tab.row(wt), mul[cw]
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


def omega_matrix(lam_idx):
    """T_omega on M_{gamma,lambda}: e0 -> e1 and e1 -> lambda e0."""
    return [[0, lam_idx], [1, 0]]


class SupersingAction:
    """T_s0, T_s1 and the torus acting on a simple supersingular module: all
    of M_{gamma,lambda} but T_omega.  For GL2/PGL2 this is the lambda-free part,
    one per regular orbit gamma (2-dimensional, basis e0, e1); for SL2 it is
    the whole 1-dimensional character module chi_n (a `SupersingModule`)."""

    def __init__(self, tctx, kind, orbit, char=None):
        self.tctx = tctx
        self.kind = kind
        self.char = char  # SupersingChar for SL2
        if kind is GroupKind.SL2:
            self.orbit = orbit if orbit is not None else orbit_of(char.restriction)
            self.dim = 1
            self.mats = {"Ts0": [[char.value_i(tctx, "Ts0")]], "Ts1": [[char.value_i(tctx, "Ts1")]]}
        else:
            if not orbit.regular:
                raise KindMismatch("M_{gamma,lambda} requires a regular orbit")
            self.orbit = orbit
            self.dim = 2
            self.mats = {"Ts0": [[0, 0], [0, 0]], "Ts1": [[0, 0], [0, 0]]}

    @property
    def _characters(self):
        """(xi, xi^{s0}): the torus acts on e0 through xi and on e1 through xi^{s0}."""
        return self.orbit.pair()

    def torus_matrix(self, t):
        """Action of the torus element with index t."""
        if self.kind is GroupKind.SL2:
            return [[self.char.restriction.eval_i(self.tctx, t)]]
        xi, xi_tw = self._characters
        return [[xi.eval_i(self.tctx, t), 0], [0, xi_tw.eval_i(self.tctx, t)]]


def check_action(action):
    """Certify the lambda-free part of a supersingular module's shape, parts
    1 (T_s0 = T_s1 = 0) and 2 (the omega/torus relation: the torus twisted by
    the swap of e0 and e1) of `SupersingModule.check`; raises
    RelationViolation on failure.

    Nothing here reads lambda, so a census runs it once per orbit (once per
    character for SL2, which has no part 2) for all of its lambdas.
    """
    tctx, kind = action.tctx, action.kind
    zero = [[0] * action.dim for _ in range(action.dim)]
    for name in ("Ts0", "Ts1"):
        if action.mats[name] != zero:
            raise RelationViolation(f"{name} does not act by 0")
    if kind is GroupKind.SL2:
        return
    tab = tctx.torus_table(kind)
    rho = {t: action.torus_matrix(t) for t in tab.gens}
    for t in tab.gens:
        (a, b), (c, d) = rho[t]
        # for GL2 the twisted generators are the generators, swapped
        twisted = rho.get(tab.s0[t]) or action.torus_matrix(tab.s0[t])
        if twisted != [[d, c], [b, a]]:
            raise RelationViolation("omega/torus relation fails")


def check_omega(tomega, lam_idx):
    """Certify part 3 of `SupersingModule.check`, T_omega = [[0, lambda], [1, 0]]
    with lambda != 0; raises RelationViolation on failure.  Nothing here reads
    the orbit, so a census runs it once per lambda for all of its orbits."""
    if not lam_idx or tomega != [[0, lam_idx], [1, 0]]:
        raise RelationViolation("T_omega is not [[0, lambda], [1, 0]] with lambda != 0")


class SupersingModule(SupersingAction):
    """Simple supersingular module M_{gamma,lambda} for GL2/PGL2: the orbit's
    action plus T_omega = [[0, lambda], [1, 0]]; or a 1-dimensional character
    module for SL2, which carries no lambda (`lam_idx` is kept at 1)."""

    def __init__(self, tctx, kind, orbit, lam_idx, char=None):
        super().__init__(tctx, kind, orbit, char)
        self.lam_idx = lam_idx  # field index of lambda (1 for PGL2)
        if kind is not GroupKind.SL2:
            self.mats["Tomega"] = omega_matrix(lam_idx)

    def check(self):
        """Certify the module's shape; raises RelationViolation on failure.

        Every module the package builds (M_{gamma,lambda} for GL2/PGL2, chi_n
        for SL2) has T_s0 = T_s1 = 0, so the check asks for exactly that shape:

        1. T_s0 and T_s1 act by 0;
        2. at each torus generator t, rho(t^{s0}) = P rho(t) P with P the swap
           of e0 and e1 (GL2/PGL2, the "omega/torus" relation);
        3. for GL2/PGL2, T_omega = [[0, lambda], [1, 0]] with lambda != 0.

        The torus acts through the labelled characters by definition:
        `torus_matrix` evaluates them, rho(t) = diag(xi(t), xi^{s0}(t)) for
        (xi, xi^{s0}) = orbit.pair(), or [chi(t)] for SL2, so no part compares
        rho with the characters.

        Parts 1-3 give every defining relation.  With T_s = 0 the quadratic
        relations, T_s rho(t) = rho(t^{s0}) T_s and T_omega T_s0 T_omega^-1 =
        T_s1 all read 0 = 0.  T_omega = P diag(1, lambda) is invertible,
        T_omega diag(a, b) T_omega^-1 = diag(b, a) = rho(t^{s0}) by 2, and
        T_omega^2 = lambda.  The torus relations are needed at the generators
        only: rho is a homomorphism and t -> t^{s0} an automorphism of T, so a
        relation that holds at t and at u holds at tu, and the generators
        reach all of T.

        Parts 1 and 2 are `check_action` and read the orbit alone; part 3 is
        `check_omega` and reads lambda alone.  The census runs the same two
        functions once per orbit and once per lambda
        (`SupersingularCensus.check`).
        """
        check_action(self)
        if self.kind is not GroupKind.SL2:
            check_omega(self.mats["Tomega"], self.lam_idx)
        return True

    def label(self):
        if self.kind is GroupKind.SL2:
            return f"chi_{self.char.restriction.exps[0]}"
        return f"M[{self.orbit.member_exps};lam={self.lam_idx}]"


@dataclass
class SupersingularCensus:
    """The simple supersingular modules of a kind, kept as the product they
    are: `actions` (the lambda-free parts, one per regular orbit, in the order
    of `orbit_partition`) times `lambdas` (field indices; (1,) for PGL2), with
    T_omega built once per lambda (`omegas`).  For SL2 the modules are the
    characters chi_n, which carry no lambda: each action is its own module
    and `lambdas` is empty."""

    tctx: TorusCtx
    kind: GroupKind
    characters: list
    actions: tuple
    lambdas: tuple
    omegas: tuple = field(init=False)

    def __post_init__(self):
        self.omegas = tuple(omega_matrix(lam) for lam in self.lambdas)

    @property
    def module_count(self):
        if self.kind is GroupKind.SL2:
            return len(self.actions)
        return len(self.actions) * len(self.lambdas)

    @property
    def modules(self):
        """The modules one by one, orbit-major (every lambda of the first
        orbit, then of the next), built on each call; the suites never need
        them."""
        if self.kind is GroupKind.SL2:
            return list(self.actions)
        return [
            SupersingModule(self.tctx, self.kind, a.orbit, lam)
            for a in self.actions
            for lam in self.lambdas
        ]

    def check(self):
        """`SupersingModule.check` on every module, run once per factor:
        `check_action` once per orbit (per character for SL2) and
        `check_omega` once per lambda.  This is sound because the torus
        action and T_s of M_{gamma,lambda} depend on gamma alone and T_omega
        on lambda alone, so a module's check is exactly its orbit's
        `check_action` and its lambda's `check_omega`.  Raises
        RelationViolation on failure."""
        for action in self.actions:
            check_action(action)
        for tomega, lam in zip(self.omegas, self.lambdas):
            check_omega(tomega, lam)
        return True


def enumerate_supersingular(tctx: TorusCtx, kind: GroupKind, lambdas=None):
    """All supersingular characters plus the simple supersingular modules.

    For GL2 the census takes every regular orbit times every lambda, given
    as field indices (default: all of F_q^x); for PGL2 lambda is fixed to 1;
    for SL2 the modules are the infinite-projective-dimension characters
    chi_n.  No module object is built: the census holds one action per orbit
    and the lambda list (`SupersingularCensus`).  It is built once per
    (kind, lambdas) and kept in `tctx.cache`, so the suites of one run share
    it; callers only read it.
    """
    q = tctx.q
    if kind is GroupKind.SL2:
        lambdas = ()
    elif lambdas is None:
        lambdas = [1] if kind is GroupKind.PGL2 else [tctx.value_i(e) for e in range(q - 1)]
    elif not lambdas:
        # the census and its parameter map would be empty products
        raise ConfigError(f"a {kind} census needs at least one lambda")
    key = ("supersingular_census", kind, tuple(lambdas))
    census = tctx.cache.get(key)
    if census is not None:
        return census
    if kind is GroupKind.SL2:
        actions = tuple(
            SupersingModule(tctx, kind, None, 1, char=sl2_chi(q, n)) for n in range(1, q - 1)
        )
    else:
        actions = tuple(
            SupersingAction(tctx, kind, orb) for orb in orbit_partition(kind, q) if orb.regular
        )
    census = tctx.cache[key] = SupersingularCensus(
        tctx, kind, supersingular_characters(kind, q), actions, tuple(lambdas)
    )
    return census
