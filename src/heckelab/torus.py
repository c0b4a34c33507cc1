"""Finite torus T(F_q) and its character group with the Weyl action.

All torus and character data are discrete-log exponents relative to the fixed
generator zeta of F_q^x, so the Weyl twist, regularity tests and block labels
are pure integer arithmetic.  A character is its exponent vector.  A torus
element is one integer, its index: diag(zeta^a, zeta^b) in GL2 has index
a*(q-1) + b, diag(zeta^a, zeta^-a) in SL2 and the class of diag(zeta^a, 1) in
PGL2 have index a (exponents mod q-1).  `torus_index` and `torus_exps` encode
and decode it, and `TorusCtx.torus_table` holds the group law on indices.
Field values appear only in character evaluations; the idempotents e_xi live
in the Hecke algebra (`hecke.idempotent`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .errors import CtxMismatch, KindMismatch
from .gf import FieldCtx


class GroupKind(enum.Enum):
    GL2 = "GL2"
    SL2 = "SL2"
    PGL2 = "PGL2"

    def __str__(self):
        return self.value


def _rank(kind):
    return 2 if kind is GroupKind.GL2 else 1


def torus_order(kind, q):
    return (q - 1) ** _rank(kind)


def torus_index(kind, q, exps):
    """Index of the torus element with exponent vector `exps`."""
    if len(exps) != _rank(kind):
        raise KindMismatch("wrong exponent arity for kind")
    n = q - 1
    if kind is GroupKind.GL2:
        return exps[0] % n * n + exps[1] % n
    return exps[0] % n


def torus_exps(kind, q, t):
    """Exponent vector (reduced mod q-1) of the torus element with index t."""
    return divmod(t, q - 1) if kind is GroupKind.GL2 else (t,)


def s0_exps(kind, exps):
    """Conjugation by the finite reflection on exponent vectors of torus
    elements and characters alike: swap for GL2, negate otherwise."""
    if kind is GroupKind.GL2:
        return (exps[1], exps[0])
    return (-exps[0],)


class TorusCtx:
    """Ambient field together with the residue size q and a fixed zeta of order q-1.

    The ambient field may be larger than F_q (its size is p^m with m a multiple
    of e where q = p^e); zeta is then the canonical power of the ambient
    generator.
    """

    def __init__(self, field: FieldCtx, q: int):
        if (field.q - 1) % (q - 1) != 0 or q < 2:
            raise CtxMismatch(f"ambient field F_{field.q} does not contain mu_{q-1}")
        # q must be a power of the field characteristic
        qq = q
        while qq % field.p == 0:
            qq //= field.p
        if qq != 1:
            raise CtxMismatch(f"{q} is not a power of p={field.p}")
        self.field = field
        self.q = q
        # zeta power table, exponents mod q-1: every stride-th generator power
        self._zpow = field.exp[:: (field.q - 1) // (q - 1)]
        self.zeta_idx = self._zpow[1 % (q - 1)]
        self._torus_tables = {}
        # Results that depend only on this context, keyed by value, so that
        # checks repeated across the blocks of one run compute them once.
        self.cache = {}

    @property
    def p(self):
        return self.field.p

    def value_i(self, e):
        """Index of zeta^e."""
        return self._zpow[e % (self.q - 1)]

    def torus_table(self, kind):
        """The group law of T(F_q) on indices (a `TorusTable`), one per kind."""
        if kind not in self._torus_tables:
            self._torus_tables[kind] = TorusTable(kind, self.q)
        return self._torus_tables[kind]

    def __repr__(self):
        return f"TorusCtx(q={self.q}, ambient=F_{self.field.q})"


class TorusTable:
    """T(F_q) on indices 0 .. order-1: inverse, s0-conjugation, the coroot
    image alpha^vee(F_q^x), the generators (the unit exponent vectors) and the
    dense multiplication table.  The lists are
    linear in |T| and built at once; the |T| x |T| table is built on first use.
    """

    def __init__(self, kind, q):
        self.kind, self.q = kind, q
        self.order = torus_order(kind, q)
        exps = [torus_exps(kind, q, t) for t in range(self.order)]
        self.inv = [torus_index(kind, q, [-e for e in x]) for x in exps]
        self.s0 = [torus_index(kind, q, s0_exps(kind, x)) for x in exps]
        self.coroot = coroot_image(kind, q)
        units = ((1, 0), (0, 1)) if kind is GroupKind.GL2 else ((1,),)
        self.gens = [torus_index(kind, q, e) for e in units]

    @cached_property
    def mul(self):
        """mul[s][t] is the index of s t: exponents add mod q-1."""
        n = self.q - 1
        cyclic = [[(a + b) % n for b in range(n)] for a in range(n)]
        if self.kind is not GroupKind.GL2:
            return cyclic
        # the digits a and b of the index a*n + b add on their own
        high = [[n * c for c in row] for row in cyclic]
        return [[h + c for h in hrow for c in row] for hrow in high for row in cyclic]


@dataclass(frozen=True)
class TorusChar:
    """Character of T(F_q): value zeta^(a*j + b*l) on diag(zeta^a, zeta^b) for
    GL2 data (j, l); value zeta^(n*a) for SL2/PGL2 data (n,)."""

    kind: GroupKind
    q: int
    exps: tuple

    def __post_init__(self):
        n = self.q - 1
        object.__setattr__(self, "exps", tuple(e % n for e in self.exps))
        if len(self.exps) != _rank(self.kind):
            raise KindMismatch("wrong exponent arity for kind")

    def eval_i(self, tctx: TorusCtx, t):
        """Field index of the value at the torus element with index t."""
        return tctx.value_i(sum(a * e for a, e in zip(torus_exps(self.kind, self.q, t), self.exps)))

    def values_i(self, tctx: TorusCtx):
        """[eval_i(tctx, t) for every torus index t]: the value exponent at
        exponents (a, b) is a*j + b*l (a*n in rank one), summed from one list
        per exponent digit."""
        n = self.q - 1
        digits = [[a * e for a in range(n)] for e in self.exps]
        sums = digits[0] if len(digits) == 1 else [x + y for x in digits[0] for y in digits[1]]
        return [tctx.value_i(s) for s in sums]

    def s0_twist(self):
        return TorusChar(self.kind, self.q, s0_exps(self.kind, self.exps))

    def is_regular(self):
        return self != self.s0_twist()

    @property
    def n_label(self):
        """Value exponent on zeta*id (GL2) / parity class (SL2)."""
        if self.kind is GroupKind.GL2:
            return (self.exps[0] + self.exps[1]) % (self.q - 1)
        if self.kind is GroupKind.SL2:
            return self.exps[0] % 2
        return None

    def trivial_on_coroot_image(self):
        """Whether the character kills alpha^vee(F_q^x)."""
        n = self.q - 1
        if self.kind is GroupKind.GL2:
            return (self.exps[0] - self.exps[1]) % n == 0
        if self.kind is GroupKind.SL2:
            return self.exps[0] % n == 0
        return (2 * self.exps[0]) % n == 0


@dataclass(frozen=True)
class CharOrbit:
    """Weyl orbit of characters with its regularity flag and block label."""

    kind: GroupKind
    q: int
    members: frozenset
    regular: bool
    n_label: object

    def rep(self):
        """Deterministic representative (smallest exponent tuple)."""
        return self._pair[0]

    def pair(self):
        """(xi, xi^{s0}) with xi the representative (repeated if non-regular)."""
        return self._pair

    @cached_property
    def _pair(self):
        # once per orbit object: a census shares its orbits across every lambda
        xi = min(self.members, key=lambda c: c.exps)
        return xi, xi.s0_twist()

    def to_obj(self):
        return {
            "members": sorted((list(c.exps) for c in self.members)),
            "regular": self.regular,
            "n_label": self.n_label,
        }


def orbit_of(chi: TorusChar):
    tw = chi.s0_twist()
    members = frozenset({chi, tw})
    return CharOrbit(chi.kind, chi.q, members, chi.is_regular(), chi.n_label)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_characters(kind, q):
    n = q - 1
    if kind is GroupKind.GL2:
        return [TorusChar(kind, q, (j, l)) for j in range(n) for l in range(n)]
    return [TorusChar(kind, q, (j,)) for j in range(n)]


def orbit_partition(kind, q):
    seen = set()
    orbits = []
    for chi in enumerate_characters(kind, q):
        if chi in seen:
            continue
        orb = orbit_of(chi)
        seen.update(orb.members)
        orbits.append(orb)
    return orbits


def sign_character(kind, q):
    """The order-two character of T_{SL2}(F_q) (p odd); None when absent."""
    if kind is not GroupKind.SL2 or q % 2 == 0:
        return None
    return TorusChar(kind, q, ((q - 1) // 2,))


# ---------------------------------------------------------------------------
# coroot data (fixed per kind; verified against matrix conventions in tests)

def coroot(kind, q, c):
    """Index of alpha^vee(zeta^c)."""
    if kind is GroupKind.GL2:
        return torus_index(kind, q, (c, -c))
    if kind is GroupKind.SL2:
        return torus_index(kind, q, (c,))
    return torus_index(kind, q, (2 * c,))


def mu_alpha_order(kind):
    return 2 if kind is GroupKind.PGL2 else 1


def coroot_image(kind, q):
    """The subgroup alpha^vee(F_q^x) as a duplicate-free index list."""
    return list(dict.fromkeys(coroot(kind, q, c) for c in range(q - 1)))


def coroot_neg1(kind, q):
    """Index of alpha^vee(-1); the square of the chosen reflection lifts."""
    return coroot(kind, q, (q - 1) // 2 if q % 2 == 1 else 0)


# ---------------------------------------------------------------------------
# lifts SL2 -> GL2


def lift_character(chi: TorusChar, j=None):
    """The GL2 lift of an SL2 character with xi~(diag(z^a, z^b)) = z^(a*j - b*(n-j)).

    Default j = ceil(n/2), the convention used for the enlarged centre and the
    SL2 chain components.
    """
    if chi.kind is not GroupKind.SL2:
        raise KindMismatch("lift_character expects an SL2 character")
    n = chi.exps[0]
    if j is None:
        j = (n + 1) // 2
    return TorusChar(GroupKind.GL2, chi.q, (j, j - n))


def restrict_to_sl2(chi: TorusChar):
    """Restriction of a GL2 character to the SL2 torus."""
    if chi.kind is not GroupKind.GL2:
        raise KindMismatch("expects a GL2 character")
    j, l = chi.exps
    return TorusChar(GroupKind.SL2, chi.q, (j - l,))
