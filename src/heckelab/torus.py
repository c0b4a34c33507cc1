"""Finite torus T(F_q) and its character group with the Weyl action.

All torus and character data are discrete-log exponents relative to the fixed
generator zeta of F_q^x, so the Weyl twist, regularity tests and block labels
are pure integer arithmetic.  A torus element is one integer, its index:
diag(zeta^a, zeta^b) in GL2 has index a*(q-1) + b, diag(zeta^a, zeta^-a) in
SL2 and the class of diag(zeta^a, 1) in PGL2 have index a (exponents mod q-1).
`torus_index` and `torus_exps` encode and decode it.  The group law is
exponent addition mod q - 1 on the digits of the indices (`torus_mul`), the
s0 twist is `s0_exps` on them (`s0_index`), and each reader computes them
where it reads them: no table of T is built.

A character is its exponent vector xi, with value xi(t) = zeta^<exps(t), xi>
(`char_value_i`, the one evaluation).  A Weyl orbit {xi, xi^{s0}} is its
exponent pair (x, x^{s0}), listed from its smallest member x (`orbit_pair`).
`orbit_pairs` lists the orbits of a kind in closed form by class (regular,
trivial on the coroot image, or the SL2 sign character: `orbit_class`),
`orbit_list_faults` certifies such lists, and `orbit_obj` is an orbit's report
form.  Field values appear only in character evaluations; the idempotents
e_xi live in the Hecke algebra (`hecke.idempotent`).
"""

from __future__ import annotations

import enum
from collections import Counter
from math import gcd

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


def s0_exps(kind, q, exps):
    """Conjugation by the finite reflection on exponent vectors of torus
    elements and characters alike, mod q - 1: swap for GL2, negate otherwise."""
    n = q - 1
    if kind is GroupKind.GL2:
        return (exps[1] % n, exps[0] % n)
    return (-exps[0] % n,)


def torus_mul(kind, q, s, ts):
    """The indices of the products s t of the torus element with index s and
    those with the indices in `ts`, in order: each exponent digit adds mod
    q - 1."""
    n = q - 1
    if kind is GroupKind.GL2:
        a, b = divmod(s, n)
        return [(a + c) % n * n + (b + d) % n for c, d in (divmod(t, n) for t in ts)]
    return [(s + t) % n for t in ts]


def s0_index(kind, q, t):
    """Index of t^{s0}, the twist of the torus element with index t: its
    digits swapped (GL2) or negated mod q - 1, as `s0_exps` does."""
    n = q - 1
    if kind is GroupKind.GL2:
        a, b = divmod(t, n)
        return b * n + a
    return -t % n


def torus_generators(kind):
    """The exponent vectors of the generators of T(F_q): the unit vectors."""
    return ((1, 0), (0, 1)) if kind is GroupKind.GL2 else ((1,),)


class TorusCtx:
    """Ambient field together with the residue size q and a fixed zeta of order q-1.

    The ambient field may be larger than F_q (its size is p^m with m a multiple
    of e where q = p^e); zeta is then the canonical power of the ambient
    generator.
    """

    def __init__(self, field: FieldCtx, q: int):
        if q < 2:
            raise CtxMismatch(f"residue field size q={q} is below 2")
        if (field.q - 1) % (q - 1) != 0:
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

    @property
    def p(self):
        return self.field.p

    def value_i(self, e):
        """Index of zeta^e."""
        return self._zpow[e % (self.q - 1)]

    def zeta_fault(self):
        """Why zeta^a (`value_i`) is not a homomorphism Z/(q-1) -> F^x of
        exact order q - 1, or None.  Where it is, characters with distinct
        exponent vectors differ at some torus generator."""
        n = self.q - 1
        zeta = [self.value_i(a) for a in range(n)]
        if zeta[0] != 1 or len(set(zeta)) != n:
            return "zeta table is not injective with zeta^0 = 1"
        for a in range(n):
            if zeta[(a + 1) % n] != self.field.mul[zeta[a]][self.zeta_idx]:
                return f"zeta table is not a homomorphism at exponent {a}"
        return None

    def __repr__(self):
        return f"TorusCtx(q={self.q}, ambient=F_{self.field.q})"


def block_label(kind, q, exps):
    """Value exponent on zeta*id (GL2) / parity class (SL2) of the character
    `exps`; None for PGL2."""
    if kind is GroupKind.GL2:
        return (exps[0] + exps[1]) % (q - 1)
    if kind is GroupKind.SL2:
        return exps[0] % 2
    return None


def char_value_i(tctx, kind, xi, t):
    """Field index of xi(t) = zeta^<exps(t), xi>, the value of the character
    with exponent vector xi at the torus element with index t."""
    return tctx.value_i(sum(a * e for a, e in zip(torus_exps(kind, tctx.q, t), xi)))


def coroot_pairing(kind, q, xi):
    """<alpha^vee, xi> mod q - 1: the k with xi(alpha^vee(zeta^c)) = zeta^(k c)."""
    return sum(a * e for a, e in zip(torus_exps(kind, q, coroot(kind, q, 1)), xi)) % (q - 1)


def orbit_pair(kind, q, xi):
    """The orbit {xi, xi^{s0}} as the pair (x, x^{s0}) of its smallest member x
    and that member's twist, exponents mod q - 1: the form in which
    `orbit_pairs` lists it."""
    x, tx = tuple(e % (q - 1) for e in xi), s0_exps(kind, q, xi)
    return (x, tx) if x <= tx else (tx, x)


def orbit_class(kind, q, xi):
    """The class of the orbit of the character xi: "regular" when xi !=
    xi^{s0}; else "sign" for the SL2 sign character, and "trivial" for the
    other s0-fixed characters, which are those trivial on the coroot image."""
    x, tx = orbit_pair(kind, q, xi)
    if x != tx:
        return "regular"
    return "sign" if x == sign_character(kind, q) else "trivial"


def orbit_pairs(kind, q):
    """The Weyl orbits of the characters of T(F_q) by class, {class: the pairs
    (x, x^{s0}) of its orbits, each listed from its smallest member x, in
    increasing x}, in closed form: the regular orbits (j, l) < (l, j) for GL2
    and (c,) < (-c,) mod q - 1 otherwise, then the s0-fixed characters, (j, j)
    for GL2 and the c with 2c = 0 mod q - 1 otherwise, each its own orbit.
    The SL2 lists are "regular", "trivial" and "sign", the others "regular"
    and "trivial"; `orbit_list_faults` certifies them."""
    n = q - 1
    if kind is GroupKind.GL2:
        regular = tuple(((j, l), (l, j)) for j in range(n) for l in range(j + 1, n))
        fixed = [(j, j) for j in range(n)]
    else:
        regular = tuple(((c,), (n - c,)) for c in range(1, n) if c < n - c)
        fixed = [(c,) for c in range(n) if 2 * c % n == 0]
    classes = dict.fromkeys(orbit_counts(kind, q), ())
    classes["regular"] = regular
    for x in fixed:
        classes[orbit_class(kind, q, x)] += ((x, x),)
    return classes


def orbit_obj(kind, q, pair):
    """The report form of the orbit listed as `pair`: its members, whether it
    is regular and its block label (`block_label` of its first member)."""
    return {
        "members": sorted(map(list, set(pair))),
        "regular": orbit_class(kind, q, pair[0]) == "regular",
        "n_label": block_label(kind, q, pair[0]),
    }


def orbit_list_faults(kind, q, classes):
    """The list certificate: whether each list classes[c] of exponent pairs
    holds the orbits of class c once.  Returns ({c: {index: reason} for the
    pairs of classes[c] that are not an orbit of class c listed as (x,
    x^{s0}) from its smallest member x}, a message when the pairs' smallest
    members are not distinct or some class in `classes` lists another number
    of orbits than `orbit_counts`, else None).

    Each pair is compared with `orbit_pair` of its first member, which also
    gives the orbit's smallest member, and classed by `orbit_class`, from
    exponent vectors alone.  Orbits are disjoint, so distinct smallest members
    are distinct orbits; as many distinct orbits of a class as it has are
    all of them.
    """
    want = orbit_counts(kind, q)
    want = {c: want[c] for c in classes}
    bad, smallest, found = {}, set(), Counter()
    for c, pairs in classes.items():
        bad[c] = {}
        for j, pair in enumerate(pairs):
            orbit, cls = orbit_pair(kind, q, pair[0]), orbit_class(kind, q, pair[0])
            smallest.add(orbit[0])
            found[cls] += 1
            if tuple(pair) != orbit:
                bad[c][j] = f"{pair} is not {orbit}, the orbit pair of {pair[0]}"
            elif cls != c:
                bad[c][j] = f"{pair} is a {cls} orbit, not {c}"
    if len(smallest) < sum(found.values()) or found != Counter(want):
        return bad, f"the listed orbits {dict(found)} are not the orbits {want} once"
    return bad, None


def orbit_counts(kind, q):
    """{class: its number of orbits}, the keys of `orbit_pairs`, in closed
    form: the non-regular characters are those fixed by the swap, q - 1 of
    them for GL2 and gcd(2, q - 1) for SL2 and PGL2, all trivial on the
    coroot image but the SL2 sign character; the others pair off."""
    fixed = q - 1 if kind is GroupKind.GL2 else gcd(2, q - 1)
    counts = {"regular": (torus_order(kind, q) - fixed) // 2, "trivial": fixed}
    if kind is GroupKind.SL2:
        counts.update(trivial=1, sign=fixed - 1)
    return counts


def sign_character(kind, q):
    """The exponents of the order-two character of T_{SL2}(F_q) (p odd); None
    when absent."""
    if kind is not GroupKind.SL2 or q % 2 == 0:
        return None
    return ((q - 1) // 2,)


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


# ---------------------------------------------------------------------------
# lifts SL2 -> GL2


def lift_character(q, xi, j=None):
    """The exponents of the GL2 lift of the SL2 character xi = (n,), with
    xi~(diag(z^a, z^b)) = z^(a*j - b*(n-j)), mod q - 1.

    Default j = ceil(n/2), the convention used for the enlarged centre and the
    SL2 chain components.
    """
    if len(xi) != 1:
        raise KindMismatch("lift_character expects an SL2 character")
    n = xi[0] % (q - 1)
    if j is None:
        j = (n + 1) // 2
    return (j % (q - 1), (j - n) % (q - 1))


def restrict_to_sl2(q, xi):
    """The exponents of the restriction of the GL2 character xi to the SL2
    torus."""
    if len(xi) != 2:
        raise KindMismatch("expects a GL2 character")
    return ((xi[0] - xi[1]) % (q - 1),)
