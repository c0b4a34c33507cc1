"""Exact arithmetic in finite fields F_{p^m}.

A single ambient field context hosts every scalar in the library: character
values, matrix entries and specialisation parameters.  A field element is its
integer index into the dense operation tables (built once per context); there
is no element class, and all arithmetic is table lookups.  Indices encode
coefficient vectors base p, least-significant coefficient first.

The tables are derived from one index walk of the field generator.  Addition
and negation come first, assembled one base-p digit at a time.  Multiplication
by a candidate generator is F_p-linear, so its walk runs on indices through
the add table; the generator's powers give the exp/log tables, and
multiplication and inversion are read from those.  Every table entry is one of
q shared int objects.  Fields with more than _TABLE_LIMIT elements are a
configuration error.
"""

from __future__ import annotations

from itertools import chain, product
from operator import itemgetter

from .errors import (
    CompositeCharacteristic,
    ConfigError,
    CtxMismatch,
    NotPrimitive,
    ReducibleModulus,
    ZeroInverse,
)

_TABLE_LIMIT = 4096  # build dense q x q tables up to this field size


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q):
    """(p, e) with q = p**e; ConfigError when q is not a prime power."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ConfigError(f"q={q} is not a prime power")
    p, e = factors[0], 0
    while q > 1:
        q //= p
        e += 1
    return p, e


def check_table_size(p, m):
    """ConfigError when F_{p^m} is too large for dense operation tables."""
    if p**m > _TABLE_LIMIT:
        raise ConfigError(
            f"field size {p}^{m} = {p**m} exceeds the table limit {_TABLE_LIMIT}"
        )


# -- dense polynomial helpers over F_p (coefficient lists, low degree first) --


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _poly_mod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for i, fc in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fc) % p
        a.pop()
    return _trim(a)


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # make b monic before reduction
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_powmod(base, e, f, p):
    result = [1]
    base = _poly_mod(base, f, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def is_irreducible(f, p):
    """Monic f over F_p, degree m >= 1, by Ben-Or's criterion: f is
    irreducible iff gcd(f, x^(p^k) - x) = 1 for every k <= m/2.

    A reducible f has an irreducible factor g of degree k <= m/2, and g divides
    x^(p^k) - x; an irreducible f of degree m > k shares no factor with it.  A
    zero difference (f divides x^(p^k) - x) means that every irreducible
    factor of f has degree dividing k < m.
    """
    m = len(f) - 1
    fr = [0, 1]
    for _ in range(m // 2):
        fr = _poly_powmod(fr, p, f, p)
        diff = fr + [0] * (2 - len(fr))
        diff[1] = (diff[1] - 1) % p
        diff = _trim(diff)
        if not diff or len(_poly_gcd(f, diff, p)) > 1:
            return False
    return True


def _search_modulus(p, m):
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Order is on the constant-first coefficient tuple (c0, ..., c_{m-1}).
    """
    if m == 1:
        return [0, 1]

    def tuples():
        # c0 = 0 would make f divisible by x: start at c0 = 1
        idx = [1] + [0] * (m - 1)
        while True:
            yield tuple(idx)
            i = m - 1
            while i >= 0 and idx[i] == p - 1:
                idx[i] = 0
                i -= 1
            if i < 0:
                return
            idx[i] += 1

    for tail in tuples():
        f = list(tail) + [1]
        if is_irreducible(f, p):
            return f
    raise ReducibleModulus(f"no irreducible polynomial of degree {m} over F_{p}")  # pragma: no cover


class FieldCtx:
    """Context for F_{p^m} with dense lookup tables for all operations."""

    def __init__(self, p, m=1, modulus=None):
        if not is_prime(p):
            raise CompositeCharacteristic(f"{p} is not prime")
        if m < 1:
            raise ReducibleModulus("extension degree must be >= 1")
        check_table_size(p, m)
        if modulus is None:
            modulus = _search_modulus(p, m)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ReducibleModulus("modulus must be monic of degree m")
            if not is_irreducible(modulus, p):
                raise ReducibleModulus(f"{modulus} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.modulus = tuple(modulus)
        self.q = p**m
        self.key = (p, m, self.modulus)
        self._build_tables()

    # index <-> coefficient vector (c0 least significant)
    def coords_of(self, i):
        out = []
        for _ in range(self.m):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def index_of(self, coords):
        i = 0
        for c in reversed(coords):
            i = i * self.p + (c % self.p)
        return i

    def _exp_walk(self, g):
        """Indices of g^0, ..., g^(q-2) for the coefficient vector g (degree < m).

        Raises NotPrimitive unless g^(q-1) is the first power of g equal to 1.
        Then g is a unit whose powers g^0, ..., g^(q-2) are q - 1 distinct
        elements (g^a = g^b with a < b < q - 1 would give g^(b-a) = 1), i.e.
        g generates the multiplicative group.

        The walk runs on indices.  Multiplication by g is F_p-linear, so the
        index of x g is the add-table sum of the images d X^j g of the base-p
        digits d of x.  `times_g` holds it for every x, grown one digit at a
        time like the add table, from the m products X^j g mod the modulus and
        their multiples in the add table.
        """
        p, q, add = self.p, self.q, self.add
        f = list(self.modulus)
        basis_images = [g]  # X^j g for j = 0, ..., m - 1
        for _ in range(self.m - 1):
            basis_images.append(_poly_mod([0, *basis_images[-1]], f, p))
        times_g = [0]
        for xg in basis_images:
            step = add[self.index_of(xg)]
            multiples = [0]  # d X^j g for d = 0, ..., p - 1
            for _ in range(p - 1):
                multiples.append(step[multiples[-1]])
            grown = []
            for d in multiples:
                grown.extend(map(add[d].__getitem__, times_g))
            times_g = grown
        exp = [1]
        x = 1
        for _ in range(q - 1):
            x = times_g[x]
            if x == 1:
                break
            exp.append(x)
        if len(exp) != q - 1:
            raise NotPrimitive(f"the powers of {g} do not run through F_{q}^x")
        return exp

    def _build_tables(self):
        p, q, m = self.p, self.q, self.m
        # Every table entry is one of these q objects.
        vals = list(range(q))
        # add and neg of F_p, then append one base-p digit (the new most
        # significant one) at a time
        twice = vals[:p] * 2
        add = [twice[a : a + p] for a in range(p)]
        neg = [twice[p - a] for a in range(p)]
        size = p
        while size < q:
            wide = size * p
            shifts = [vals[size * h : size * h + size] for h in range(p)]  # x -> x + size*h
            grown = [None] * wide
            for lo, row in enumerate(add):
                # row lo + size*h of the grown table is this window of `cat`
                at_row = itemgetter(*row)
                blocks = [at_row(shift) for shift in shifts]
                cat = list(chain.from_iterable(blocks + blocks))
                for h in range(p):
                    grown[lo + size * h] = cat[size * h : size * h + wide]
            # the negative of lo + size*h is neg[lo] + size*(-h mod p)
            at_neg = itemgetter(*neg)
            neg = list(chain.from_iterable(at_neg(shifts[-h]) for h in range(p)))
            add, size = grown, wide
        self.add = add
        self.neg = neg
        # The generator is the coordinate-lex first element of full order.
        for coords in product(range(p), repeat=m):
            if any(coords):
                try:
                    exp = self._exp_walk(_trim(list(coords)))
                except NotPrimitive:
                    continue
                self._generator_idx = self.index_of(coords)
                break
        log = [0] * q
        for k, a in enumerate(exp):
            log[a] = k
        exp2 = exp + exp
        self.exp = exp  # exp[k] is the index of generator**k, 0 <= k < q - 1
        # Row a of mul is exp2[log a + log b] over b; log[0] is a placeholder
        # (it keeps at_logs a tuple getter at q = 2), so column 0 is set after.
        at_logs = itemgetter(*log)
        mul = [[0] * q]
        for k in log[1:]:
            row = list(at_logs(exp2[k : k + q - 1]))
            row[0] = 0
            mul.append(row)
        self.mul = mul
        self.inv = [0] + [exp2[q - 1 - k] for k in log[1:]]

    # integer-index operation surface (hot paths)
    def add_i(self, a, b):
        return self.add[a][b]

    def sub_i(self, a, b):
        return self.add[a][self.neg[b]]

    def mul_i(self, a, b):
        return self.mul[a][b]

    def neg_i(self, a):
        return self.neg[a]

    def inv_i(self, a):
        if a == 0:
            raise ZeroInverse("inverse of zero")
        return self.inv[a]

    def pow_i(self, a, n):
        if n < 0:
            return self.pow_i(self.inv_i(a), -n)
        r = 1
        while n:
            if n & 1:
                r = self.mul[r][a]
            a = self.mul[a][a]
            n >>= 1
        return r

    def scalar_i(self, n):
        """Image of the integer n in the prime subfield."""
        return n % self.p

    def generator_idx(self):
        return self._generator_idx

    def subfield_indices(self, q0):
        """Indices of the subfield with q0 elements (q0 - 1 must divide q - 1)."""
        if (self.q - 1) % (q0 - 1) != 0:
            raise CtxMismatch(f"F_{q0} is not a subfield of F_{self.q}")
        return [i for i in range(self.q) if self.pow_i(i, q0) == i]

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m})"


def field_create(p, m=1, modulus=None):
    return FieldCtx(p, m, modulus)

