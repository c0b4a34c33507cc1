"""Coefficient rings of the matrix models.

NodalLaurentPoly is an element of B = A[Z^{+-1}], A = k[X1,X2]/(X1X2), stored
as one flat map {(z, k): c} with nonzero field indices c.  The key is the
Z-exponent z and a signed X-degree k: 0 is the constant term, k > 0 is X1^k and
k < 0 is X2^-k.  The defining relation X1 X2 = 0 is the rule that keys of
opposite sign multiply to nothing; keys of equal sign (or one zero) add their
degrees.  With no X2 terms the same class covers k[X] and k[X, Z^{+-1}].  Zero
coefficients are never stored, so the form is canonical and equality is dict
equality.  Mat2 is a 2x2 matrix over NodalLaurentPoly.  Laurent polynomials in
Z alone have no class here: the DGA keeps its entries in the flat term map of
`dga.WindowHomElt`, and shares `_canon`, `_sum` and `_scaled` with this
module.

The loops index the field's operation tables (ctx.add, ctx.mul, ctx.neg)
directly.
"""

from __future__ import annotations

from .errors import CtxMismatch
from .gf import FieldCtx


def _check(x, y):
    if x.ctx is not y.ctx and x.ctx.key != y.ctx.key:
        raise CtxMismatch("mixed coefficient fields")


_new = object.__new__


def _nodal(ctx, terms):
    """A NodalLaurentPoly around a term map that holds no zero coefficient."""
    out = _new(NodalLaurentPoly)
    out.ctx = ctx
    out.terms = terms
    return out


def _canon(terms):
    """Drop the coefficients that accumulation cancelled to zero."""
    if 0 in terms.values():
        return {key: c for key, c in terms.items() if c}
    return terms


def _sum(add, terms, other, neg=None):
    """terms + other (or terms - other when neg is the negation table)."""
    out = dict(terms)
    get = out.get
    for key, c in other.items():
        s = add[get(key, 0)][c if neg is None else neg[c]]
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _scaled(mul, terms, c):
    """c * terms for a field index c."""
    if not c:
        return {}
    row = mul[c]
    return {key: row[v] for key, v in terms.items()}


def _mac(add, mul, out, terms, other):
    """out += terms * other; keys of opposite X-sign multiply to zero."""
    get = out.get
    pairs = other.items()
    for (z1, k1), c1 in terms.items():
        row = mul[c1]
        for (z2, k2), c2 in pairs:
            if k1 * k2 < 0:
                continue
            key = (z1 + z2, k1 + k2)
            out[key] = add[get(key, 0)][row[c2]]


class NodalLaurentPoly:
    """sum c_{z,k} Z^z X^k in A[Z^{+-1}], X^k = X1^k (k > 0) or X2^-k (k < 0)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms=None):
        self.ctx = ctx
        self.terms = {key: c for key, c in terms.items() if c} if terms else {}

    @classmethod
    def scalar(cls, ctx, c):
        return cls(ctx, {(0, 0): c})

    @classmethod
    def mono(cls, ctx, branch, k, zexp=0, coeff=1):
        """coeff * Z^zexp X_branch^k (branch 1 or 2); k = 0 gives coeff Z^zexp."""
        return cls(ctx, {(zexp, k if branch == 1 else -k): coeff})

    @classmethod
    def z_power(cls, ctx, zexp, coeff=1):
        return cls(ctx, {(zexp, 0): coeff})

    def is_zero(self):
        return not self.terms

    def add(self, other):
        _check(self, other)
        return _nodal(self.ctx, _sum(self.ctx.add, self.terms, other.terms))

    def neg(self):
        neg = self.ctx.neg
        return _nodal(self.ctx, {key: neg[c] for key, c in self.terms.items()})

    def sub(self, other):
        _check(self, other)
        ctx = self.ctx
        return _nodal(ctx, _sum(ctx.add, self.terms, other.terms, ctx.neg))

    def scal(self, c):
        return _nodal(self.ctx, _scaled(self.ctx.mul, self.terms, c))

    def mul(self, other):
        _check(self, other)
        ctx = self.ctx
        out = {}
        _mac(ctx.add, ctx.mul, out, self.terms, other.terms)
        return _nodal(ctx, _canon(out))

    def evaluate(self, x1_idx, x2_idx, z_idx):
        """Value at X1 = x1, X2 = x2, Z = z (indices); caller ensures x1*x2 = 0."""
        ctx = self.ctx
        add, mul, pw = ctx.add, ctx.mul, ctx.pow_i
        acc = 0
        for (z, k), c in self.terms.items():
            x = pw(x1_idx, k) if k > 0 else pw(x2_idx, -k)
            acc = add[acc][mul[mul[c][x]][pw(z_idx, z)]]
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, NodalLaurentPoly)
            and self.ctx.key == other.ctx.key
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"NodalLaurentPoly({self.terms!r})"


class Mat2:
    """2x2 matrix over NodalLaurentPoly."""

    __slots__ = ("ctx", "a")

    def __init__(self, ctx, entries):
        self.ctx = ctx
        self.a = entries  # [[e00, e01], [e10, e11]]

    @classmethod
    def zero(cls, ctx):
        z = NodalLaurentPoly(ctx)
        return cls(ctx, [[z, z], [z, z]])

    @classmethod
    def identity(cls, ctx):
        one = NodalLaurentPoly.scalar(ctx, 1)
        z = NodalLaurentPoly(ctx)
        return cls(ctx, [[one, z], [z, one]])

    @classmethod
    def _of_terms(cls, ctx, t00, t01, t10, t11):
        n = _nodal
        return cls(ctx, [[n(ctx, t00), n(ctx, t01)], [n(ctx, t10), n(ctx, t11)]])

    def _entry_terms(self):
        (a, b), (c, d) = self.a
        return a.terms, b.terms, c.terms, d.terms

    def add(self, other):
        _check(self, other)
        add = self.ctx.add
        pairs = zip(self._entry_terms(), other._entry_terms())
        return Mat2._of_terms(self.ctx, *(_sum(add, x, y) for x, y in pairs))

    def sub(self, other):
        _check(self, other)
        add, neg = self.ctx.add, self.ctx.neg
        pairs = zip(self._entry_terms(), other._entry_terms())
        return Mat2._of_terms(self.ctx, *(_sum(add, x, y, neg) for x, y in pairs))

    def scal(self, c):
        mul = self.ctx.mul
        return Mat2._of_terms(self.ctx, *(_scaled(mul, x, c) for x in self._entry_terms()))

    def scal_cols(self, c0, c1):
        """self . diag(c0, c1) for field scalars c0, c1 (column scaling)."""
        mul = self.ctx.mul
        scaled = zip(self._entry_terms(), (c0, c1, c0, c1))
        return Mat2._of_terms(self.ctx, *(_scaled(mul, x, c) for x, c in scaled))

    @classmethod
    def sum_scal_cols(cls, ctx, items):
        """sum of m . diag(c0, c1) over the (m, c0, c1) in items, accumulated
        entrywise with no intermediate matrices."""
        add, mul = ctx.add, ctx.mul
        outs = ({}, {}, {}, {})
        for m, c0, c1 in items:
            for out, terms, c in zip(outs, m._entry_terms(), (c0, c1, c0, c1)):
                if c:
                    row = mul[c]
                    get = out.get
                    for key, v in terms.items():
                        out[key] = add[get(key, 0)][row[v]]
        return cls._of_terms(ctx, *map(_canon, outs))

    def mul(self, other):
        _check(self, other)
        ctx = self.ctx
        add, mul = ctx.add, ctx.mul
        a, b, c, d = self._entry_terms()
        e, f, g, h = other._entry_terms()
        outs = []
        for x, y, u, v in ((a, e, b, g), (a, f, b, h), (c, e, d, g), (c, f, d, h)):
            out = {}
            if x and y:
                _mac(add, mul, out, x, y)
            if u and v:
                _mac(add, mul, out, u, v)
            outs.append(_canon(out))
        return Mat2._of_terms(ctx, *outs)

    def power(self, n):
        assert n >= 0
        out = Mat2.identity(self.ctx)
        for _ in range(n):
            out = out.mul(self)
        return out

    def is_zero(self):
        return not any(self._entry_terms())

    def is_scalar(self):
        a, b, c, d = self._entry_terms()
        return not b and not c and a == d

    def evaluate(self, x1, x2, z):
        return [[self.a[i][j].evaluate(x1, x2, z) for j in range(2)] for i in range(2)]

    def coeff_terms(self):
        """The coefficient vector as a term map {(i, j, z, k): c}: entry (i, j)
        holds c Z^z X1^k for k > 0, c Z^z X2^-k for k < 0."""
        return {
            (i, j, z, k): c
            for i, row in enumerate(self.a)
            for j, entry in enumerate(row)
            for (z, k), c in entry.terms.items()
        }

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and self.ctx.key == other.ctx.key
            and self._entry_terms() == other._entry_terms()
        )

    def __repr__(self):
        return f"Mat2({self.a!r})"
