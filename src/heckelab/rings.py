"""Coefficient rings of the matrix models.

NodalPoly is an element of A = k[X1,X2]/(X1X2) stored as (constant, X1-tail,
X2-tail), so the defining relation can never be violated: multiplication is
two univariate convolutions plus scalar fixes.  NodalLaurentPoly adds the
Z^{+-1} direction, covering B = A[Z^{+-1}] and, with one tail unused, k[X] and
k[X, Z^{+-1}].  Mat2 is a 2x2 matrix over NodalLaurentPoly.
"""

from __future__ import annotations

from .errors import CtxMismatch
from .gf import FieldCtx


def _trim(lst):
    while lst and lst[-1] == 0:
        lst.pop()
    return lst


class NodalPoly:
    """c0 + sum a_i X1^i + sum b_j X2^j in k[X1,X2]/(X1X2)."""

    __slots__ = ("ctx", "c0", "tail1", "tail2")

    def __init__(self, ctx: FieldCtx, c0=0, tail1=(), tail2=()):
        self.ctx = ctx
        self.c0 = c0
        self.tail1 = tuple(_trim(list(tail1)))
        self.tail2 = tuple(_trim(list(tail2)))

    @classmethod
    def scalar(cls, ctx, c):
        return cls(ctx, c0=c)

    @classmethod
    def mono(cls, ctx, branch, k, coeff=1):
        """coeff * X_branch^k (branch 1 or 2); k = 0 gives a scalar."""
        if k == 0:
            return cls(ctx, c0=coeff)
        tail = [0] * k
        tail[k - 1] = coeff
        if branch == 1:
            return cls(ctx, tail1=tail)
        return cls(ctx, tail2=tail)

    def is_zero(self):
        return self.c0 == 0 and not self.tail1 and not self.tail2

    def degree(self):
        d = 0
        if self.tail1:
            d = len(self.tail1)
        if self.tail2:
            d = max(d, len(self.tail2))
        return d

    def coeff(self, branch, k):
        if k == 0:
            return self.c0
        tail = self.tail1 if branch == 1 else self.tail2
        return tail[k - 1] if k <= len(tail) else 0

    def add(self, other):
        self._check(other)
        ctx = self.ctx
        n1 = max(len(self.tail1), len(other.tail1))
        n2 = max(len(self.tail2), len(other.tail2))
        t1 = [ctx.add_i(self.coeff(1, k), other.coeff(1, k)) for k in range(1, n1 + 1)]
        t2 = [ctx.add_i(self.coeff(2, k), other.coeff(2, k)) for k in range(1, n2 + 1)]
        return NodalPoly(ctx, ctx.add_i(self.c0, other.c0), t1, t2)

    def neg(self):
        ctx = self.ctx
        return NodalPoly(
            ctx,
            ctx.neg_i(self.c0),
            [ctx.neg_i(c) for c in self.tail1],
            [ctx.neg_i(c) for c in self.tail2],
        )

    def sub(self, other):
        return self.add(other.neg())

    def scal(self, c):
        ctx = self.ctx
        m = ctx.mul_i
        return NodalPoly(
            ctx, m(c, self.c0), [m(c, a) for a in self.tail1], [m(c, a) for a in self.tail2]
        )

    def mul(self, other):
        """Cross terms of the two tails vanish (X1 X2 = 0)."""
        self._check(other)
        ctx = self.ctx
        m, a = ctx.mul_i, ctx.add_i
        c0 = m(self.c0, other.c0)

        def branch(mine, theirs):
            out = [0] * (len(mine) + len(theirs))
            # tail * tail convolution
            for i, x in enumerate(mine):
                if x:
                    for j, y in enumerate(theirs):
                        if y:
                            k = i + j + 1  # degrees (i+1)+(j+1)-1
                            out[k] = a(out[k], m(x, y))
            # scalar * tail fixes
            for i, y in enumerate(theirs):
                if y and self.c0:
                    out[i] = a(out[i], m(self.c0, y))
            for i, x in enumerate(mine):
                if x and other.c0:
                    out[i] = a(out[i], m(x, other.c0))
            return out

        return NodalPoly(ctx, c0, branch(self.tail1, other.tail1), branch(self.tail2, other.tail2))

    def evaluate(self, x1_idx, x2_idx):
        """Value at X1 = x1, X2 = x2 (indices); caller ensures x1*x2 = 0."""
        ctx = self.ctx
        acc = self.c0
        p1 = 1
        for c in self.tail1:
            p1 = ctx.mul_i(p1, x1_idx)
            if c:
                acc = ctx.add_i(acc, ctx.mul_i(c, p1))
        p2 = 1
        for c in self.tail2:
            p2 = ctx.mul_i(p2, x2_idx)
            if c:
                acc = ctx.add_i(acc, ctx.mul_i(c, p2))
        return acc

    def _check(self, other):
        if self.ctx.key != other.ctx.key:
            raise CtxMismatch("mixed coefficient fields")

    def __eq__(self, other):
        return (
            isinstance(other, NodalPoly)
            and self.ctx.key == other.ctx.key
            and self.c0 == other.c0
            and self.tail1 == other.tail1
            and self.tail2 == other.tail2
        )

    def __hash__(self):
        return hash((self.c0, self.tail1, self.tail2))

    def to_obj(self):
        cd = self.ctx.coords_of
        return {
            "c0": list(cd(self.c0)),
            "x1": [list(cd(c)) for c in self.tail1],
            "x2": [list(cd(c)) for c in self.tail2],
        }

    def __repr__(self):
        return f"NodalPoly(c0={self.c0}, X1~{list(self.tail1)}, X2~{list(self.tail2)})"


class NodalLaurentPoly:
    """Finitely supported map Z-exponent -> NodalPoly."""

    __slots__ = ("ctx", "zparts")

    def __init__(self, ctx, zparts=None):
        self.ctx = ctx
        self.zparts = {}
        if zparts:
            for z, pol in zparts.items():
                if not pol.is_zero():
                    self.zparts[z] = pol

    @classmethod
    def scalar(cls, ctx, c):
        return cls(ctx, {0: NodalPoly.scalar(ctx, c)} if c else None)

    @classmethod
    def mono(cls, ctx, branch, k, zexp=0, coeff=1):
        return cls(ctx, {zexp: NodalPoly.mono(ctx, branch, k, coeff)})

    @classmethod
    def z_power(cls, ctx, zexp, coeff=1):
        return cls(ctx, {zexp: NodalPoly.scalar(ctx, coeff)})

    def is_zero(self):
        return not self.zparts

    def add(self, other):
        out = dict(self.zparts)
        for z, pol in other.zparts.items():
            cur = out.get(z)
            s = pol if cur is None else cur.add(pol)
            if s.is_zero():
                out.pop(z, None)
            else:
                out[z] = s
        res = NodalLaurentPoly(self.ctx)
        res.zparts = out
        return res

    def neg(self):
        return NodalLaurentPoly(self.ctx, {z: pol.neg() for z, pol in self.zparts.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scal(self, c):
        if c == 0:
            return NodalLaurentPoly(self.ctx)
        return NodalLaurentPoly(self.ctx, {z: pol.scal(c) for z, pol in self.zparts.items()})

    def mul(self, other):
        out = {}
        for z1, p1 in self.zparts.items():
            for z2, p2 in other.zparts.items():
                z = z1 + z2
                prod = p1.mul(p2)
                if prod.is_zero():
                    continue
                cur = out.get(z)
                s = prod if cur is None else cur.add(prod)
                if s.is_zero():
                    out.pop(z, None)
                else:
                    out[z] = s
        res = NodalLaurentPoly(self.ctx)
        res.zparts = out
        return res

    def x_degree(self):
        return max((pol.degree() for pol in self.zparts.values()), default=0)

    def z_range(self):
        if not self.zparts:
            return (0, 0)
        return (min(self.zparts), max(self.zparts))

    def evaluate(self, x1_idx, x2_idx, z_idx):
        ctx = self.ctx
        acc = 0
        for z, pol in self.zparts.items():
            acc = ctx.add_i(acc, ctx.mul_i(ctx.pow_i(z_idx, z), pol.evaluate(x1_idx, x2_idx)))
        return acc

    def coeff_vector(self, xdeg, zlo, zhi):
        """Dense coefficient list over the window (both branches, all Z powers)."""
        out = []
        for z in range(zlo, zhi + 1):
            pol = self.zparts.get(z)
            if pol is None:
                out.extend([0] * (2 * xdeg + 1))
            else:
                out.append(pol.c0)
                for k in range(1, xdeg + 1):
                    out.append(pol.coeff(1, k))
                for k in range(1, xdeg + 1):
                    out.append(pol.coeff(2, k))
        return out

    def uses_only_x1(self):
        return all(not pol.tail2 for pol in self.zparts.values())

    def uses_no_z(self):
        return set(self.zparts) <= {0}

    def __eq__(self, other):
        return (
            isinstance(other, NodalLaurentPoly)
            and self.ctx.key == other.ctx.key
            and self.zparts == other.zparts
        )

    def to_obj(self):
        return {str(z): pol.to_obj() for z, pol in sorted(self.zparts.items())}

    def __repr__(self):
        return f"NodalLaurentPoly({self.zparts!r})"


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

    def add(self, other):
        return Mat2(
            self.ctx,
            [[self.a[i][j].add(other.a[i][j]) for j in range(2)] for i in range(2)],
        )

    def sub(self, other):
        return Mat2(
            self.ctx,
            [[self.a[i][j].sub(other.a[i][j]) for j in range(2)] for i in range(2)],
        )

    def scal(self, c):
        return Mat2(self.ctx, [[self.a[i][j].scal(c) for j in range(2)] for i in range(2)])

    def scal_cols(self, c0, c1):
        """self . diag(c0, c1) for field scalars c0, c1 (column scaling)."""
        (a, b), (c, d) = self.a
        return Mat2(self.ctx, [[a.scal(c0), b.scal(c1)], [c.scal(c0), d.scal(c1)]])

    def mul(self, other):
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                e = self.a[i][0].mul(other.a[0][j]).add(self.a[i][1].mul(other.a[1][j]))
                row.append(e)
            out.append(row)
        return Mat2(self.ctx, out)

    def power(self, n):
        assert n >= 0
        out = Mat2.identity(self.ctx)
        for _ in range(n):
            out = out.mul(self)
        return out

    def is_zero(self):
        return all(self.a[i][j].is_zero() for i in range(2) for j in range(2))

    def is_scalar(self):
        return (
            self.a[0][1].is_zero()
            and self.a[1][0].is_zero()
            and self.a[0][0] == self.a[1][1]
        )

    def evaluate(self, x1, x2, z):
        return [[self.a[i][j].evaluate(x1, x2, z) for j in range(2)] for i in range(2)]

    def coeff_vector(self, xdeg, zlo, zhi):
        out = []
        for i in range(2):
            for j in range(2):
                out.extend(self.a[i][j].coeff_vector(xdeg, zlo, zhi))
        return out

    def commutes_with(self, other):
        return self.mul(other).sub(other.mul(self)).is_zero()

    def __eq__(self, other):
        return isinstance(other, Mat2) and all(
            self.a[i][j] == other.a[i][j] for i in range(2) for j in range(2)
        )

    def to_obj(self):
        return [[self.a[i][j].to_obj() for j in range(2)] for i in range(2)]

    def __repr__(self):
        return f"Mat2({self.a!r})"


def nodal_mul(f, g):
    """Product of two NodalPoly or NodalLaurentPoly values (same type)."""
    return f.mul(g)


# laurent polynomials in Z alone (used by the DGA and stable-endo machinery)


class LaurentPoly:
    """Finitely supported map Z-exponent -> field coefficient index."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx, coeffs=None):
        self.ctx = ctx
        self.c = {}
        if coeffs:
            for z, v in coeffs.items():
                if v:
                    self.c[z] = v

    @classmethod
    def scalar(cls, ctx, v):
        return cls(ctx, {0: v})

    @classmethod
    def z(cls, ctx, e=1, v=1):
        return cls(ctx, {e: v})

    def is_zero(self):
        return not self.c

    def add(self, other):
        out = dict(self.c)
        add = self.ctx.add_i
        for z, v in other.c.items():
            s = add(out.get(z, 0), v)
            if s:
                out[z] = s
            else:
                out.pop(z, None)
        res = LaurentPoly(self.ctx)
        res.c = out
        return res

    def neg(self):
        neg = self.ctx.neg_i
        return LaurentPoly(self.ctx, {z: neg(v) for z, v in self.c.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scal(self, v):
        if v == 0:
            return LaurentPoly(self.ctx)
        mul = self.ctx.mul_i
        return LaurentPoly(self.ctx, {z: mul(v, c) for z, c in self.c.items()})

    def mul(self, other):
        out = {}
        add, mul = self.ctx.add_i, self.ctx.mul_i
        for z1, v1 in self.c.items():
            for z2, v2 in other.c.items():
                z = z1 + z2
                s = add(out.get(z, 0), mul(v1, v2))
                if s:
                    out[z] = s
                else:
                    out.pop(z, None)
        res = LaurentPoly(self.ctx)
        res.c = out
        return res

    def evaluate(self, z_idx):
        ctx = self.ctx
        acc = 0
        for z, v in self.c.items():
            acc = ctx.add_i(acc, ctx.mul_i(v, ctx.pow_i(z_idx, z)))
        return acc

    def coeff_vector(self, zlo, zhi):
        return [self.c.get(z, 0) for z in range(zlo, zhi + 1)]

    def z_range(self):
        if not self.c:
            return (0, 0)
        return (min(self.c), max(self.c))

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.ctx.key == other.ctx.key and self.c == other.c

    def __repr__(self):
        return f"LaurentPoly({self.c!r})"
