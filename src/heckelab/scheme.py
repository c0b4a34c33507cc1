"""Combinatorial chains of projective lines and the block-centre parameter map.

Components are chains C(l) of projective lines; a point is (segment index,
affine coordinate or the infinity symbol), with the node identification
(i, inf) = (i+1, 0) canonicalised to the smaller segment index.  The map from
block-centre points follows the standard open embeddings on middle components
and folds the end components two-to-one through t + 1/t.

Component dictionaries (which orbit sits over which segment) are resolved
from the discrete-log labels: for the n-th piece at even n = 2s the orbit with
value exponent s + i on diag(zeta, 1) sits over U_i, and similarly with the
half-twist for odd n.  Galois-side labels stay combinatorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import (
    EvenCharacteristic,
    FinitePDModule,
    KindMismatch,
    UnsupportedKind,
)
from .hecke import SupersingChar, SupersingModule
from .torus import CharOrbit, GroupKind, orbit_partition

INF = "inf"


@dataclass(frozen=True)
class ChainComponent:
    label: object  # n in N_q (GL2), m in {0,1} (SL2), None (PGL2)
    length: int
    has_gm: bool


@dataclass(frozen=True)
class ChainScheme:
    kind: GroupKind
    q: int
    components: tuple

    def component(self, label):
        for c in self.components:
            if c.label == label:
                return c
        raise KindMismatch(f"no component labelled {label!r}")


@dataclass(frozen=True)
class ChainPoint:
    component: object
    segment: int
    coord: object  # field element index or INF
    gm: object = None  # field element index or None

    def canonical(self, length):
        """Normalise (i, 0) with i > 0 to the node form (i-1, inf)."""
        if self.coord == 0 and self.segment > 0:
            return ChainPoint(self.component, self.segment - 1, INF, self.gm)
        return self

    def is_node(self, length):
        c = self.canonical(length)
        return c.coord == INF and c.segment < length - 1

    def to_obj(self):
        return {
            "component": self.component,
            "segment": self.segment,
            "coord": "inf" if self.coord == INF else self.coord,
            "gm": self.gm,
        }


@dataclass(frozen=True)
class SpecZPoint:
    """Point of a block-centre spectrum: orbit tag plus (x1, x2) with
    x1 x2 = 0, and the unit z for GL2."""

    orbit: object
    x1: int
    x2: int
    z: object = None


@cache
def build_scheme(kind, q):
    """The chain scheme of `kind` at q.  It is frozen, so one instance per
    (kind, q) serves every module of a census."""
    if q % 2 == 0:
        raise EvenCharacteristic("chain schemes require p > 2")
    if kind is GroupKind.GL2:
        comps = []
        for n in range(q - 1):
            l = (q - 1) // 2 if n % 2 == 0 else (q + 1) // 2
            comps.append(ChainComponent(n, l, True))
        return ChainScheme(kind, q, tuple(comps))
    if kind is GroupKind.PGL2:
        return ChainScheme(kind, q, (ChainComponent(None, (q - 1) // 2, False),))
    if kind is GroupKind.SL2:
        return ChainScheme(
            kind,
            q,
            (
                ChainComponent(0, (q + 3) // 4, False),
                ChainComponent(1, (q + 3) // 4 + (1 if (q + 3) % 4 else 0), False),
            ),
        )
    raise KindMismatch(f"unsupported kind {kind}")


def phi(tctx, t_idx):
    """t -> t + 1/t as a point of the target line; 0 -> inf."""
    if t_idx == 0:
        return INF
    f = tctx.field
    return f.add_i(t_idx, f.inv_i(t_idx))


def phi_prime(tctx, t_idx):
    """t -> [1 : t + 1/t]: 0 -> origin, and inf where t + 1/t vanishes."""
    if t_idx == 0:
        return 0
    f = tctx.field
    s = f.add_i(t_idx, f.inv_i(t_idx))
    return INF if s == 0 else f.inv_i(s)


# ---------------------------------------------------------------------------
# component dictionaries


def gl2_component_position(orbit: CharOrbit, q):
    """(n, i) with n the centre label and i the index of the open piece U_i."""
    n = orbit.n_label
    xi = orbit.rep()
    j = xi.exps[0]
    if n % 2 == 0:
        s = n // 2
        i = (j - s) % (q - 1)
        if i > (q - 1) // 2:
            i = (q - 1) - i
    else:
        s = (n + 1) // 2
        i = (j - s + 1 + (q - 1) // 2) % (q - 1)
        if not (1 <= i <= (q - 1) // 2):
            i2 = (1 - i) % (q - 1)
            i = i2
    return n, i


def sl2_component_position(orbit: CharOrbit, q):
    """(parity m, index i) of a nontrivial SL2 orbit; the trivial orbit is
    (0, 0)."""
    n_small = min(c.exps[0] for c in orbit.members)
    m = n_small % 2
    i = (n_small + 1) // 2
    return m, i


def pgl2_component_position(orbit: CharOrbit, q):
    """Index c in 0..(q-1)/2 of the open piece of the single PGL2 chain."""
    c = orbit.rep().exps[0]
    if c > (q - 1) // 2:
        c = (q - 1) - c
    return c


# ---------------------------------------------------------------------------
# the parameter map on points


def _map_standard(i_seg, tctx, x1, x2, gm, component, fold_left=False, fold_right=False):
    """Point of U_i -> chain point; i_seg is the segment carrying the node
    (the node of Spec A maps to the node C_{i_seg-1} /\\ C_{i_seg} when the
    left leg is standard, matching the open embedding conventions)."""
    f = tctx.field
    if x1 == 0 and x2 == 0:
        return ChainPoint(component, i_seg - 1, INF, gm)
    if x1 != 0:
        if fold_left:
            return ChainPoint(component, i_seg - 1, phi(tctx, x1), gm)
        return ChainPoint(component, i_seg - 1, f.inv_i(x1), gm)
    if fold_right:
        return ChainPoint(component, i_seg, phi_prime(tctx, x2), gm)
    return ChainPoint(component, i_seg, x2, gm)


def L_map(tctx, kind, pt: SpecZPoint):
    """Deterministic chain point of a block-centre point."""
    q = tctx.q
    f = tctx.field
    scheme = build_scheme(kind, q)
    if f.mul_i(pt.x1, pt.x2) != 0:
        raise KindMismatch("point must satisfy x1 x2 = 0")

    if kind is GroupKind.GL2:
        orbit = pt.orbit
        n, i = gl2_component_position(orbit, q)
        comp = scheme.component(n)
        l = comp.length
        if n % 2 == 0:
            if not orbit.regular:
                if pt.x2 != 0:
                    raise UnsupportedKind("outer components carry a single line (use x1)")
                if i == 0:
                    return ChainPoint(n, 0, pt.x1, pt.z)
                # rightmost piece: reciprocal chart around the free end
                coord = INF if pt.x1 == 0 else f.inv_i(pt.x1)
                return ChainPoint(n, l - 1, coord, pt.z)
            return _map_standard(i, tctx, pt.x1, pt.x2, pt.z, n)
        fold_left = i == 1
        fold_right = i == (q - 1) // 2
        return _map_standard(i, tctx, pt.x1, pt.x2, pt.z, n, fold_left, fold_right)

    if kind is GroupKind.PGL2:
        comp = scheme.components[0]
        l = comp.length
        c = pgl2_component_position(pt.orbit, q)
        if not pt.orbit.regular:
            if pt.x2 != 0:
                raise UnsupportedKind("outer components carry a single line (use x1)")
            if c == 0:
                return ChainPoint(None, 0, pt.x1, None)
            coord = INF if pt.x1 == 0 else f.inv_i(pt.x1)
            return ChainPoint(None, l - 1, coord, None)
        return _map_standard(c, tctx, pt.x1, pt.x2, None, None)

    if kind is GroupKind.SL2:
        trivial = pt.orbit is None or (
            isinstance(pt.orbit, CharOrbit) and min(c.exps[0] for c in pt.orbit.members) == 0
        )
        if trivial:  # trivial-orbit component: a single affine line
            if pt.x2 != 0:
                raise UnsupportedKind("trivial SL2 component is the k[X]-line")
            return ChainPoint(0, 0, pt.x1, None)
        m, i = sl2_component_position(pt.orbit, q)
        comp = scheme.component(m)
        l = comp.length
        fold_left = (m == 1) and i == 1
        fold_right = i == l - 1
        return _map_standard(i, tctx, pt.x1, pt.x2, None, m, fold_left, fold_right)

    raise KindMismatch(f"unsupported kind {kind}")


def singular_points(scheme: ChainScheme, gm_values=None):
    """All nodes; crossed with the supplied unit values when the component
    carries a G_m factor."""
    out = []
    for comp in scheme.components:
        for i in range(comp.length - 1):
            if comp.has_gm:
                for z in gm_values or [None]:
                    out.append(ChainPoint(comp.label, i, INF, z))
            else:
                out.append(ChainPoint(comp.label, i, INF, None))
    return out


# ---------------------------------------------------------------------------
# supersingular-to-singular correspondence


def langlands_parameter(tctx, kind, module):
    """Chain point of a supersingular module of infinite projective dimension."""
    if isinstance(module, SupersingChar):
        if module.finite_pd:
            raise FinitePDModule("parameter map excludes finite projective dimension")
        if kind is not GroupKind.SL2:
            raise KindMismatch("character-level parameters are an SL2 notion here")
        q = tctx.q
        n = module.restriction.exps[0]
        orbit = next(
            o
            for o in orbit_partition(GroupKind.SL2, q)
            if module.restriction in o.members
        )
        pt = SpecZPoint(orbit, 0, 0)
        return L_map(tctx, kind, pt)
    if isinstance(module, SupersingModule):
        if module.kind is GroupKind.SL2:
            return langlands_parameter(tctx, kind, module.char)
        z = module.lam_idx if module.kind is GroupKind.GL2 else None
        pt = SpecZPoint(module.orbit, 0, 0, z)
        return L_map(tctx, module.kind, pt)
    raise KindMismatch(f"unsupported module {module!r}")


def correspondence_table(tctx, kind, lam_values=None):
    """Full module -> point table with the injectivity and image verdicts
    and the fiber partition; GL2 lambdas are field indices (default: all
    units)."""
    from .hecke import enumerate_supersingular

    q = tctx.q
    scheme = build_scheme(kind, q)
    if kind is GroupKind.GL2:
        lams = lam_values if lam_values is not None else [tctx.value_i(e) for e in range(q - 1)]
        census = enumerate_supersingular(tctx, kind, lambdas=lams)
        nodes = singular_points(scheme, gm_values=lams)
    else:
        census = enumerate_supersingular(tctx, kind)
        nodes = singular_points(scheme)

    rows = []
    fibers = {}
    for m in census.modules:
        pt = langlands_parameter(tctx, kind, m)
        key = (pt.component, pt.segment, pt.coord, pt.gm)
        fibers.setdefault(key, []).append(m)
        rows.append({"module": m.label(), "point": pt.to_obj()})

    node_keys = {(p.component, p.segment, p.coord, p.gm) for p in nodes}
    image_keys = set(fibers)
    report = {
        "kind": str(kind),
        "q": q,
        "rows": rows,
        "module_count": len(census.modules),
        "node_count": len(nodes),
        "image_is_nodes": image_keys == node_keys,
        "injective": all(len(v) == 1 for v in fibers.values()),
    }
    if kind is GroupKind.SL2:
        # expected fibers: {chi_{(q-1)/2}} and {chi_i, chi_{q-1-i}}
        partition = sorted(
            sorted(m.char.restriction.exps[0] for m in v) for v in fibers.values()
        )
        expected = [[(q - 1) // 2]] + [[i, q - 1 - i] for i in range(1, (q - 1) // 2)]
        report["fiber_partition"] = partition
        report["fibers_match_L_packets"] = partition == sorted(sorted(e) for e in expected)
    return report
