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

from .errors import EvenCharacteristic, KindMismatch, UnsupportedKind
from .hecke import SupersingularCensus
from .torus import GroupKind, block_label

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
    x1 x2 = 0, and the unit z for GL2.  The tag is the exponent vectors
    (xi, xi^{s0}) of an orbit member and its twist, as a census lists them;
    the orbit is regular exactly when the two differ."""

    orbit: object
    x1: int
    x2: int
    z: object = None


@cache
def build_scheme(kind, q):
    """The chain scheme of `kind` at q, components in label order.  It is
    frozen, so one instance per (kind, q) serves every orbit of a census."""
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


def gl2_component_position(exps, q):
    """(n, i) of the orbit of the character `exps`: n the centre label and i
    the index of the open piece U_i."""
    n = block_label(GroupKind.GL2, q, exps)
    j = exps[0]
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


def sl2_component_position(exps, q):
    """(parity m, index i) of the orbit of the SL2 character `exps`; the
    trivial orbit is (0, 0)."""
    n_small = min(exps[0] % (q - 1), -exps[0] % (q - 1))
    m = n_small % 2
    i = (n_small + 1) // 2
    return m, i


def pgl2_component_position(exps, q):
    """Index c in 0..(q-1)/2 of the open piece of the single PGL2 chain for
    the orbit of the character `exps`."""
    c = exps[0]
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
    xi, xi_tw = pt.orbit
    regular = xi != xi_tw

    if kind is GroupKind.GL2:
        n, i = gl2_component_position(xi, q)
        comp = scheme.components[n]
        l = comp.length
        if n % 2 == 0:
            if not regular:
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
        c = pgl2_component_position(xi, q)
        if not regular:
            if pt.x2 != 0:
                raise UnsupportedKind("outer components carry a single line (use x1)")
            if c == 0:
                return ChainPoint(None, 0, pt.x1, None)
            coord = INF if pt.x1 == 0 else f.inv_i(pt.x1)
            return ChainPoint(None, l - 1, coord, None)
        return _map_standard(c, tctx, pt.x1, pt.x2, None, None)

    if kind is GroupKind.SL2:
        m, i = sl2_component_position(xi, q)
        # the trivial-orbit component is a single affine line
        if (m, i) == (0, 0):
            if pt.x2 != 0:
                raise UnsupportedKind("trivial SL2 component is the k[X]-line")
            return ChainPoint(0, 0, pt.x1, None)
        comp = scheme.components[m]
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


def langlands_parameter(tctx, kind, pair):
    """Chain point of the census pair (xi, xi^{s0}) through `L_map`, with
    gm = None: every GL2 branch of `L_map` passes z through as the G_m
    coordinate, so M_{gamma,lambda} sits at its pair's point with gm =
    lambda, and an SL2 chi_n at the point of its orbit's pair."""
    return L_map(tctx, kind, SpecZPoint(pair, 0, 0))


@dataclass(frozen=True)
class CorrespondenceTable:
    """The parameter map on a supersingular census, with its verdicts.

    `positions` holds the chain point (gm = None) of each census pair as
    its (component, segment, coord), in the census order; a GL2 module
    M_{gamma,lambda} sits at its pair's point with gm = lambda, an SL2 chi_n
    at its orbit's point.  `fiber_partition` and
    `fibers_match_L_packets` are SL2's.
    """

    kind: GroupKind
    q: int
    census: SupersingularCensus
    positions: tuple
    module_count: int
    node_count: int
    image_is_nodes: bool
    injective: bool
    fiber_partition: list = None
    fibers_match_L_packets: bool = None

    @property
    def rows(self):
        """{module label, chain point} per module, built on each call from
        the census's pairs and lambdas and the per-pair `positions`: for GL2
        and PGL2 orbit-major, M[members;lam=lambda], at gm = lambda for GL2;
        for SL2 chi_n in increasing n."""
        census = self.census
        if self.kind is GroupKind.SL2:
            chars = _characters(census.pairs, self.positions)
            return [
                {"module": f"chi_{n}", "point": ChainPoint(*pos).to_obj()}
                for n, pos in sorted(chars, key=lambda char: char[0])
            ]
        gl2 = self.kind is GroupKind.GL2
        return [
            {
                "module": f"M[{sorted(map(list, pair))};lam={lam}]",
                "point": ChainPoint(*pos, gm=lam if gl2 else None).to_obj(),
            }
            for pair, pos in zip(census.pairs, self.positions)
            for lam in census.lambdas
        ]


def _characters(pairs, per_pair):
    """(n, its pair's entry of `per_pair`) for each SL2 character chi_n, a
    member of one of the orbit `pairs`."""
    return [(xi[0], entry) for pair, entry in zip(pairs, per_pair) for xi in dict.fromkeys(pair)]


def correspondence_table(census):
    """The module -> point table of a supersingular census, which the caller
    builds (`enumerate_supersingular`; the run hands the scheme suite the
    one it built), with the injectivity and image verdicts and (SL2) the
    fiber partition.

    The census is orbit pairs x lambdas (`SupersingularCensus`) and the
    parameter map is the product map (gamma, lambda) -> (point of gamma,
    lambda): the orbit fixes the node, lambda is the G_m coordinate.  So each
    orbit is placed once from its exponent pair, and the table keeps its
    place as (component, segment, coord), not a chain point.  The map is
    injective exactly when the orbit positions are distinct and the lambda list is
    duplicate-free, and its image (positions x lambdas) is the node set
    (node positions x lambdas) exactly when the positions are the node
    positions.  PGL2 (lambda = 1) and SL2 (no lambda) are the one-lambda
    cases; the SL2 modules are the members chi_n of the orbits, each at its
    orbit's position, and its fibres, the L-packets, are taken per character.
    """
    tctx, kind, q = census.tctx, census.kind, census.tctx.q
    scheme = build_scheme(kind, q)
    places = tuple(
        (pt.component, pt.segment, pt.coord)
        for pt in (langlands_parameter(tctx, kind, pair) for pair in census.pairs)
    )
    positions = places  # the modules' positions: per pair, or (SL2) per character
    nodes = [(pt.component, pt.segment, pt.coord) for pt in singular_points(scheme)]
    lams = census.lambdas
    sl2_fibers = {}
    if kind is GroupKind.SL2:
        # one position per character chi_n, its orbit's
        chars = _characters(census.pairs, places)
        positions = [pos for _, pos in chars]
        # expected fibers: {chi_{(q-1)/2}} and {chi_i, chi_{q-1-i}}
        fibers = {}
        for n, pos in chars:
            fibers.setdefault(pos, []).append(n)
        partition = sorted(sorted(v) for v in fibers.values())
        expected = [[(q - 1) // 2]] + [[i, q - 1 - i] for i in range(1, (q - 1) // 2)]
        sl2_fibers = {
            "fiber_partition": partition,
            "fibers_match_L_packets": partition == sorted(sorted(e) for e in expected),
        }
    return CorrespondenceTable(
        kind,
        q,
        census,
        places,
        module_count=census.module_count,
        node_count=len(nodes) * (len(lams) if kind is GroupKind.GL2 else 1),
        image_is_nodes=set(positions) == set(nodes),
        injective=len(set(positions)) == len(positions) and len(set(lams)) == len(lams),
        **sl2_fibers,
    )
