from __future__ import annotations

import pytest

from heckelab.errors import EvenCharacteristic, FinitePDModule, UnsupportedKind
from heckelab.gf import field_create
from heckelab.hecke import enumerate_supersingular, sl2_chi, supersingular_characters
from heckelab.scheme import (
    INF,
    ChainPoint,
    SpecZPoint,
    build_scheme,
    correspondence_table,
    gl2_component_position,
    L_map,
    langlands_parameter,
    phi,
    phi_prime,
    singular_points,
)
from heckelab.torus import GroupKind, TorusCtx, orbit_partition

from .oracles import correspondence_rows_fresh_scheme

CTXS = {}


def tctx(q):
    if q not in CTXS:
        p, e = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]
        CTXS[q] = TorusCtx(field_create(p, e), q)
    return CTXS[q]


def test_build_scheme_is_built_once_per_kind_and_q():
    for kind in GroupKind:
        s = build_scheme(kind, 7)
        assert build_scheme(kind, 7) is s
        assert s == build_scheme.__wrapped__(kind, 7)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_correspondence_rows_match_a_scheme_built_per_module(q):
    t = tctx(q)
    for kind in GroupKind:
        rows = correspondence_table(t, kind)["rows"]
        assert rows == correspondence_rows_fresh_scheme(t, kind), kind


def test_build_scheme_gl2_q5():
    s = build_scheme(GroupKind.GL2, 5)
    lengths = [c.length for c in s.components]
    assert lengths == [2, 3, 2, 3]
    assert all(c.has_gm for c in s.components)


def test_build_scheme_sl2_q3():
    s = build_scheme(GroupKind.SL2, 3)
    assert [c.length for c in s.components] == [1, 2]


def test_build_scheme_pgl2_q5():
    s = build_scheme(GroupKind.PGL2, 5)
    assert len(s.components) == 1 and s.components[0].length == 2
    assert not s.components[0].has_gm


def test_build_scheme_even_q_raises():
    with pytest.raises(EvenCharacteristic):
        build_scheme(GroupKind.GL2, 4)


def test_phi_values():
    t = tctx(5)
    assert phi(t, 0) == INF
    assert phi(t, 1) == 2  # 1 + 1
    for x in range(1, 5):
        assert phi(t, x) == phi(t, t.field.inv_i(x))


def test_phi_fiber_sizes():
    t = tctx(7)
    fibers = {}
    for x in range(1, 7):
        fibers.setdefault(phi(t, x), []).append(x)
    for val, xs in fibers.items():
        if val == 2 or val == t.field.neg_i(2):  # t = +-1 ramifies
            assert len(xs) == 1
        else:
            assert len(xs) == 2


def test_phi_prime_matches_affine_change():
    t = tctx(5)
    assert phi_prime(t, 0) == 0
    for x in range(1, 5):
        s = phi(t, x)
        expected = INF if s == 0 else t.field.inv_i(s)
        if s == INF:
            continue
        assert phi_prime(t, x) == expected


def test_singular_point_counts():
    t5 = tctx(5)
    s = build_scheme(GroupKind.GL2, 5)
    per_z = singular_points(s, gm_values=[1])
    assert len(per_z) == 6  # 1 + 2 + 1 + 2
    sl2 = build_scheme(GroupKind.SL2, 5)
    assert len(singular_points(sl2)) == 2
    assert len(singular_points(build_scheme(GroupKind.PGL2, 5))) == 1


def test_chain_point_canonicalisation():
    p = ChainPoint(0, 1, 0)
    c = p.canonical(3)
    assert (c.segment, c.coord) == (0, INF)
    assert c.is_node(3)
    end = ChainPoint(0, 2, INF)
    assert not end.is_node(3)


def test_L_map_middle_component_gl2_even():
    q = 9
    t = tctx(q)
    # an even-label regular orbit in the interior
    orbits = [o for o in orbit_partition(GroupKind.GL2, q) if o.regular and o.n_label % 2 == 0]
    orb = next(o for o in orbits if 1 <= gl2_component_position(o, q)[1] <= (q - 3) // 2)
    n, i = gl2_component_position(orb, q)
    a = 2  # nonzero
    pt = L_map(t, GroupKind.GL2, SpecZPoint(orb, a, 0, 1))
    assert pt.segment == i - 1 and pt.coord == t.field.inv_i(a)
    pt0 = L_map(t, GroupKind.GL2, SpecZPoint(orb, 0, 0, 1))
    assert pt0.coord == INF and pt0.segment == i - 1
    ptb = L_map(t, GroupKind.GL2, SpecZPoint(orb, 0, a, 1))
    assert ptb.segment == i and ptb.coord == a


def test_L_map_gl2_odd_end_glues_to_node():
    q = 5
    t = tctx(q)
    orbits = [o for o in orbit_partition(GroupKind.GL2, q) if o.n_label % 2 == 1]
    first = next(o for o in orbits if gl2_component_position(o, q)[1] == 1)
    node = L_map(t, GroupKind.GL2, SpecZPoint(first, 0, 0, 1))
    assert node.segment == 0 and node.coord == INF  # phi(0) = inf glued to C1 origin
    # generic x1 goes through t + 1/t on C0
    p = L_map(t, GroupKind.GL2, SpecZPoint(first, 3, 0, 1))
    assert p.segment == 0 and p.coord == phi(t, 3)


def test_L_map_sl2_last_component_uses_phi_prime():
    q = 5
    t = tctx(q)
    orbits = orbit_partition(GroupKind.SL2, q)
    sigma_orbit = next(o for o in orbits if {c.exps[0] for c in o.members} == {2})
    # sigma is even for q = 5, index 1, chain length 2: x2-leg folds by phi'
    b = 2
    p = L_map(t, GroupKind.SL2, SpecZPoint(sigma_orbit, 0, b))
    assert p.component == 0 and p.segment == 1
    assert p.coord == phi_prime(t, b)


def test_L_map_trivial_sl2_line_errors_off_line():
    q = 5
    t = tctx(q)
    triv = next(o for o in orbit_partition(GroupKind.SL2, q) if {c.exps[0] for c in o.members} == {0})
    assert L_map(t, GroupKind.SL2, SpecZPoint(triv, 2, 0)).segment == 0
    with pytest.raises(UnsupportedKind):
        L_map(t, GroupKind.SL2, SpecZPoint(triv, 0, 2))


def test_node_bijection_gl2():
    for q in (3, 5, 7, 9):
        t = tctx(q)
        scheme = build_scheme(GroupKind.GL2, q)
        for z_exp in range(q - 1):
            z = t.value_i(z_exp)
            seen = set()
            for orb in orbit_partition(GroupKind.GL2, q):
                if not orb.regular:
                    continue
                pt = L_map(t, GroupKind.GL2, SpecZPoint(orb, 0, 0, z))
                comp = scheme.component(pt.component)
                assert pt.is_node(comp.length)
                seen.add((pt.component, pt.segment, pt.coord, pt.gm))
            nodes = {
                (p.component, p.segment, p.coord, p.gm)
                for p in singular_points(scheme, gm_values=[z])
            }
            assert seen == nodes


def test_open_embedding_injective_on_middle_components():
    q = 9
    t = tctx(q)
    orbits = [o for o in orbit_partition(GroupKind.GL2, q) if o.regular and o.n_label % 2 == 0]
    middles = [o for o in orbits if 1 <= gl2_component_position(o, q)[1] <= (q - 5) // 2]
    orb = middles[0]
    f_elts = t.field.subfield_indices(q)
    seen = set()
    count = 0
    for x1 in f_elts:
        for x2 in f_elts:
            if t.field.mul_i(x1, x2) != 0:
                continue
            pt = L_map(t, GroupKind.GL2, SpecZPoint(orb, x1, x2, 1)).canonical(10)
            seen.add((pt.segment, pt.coord))
            count += 1
    assert len(seen) == count  # injective


def test_langlands_parameter_finite_pd_refused():
    t = tctx(5)
    finite = next(c for c in supersingular_characters(GroupKind.SL2, 5) if c.finite_pd)
    with pytest.raises(FinitePDModule):
        langlands_parameter(t, GroupKind.SL2, finite)


def test_sl2_fibers_q5_and_q7():
    t5 = tctx(5)
    report = correspondence_table(t5, GroupKind.SL2)
    assert report["image_is_nodes"]
    assert report["fibers_match_L_packets"]
    # chi_2 is alone in its fiber; chi_1 and chi_3 share one
    assert sorted(report["fiber_partition"]) == [[1, 3], [2]]
    t7 = tctx(7)
    report = correspondence_table(t7, GroupKind.SL2)
    assert sorted(report["fiber_partition"]) == [[1, 5], [2, 4], [3]]


def test_gl2_correspondence_counts():
    for q in (3, 5):
        t = tctx(q)
        report = correspondence_table(t, GroupKind.GL2)
        assert report["injective"]
        assert report["image_is_nodes"]
        assert report["module_count"] == (q - 1) * (q - 2) // 2 * (q - 1)
        assert report["node_count"] == report["module_count"]


def test_pgl2_correspondence_counts():
    for q in (5, 7):
        t = tctx(q)
        report = correspondence_table(t, GroupKind.PGL2)
        assert report["injective"] and report["image_is_nodes"]
        assert report["module_count"] == (q - 3) // 2


def test_ambient_extension_points():
    """Points with coordinates outside F_q: the fold still identifies t and
    1/t, and the parameter machinery accepts units of the bigger field."""
    big = TorusCtx(field_create(3, 2), 3)  # q = 3 inside ambient F_9
    f = big.field
    orbits = [o for o in orbit_partition(GroupKind.GL2, 3) if o.regular]
    orb = orbits[0]
    for x in range(1, f.q):
        assert phi(big, x) == phi(big, f.inv_i(x))
    # a G_m coordinate outside mu_{q-1}
    gen = f.generator_idx()
    pt = L_map(big, GroupKind.GL2, SpecZPoint(orb, 0, 0, gen))
    assert pt.coord == INF and pt.gm == gen
    from heckelab.hecke import enumerate_supersingular

    census = enumerate_supersingular(big, GroupKind.GL2, lambdas=[gen])
    assert len(census.modules) == 1
    assert census.modules[0].check()
