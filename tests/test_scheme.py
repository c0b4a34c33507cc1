from __future__ import annotations

import pytest

from heckelab.errors import ConfigError, EvenCharacteristic, UnsupportedKind
from heckelab.gf import field_create, prime_power
from heckelab.hecke import enumerate_supersingular
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
from heckelab.torus import GroupKind, TorusCtx, block_label, orbit_pairs

from .oracles import (
    correspondence_rows_fresh_scheme,
    correspondence_table_per_module,
    supersingular_characters,
)

CTXS = {}


def tctx(q):
    """F_q, or F_729 for q = 27."""
    if q not in CTXS:
        CTXS[q] = TorusCtx(field_create(3, 6) if q == 27 else field_create(*prime_power(q)), q)
    return CTXS[q]


def gl2_regular(q, parity):
    """The regular GL2 orbits, as their pairs, whose block label has `parity`."""
    return [pair for pair in orbit_pairs(GroupKind.GL2, q)["regular"]
            if block_label(GroupKind.GL2, q, pair[0]) % 2 == parity]


def test_build_scheme_is_built_once_per_kind_and_q():
    for kind in GroupKind:
        s = build_scheme(kind, 7)
        assert build_scheme(kind, 7) is s
        assert s == build_scheme.__wrapped__(kind, 7)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_correspondence_rows_match_a_scheme_built_per_module(q):
    t = tctx(q)
    for kind in GroupKind:
        rows = correspondence_table(enumerate_supersingular(t, kind)).rows
        assert rows == correspondence_rows_fresh_scheme(t, kind), kind


def _per_orbit_and_per_module(t, kind, lam_values=None):
    census = enumerate_supersingular(t, kind, lambdas=lam_values)
    table, want = correspondence_table(census), correspondence_table_per_module(census)
    return {key: getattr(table, key) for key in want}, want


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 27])
def test_factored_table_agrees_with_the_per_module_oracle(q):
    """Placing each orbit once from its exponent pair and each lambda once
    gives the verdicts, counts, rows and SL2 fibres of the per-module loop,
    for every kind, for the default lambdas and (q <= 13) for each lambda
    alone; q = 27 is taken over F_729."""
    t = tctx(q)
    cases = [(kind, None) for kind in GroupKind]
    if q <= 13:
        cases += [(GroupKind.GL2, [t.value_i(e)]) for e in range(q - 1)]
    for kind, lams in cases:
        got, want = _per_orbit_and_per_module(t, kind, lams)
        assert got == want, (kind, lams)
        assert got["image_is_nodes"] and (kind is GroupKind.SL2 or got["injective"])


def test_the_census_and_its_map_build_no_per_character_object(monkeypatch):
    """Over F_729 at q = 27 (676 characters, 325 regular GL2 orbits), the
    GL2 census, its parameter map and its certificate read exponent pairs
    (the package has no character or orbit type) and never call
    `orbit_partition`."""
    import heckelab.hecke as hecke
    import heckelab.scheme as scheme
    import heckelab.torus as torus

    def refused(kind, q):
        raise AssertionError("orbit_partition was called")

    for module in (torus, hecke, scheme):
        monkeypatch.setattr(module, "orbit_partition", refused, raising=False)
    t = TorusCtx(field_create(3, 6), 27)  # its own census
    census = enumerate_supersingular(t, GroupKind.GL2)
    table = correspondence_table(census)
    assert census.check() and table.census is census
    assert len(census.pairs) == 325 and table.injective and table.image_is_nodes


def move_first_orbit(monkeypatch):
    """`gl2_component_position` sends the first regular orbit's representative
    to the second's position."""
    import heckelab.scheme as scheme

    real = scheme.gl2_component_position

    def moved(exps, q):
        first, second = [xi for xi, _ in orbit_pairs(GroupKind.GL2, q)["regular"]][:2]
        return real(second if exps == first else exps, q)

    monkeypatch.setattr(scheme, "gl2_component_position", moved)


def test_a_moved_orbit_breaks_injectivity_and_the_image(monkeypatch):
    """With the first regular orbit moved onto the second's position, two
    modules share each point of that position and the first's node is missed."""
    move_first_orbit(monkeypatch)
    got, want = _per_orbit_and_per_module(tctx(5), GroupKind.GL2)
    assert got == want
    assert got["injective"] is False and got["image_is_nodes"] is False


def test_a_duplicate_lambda_breaks_injectivity():
    t = tctx(5)
    lams = [t.value_i(e) for e in (0, 1, 0)]
    got, want = _per_orbit_and_per_module(t, GroupKind.GL2, lams)
    assert got == want
    assert got["injective"] is False and got["image_is_nodes"] is True
    assert got["module_count"] == got["node_count"] == 6 * 3


def test_an_empty_lambda_list_is_refused():
    """An empty GL2 census would make every verdict of the map vacuous, so
    the census refuses one."""
    with pytest.raises(ConfigError, match="at least one lambda"):
        enumerate_supersingular(tctx(5), GroupKind.GL2, lambdas=[])


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
    orbits = gl2_regular(q, 0)
    orb = next(o for o in orbits if 1 <= gl2_component_position(o[0], q)[1] <= (q - 3) // 2)
    n, i = gl2_component_position(orb[0], q)
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
    orbits = gl2_regular(q, 1)  # at odd q an s0-fixed (j, j) has the even label 2j
    first = next(o for o in orbits if gl2_component_position(o[0], q)[1] == 1)
    node = L_map(t, GroupKind.GL2, SpecZPoint(first, 0, 0, 1))
    assert node.segment == 0 and node.coord == INF  # phi(0) = inf glued to C1 origin
    # generic x1 goes through t + 1/t on C0
    p = L_map(t, GroupKind.GL2, SpecZPoint(first, 3, 0, 1))
    assert p.segment == 0 and p.coord == phi(t, 3)


def test_L_map_sl2_last_component_uses_phi_prime():
    q = 5
    t = tctx(q)
    (sigma_orbit,) = orbit_pairs(GroupKind.SL2, q)["sign"]
    assert sigma_orbit == ((2,), (2,))
    # sigma is even for q = 5, index 1, chain length 2: x2-leg folds by phi'
    b = 2
    p = L_map(t, GroupKind.SL2, SpecZPoint(sigma_orbit, 0, b))
    assert p.component == 0 and p.segment == 1
    assert p.coord == phi_prime(t, b)


def test_L_map_trivial_sl2_line_errors_off_line():
    q = 5
    t = tctx(q)
    (triv,) = orbit_pairs(GroupKind.SL2, q)["trivial"]
    assert triv == ((0,), (0,))
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
            for orb in orbit_pairs(GroupKind.GL2, q)["regular"]:
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
    orbits = gl2_regular(q, 0)
    middles = [o for o in orbits if 1 <= gl2_component_position(o[0], q)[1] <= (q - 5) // 2]
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
    """The parameter map is read on the census alone, which lists no SL2
    character of finite projective dimension (Koziol's flag, which only the
    oracle carries): at q = 5 that is the trivial character, whose orbit the
    map would send to the trivial component's line, off the nodes."""
    t = tctx(5)
    finite = {xi for xi, _, _, finite_pd in supersingular_characters(GroupKind.SL2, 5) if finite_pd}
    census = enumerate_supersingular(t, GroupKind.SL2)
    assert finite == {(0,)} and not finite & {xi for pair in census.pairs for xi in pair}
    point = langlands_parameter(t, GroupKind.SL2, ((0,), (0,)))
    assert point == ChainPoint(0, 0, 0)
    assert point not in singular_points(build_scheme(GroupKind.SL2, 5))


def test_sl2_fibers_q5_and_q7():
    t5 = tctx(5)
    report = correspondence_table(enumerate_supersingular(t5, GroupKind.SL2))
    assert report.image_is_nodes
    assert report.fibers_match_L_packets
    # chi_2 is alone in its fiber; chi_1 and chi_3 share one
    assert sorted(report.fiber_partition) == [[1, 3], [2]]
    t7 = tctx(7)
    report = correspondence_table(enumerate_supersingular(t7, GroupKind.SL2))
    assert sorted(report.fiber_partition) == [[1, 5], [2, 4], [3]]


def test_gl2_correspondence_counts():
    for q in (3, 5):
        t = tctx(q)
        report = correspondence_table(enumerate_supersingular(t, GroupKind.GL2))
        assert report.injective
        assert report.image_is_nodes
        assert report.module_count == (q - 1) * (q - 2) // 2 * (q - 1)
        assert report.node_count == report.module_count


def test_pgl2_correspondence_counts():
    for q in (5, 7):
        t = tctx(q)
        report = correspondence_table(enumerate_supersingular(t, GroupKind.PGL2))
        assert report.injective and report.image_is_nodes
        assert report.module_count == (q - 3) // 2


def test_ambient_extension_points():
    """Points with coordinates outside F_q: the fold still identifies t and
    1/t, and the parameter machinery accepts units of the bigger field."""
    big = TorusCtx(field_create(3, 2), 3)  # q = 3 inside ambient F_9
    f = big.field
    orb = orbit_pairs(GroupKind.GL2, 3)["regular"][0]
    for x in range(1, f.q):
        assert phi(big, x) == phi(big, f.inv_i(x))
    # a G_m coordinate outside mu_{q-1}
    gen = f.generator_idx()
    pt = L_map(big, GroupKind.GL2, SpecZPoint(orb, 0, 0, gen))
    assert pt.coord == INF and pt.gm == gen
    from heckelab.hecke import enumerate_supersingular

    census = enumerate_supersingular(big, GroupKind.GL2, lambdas=[gen])
    assert census.module_count == 1 and census.check()
