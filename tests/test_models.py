from __future__ import annotations

import pytest

from heckelab.errors import KindMismatch, VerificationFailure, WrongRegularity
from heckelab.gf import field_create
from heckelab.hecke import enumerate_supersingular, hecke_basis, hecke_mul, weyl
from heckelab.models import (
    Mat2,
    all_models,
    build_model,
    build_tilde_z,
    center_elements,
    freeness_check,
    os_resolution_check,
    _hom_check,
    _hom_elements,
    _hom_products,
    _relation_checks,
    verify_model,
)
from heckelab.rings import NodalLaurentPoly
from heckelab.torus import GroupKind, TorusCtx, orbit_partition, sign_character, torus_order

CTXS = {}


def tctx(q):
    if q not in CTXS:
        p, e = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q]
        CTXS[q] = TorusCtx(field_create(p, e), q)
    return CTXS[q]


def reg_orbit(kind, q, idx=0):
    return [o for o in orbit_partition(kind, q) if o.regular][idx]


def nonreg_orbit(kind, q, idx=0):
    return [o for o in orbit_partition(kind, q) if not o.regular][idx]


def test_gl2_regular_generator_images():
    t = tctx(5)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 5), t)
    ctx = t.field
    # T_omega -> (0 Z; 1 0)
    tw = mm.images["tw"]
    assert tw.a[0][1] == NodalLaurentPoly.z_power(ctx, 1)
    assert tw.a[1][0] == NodalLaurentPoly.scalar(ctx, 1)
    assert tw.a[0][0].is_zero() and tw.a[1][1].is_zero()
    # T_s0 -> (0 X1; X2 Z^{-1} 0)
    ts0 = mm.images["ts0"]
    assert ts0.a[0][1] == NodalLaurentPoly.mono(ctx, 1, 1)
    assert ts0.a[1][0] == NodalLaurentPoly.mono(ctx, 2, 1, zexp=-1)


def test_affine_generator_images():
    t = tctx(5)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 5), t, affine=True)
    ctx = t.field
    assert mm.images["ts0"].a[0][1] == NodalLaurentPoly.mono(ctx, 1, 1)
    assert mm.images["ts0"].a[1][0] == NodalLaurentPoly.mono(ctx, 2, 1)
    assert mm.images["ts1"].a[0][1] == NodalLaurentPoly.mono(ctx, 2, 1)


def test_pgl2_nonregular_ts0_image():
    t = tctx(5)
    mm = build_model(GroupKind.PGL2, nonreg_orbit(GroupKind.PGL2, 5), t)
    ctx = t.field
    ts0 = mm.images["ts0"]
    assert ts0.a[0][0].is_zero() and ts0.a[0][1].is_zero() and ts0.a[1][0].is_zero()
    assert ts0.a[1][1] == NodalLaurentPoly.scalar(ctx, ctx.neg_i(1))


def test_wrong_regularity_raises():
    t = tctx(5)
    with pytest.raises(WrongRegularity):
        build_model(GroupKind.GL2, nonreg_orbit(GroupKind.GL2, 5), t, affine=True)


def test_verify_model_passes_q5_all():
    t = tctx(5)
    for mm in all_models(t, GroupKind.GL2):
        assert verify_model(mm, Lmax=4)["pass"]
    for mm in all_models(t, GroupKind.SL2):
        assert verify_model(mm, Lmax=4)["pass"]
    for mm in all_models(t, GroupKind.PGL2):
        assert verify_model(mm, Lmax=4)["pass"]


def test_verify_model_q9_sample():
    t = tctx(9)
    orb = reg_orbit(GroupKind.GL2, 9)
    assert verify_model(build_model(GroupKind.GL2, orb, t), Lmax=4)["pass"]


def test_corrupted_model_fails():
    t = tctx(5)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 5), t)
    ctx = t.field
    z0 = NodalLaurentPoly(ctx)
    bad = Mat2(ctx, [[z0, NodalLaurentPoly.z_power(ctx, 1)], [z0, z0]])
    mm.images["tw"] = bad
    with pytest.raises(VerificationFailure):
        verify_model(mm, Lmax=2)


@pytest.mark.parametrize("q", [3, 5])
def test_collapsed_block_image_matches_termwise_sum(q):
    """image_of_block sums torus terms in F_q before one column scaling; the
    oracle maps every term T_{w t} separately and adds the matrices."""
    t = tctx(q)
    Lmax = 4
    for kind in (GroupKind.GL2, GroupKind.SL2, GroupKind.PGL2):
        for mm in all_models(t, kind):
            elems = _hom_elements(mm, Lmax)
            for u in elems:
                for v in elems:
                    if len(u[1]) + len(v[1]) > Lmax:
                        continue
                    prod = hecke_mul(hecke_basis(t, kind, u), hecke_basis(t, kind, v))
                    naive = Mat2.zero(t.field)
                    for w, c in prod.terms.items():
                        naive = naive.add(_weyl_image_by_product(mm, w).scal(c))
                    assert mm.image_of_block(prod) == naive, (mm.variant, u, v)


def _weyl_image_by_product(mm, w):
    """Phi(T_w) as the word image times the full torus image matrix."""
    omega_pow, word, torus = w
    return mm._word_image(omega_pow, word).mul(mm.torus_image(torus))


@pytest.mark.parametrize("kind", [GroupKind.GL2, GroupKind.SL2])
def test_weyl_image_scales_columns_like_the_torus_product(kind):
    t = tctx(5)
    mm = build_model(kind, reg_orbit(kind, 5), t)
    words = [(0, ()), (0, (0,)), (0, (1, 0)), (0, (0, 1, 0))]
    if mm.has_omega():
        words += [(1, ()), (-1, (1,))]
    for omega_pow, word in words:
        for torus in range(torus_order(kind, 5)):
            w = (omega_pow, word, torus)
            assert mm.image_of_weyl(w) == _weyl_image_by_product(mm, w), (omega_pow, word, torus)


def test_corrupted_shared_product_fails():
    t = TorusCtx(field_create(5), 5)  # private context: the table is corrupted
    kind = GroupKind.GL2
    mm = build_model(kind, reg_orbit(kind, 5), t)
    Lmax = 3
    table = _hom_products(t, kind, Lmax, _hom_elements(mm, Lmax))
    k = next(i for i, (u, v, _) in enumerate(table) if u[1] == (0,) and v[1] == (0,))
    u, v, prod = table[k]
    table[k] = (u, v, prod.add(hecke_basis(t, kind, weyl(kind, 5, word=(0, 1)))))
    # a model built afterwards reads the same shared table
    with pytest.raises(VerificationFailure):
        _hom_check(build_model(kind, reg_orbit(kind, 5, idx=1), t), Lmax)


def test_corrupted_derived_image_fails_with_shared_products():
    t = tctx(5)
    kind = GroupKind.GL2
    mm = build_model(kind, reg_orbit(kind, 5), t)
    _hom_check(mm, 3)  # warms the shared product table
    mm = build_model(kind, reg_orbit(kind, 5), t)
    good = mm._word_image(0, (0, 1))
    mm._word_cache[(0, (0, 1))] = good.add(good)
    assert _relation_checks(mm) == []  # generator images are untouched
    with pytest.raises(VerificationFailure):
        _hom_check(mm, 3)


def test_center_elements_gl2_regular():
    t = tctx(5)
    orb = reg_orbit(GroupKind.GL2, 5)
    cents = center_elements(GroupKind.GL2, orb, t)
    names = {name for name, _, _ in cents}
    assert names == {"X1", "X2", "Z"}
    for name, elt, img in cents:
        assert img.is_scalar()
        pol = img.a[0][0]
        if name == "X1":
            assert pol == NodalLaurentPoly.mono(t.field, 1, 1)
        elif name == "X2":
            assert pol == NodalLaurentPoly.mono(t.field, 2, 1)
        else:
            assert pol == NodalLaurentPoly.z_power(t.field, 1)


def test_center_elements_gl2_nonregular():
    t = tctx(5)
    orb = nonreg_orbit(GroupKind.GL2, 5)
    cents = center_elements(GroupKind.GL2, orb, t)
    by_name = {name: img for name, _, img in cents}
    assert by_name["X"].a[0][0] == NodalLaurentPoly.mono(t.field, 1, 1)
    assert by_name["Z"].a[0][0] == NodalLaurentPoly.z_power(t.field, 1)


def test_center_elements_sl2_regular_and_sigma():
    t = tctx(5)
    orbs = orbit_partition(GroupKind.SL2, 5)
    reg = next(o for o in orbs if o.regular)
    cents = center_elements(GroupKind.SL2, reg, t)
    by_name = {name: img for name, _, img in cents}
    # e1 T0T1 + e2 T1T0 -> X1^2 . Id
    assert by_name["C1"].a[0][0] == NodalLaurentPoly.mono(t.field, 1, 2)
    assert by_name["C2"].a[0][0] == NodalLaurentPoly.mono(t.field, 2, 2)
    sigma = sign_character(GroupKind.SL2, 5)
    sig_orb = next(o for o in orbs if sigma in o.members)
    (name, elt, img), = center_elements(GroupKind.SL2, sig_orb, t)
    want = NodalLaurentPoly.mono(t.field, 1, 2).add(NodalLaurentPoly.mono(t.field, 2, 2))
    assert img.a[0][0] == want  # (X1 + X2)^2 = X1^2 + X2^2


def test_spherical_specializations_sl2():
    t = tctx(5)
    orb = reg_orbit(GroupKind.SL2, 5)
    mm = build_model(GroupKind.SL2, orb, t)

    def specialize(x1, x2):
        """The fibre of the spherical module at (x1, x2), x1 x2 = 0."""
        return {name: m.evaluate(x1, x2, 1) for name, m in mm.images.items()}

    # at X1 = X2 = 0: chi_1 (+) chi_2, i.e. both reflection actions vanish
    fib = specialize(0, 0)
    assert fib["ts0"] == [[0, 0], [0, 0]]
    assert fib["ts1"] == [[0, 0], [0, 0]]
    assert fib["e1"] == [[1, 0], [0, 0]]
    # at X1 = 0, X2 = lambda: T0 acts by (0 0; lambda 0)
    lam = 2
    fib = specialize(0, lam)
    assert fib["ts0"] == [[0, 0], [lam, 0]]
    assert fib["ts1"] == [[0, lam], [0, 0]]


def test_freeness_check():
    t = tctx(5)
    assert freeness_check(t, 0)
    assert freeness_check(t, 1)
    assert freeness_check(t, 4)


def test_tilde_z_components():
    t = tctx(5)
    tz = build_tilde_z(t)
    rings = [ring for ring, _ in tz.components]
    assert rings == ["k[X]", "A", "A"]
    # every non-trivial component's lifted orbit is a regular GL2 orbit
    for ring, orb in tz.components[1:]:
        assert orb.regular


def test_os_resolution_check_q3():
    t = tctx(3)
    orb = reg_orbit(GroupKind.GL2, 3)
    census = enumerate_supersingular(t, GroupKind.GL2)
    mod = next(m for m in census.modules if m.orbit == orb)
    rep = os_resolution_check(t, orb, mod, mod.lam_idx, D=4)
    assert rep["pass"]
    assert rep["dims"]["boundary_image"] == rep["dims"]["ker_counit"]


def test_os_resolution_zero_module_trivial():
    t = tctx(3)
    orb = reg_orbit(GroupKind.GL2, 3)
    assert os_resolution_check(t, orb, None, 1, D=4)["pass"]


def test_os_resolution_small_D_raises():
    from heckelab.errors import TruncationTooSmall

    t = tctx(3)
    orb = reg_orbit(GroupKind.GL2, 3)
    with pytest.raises(TruncationTooSmall):
        os_resolution_check(t, orb, None, 1, D=1)


def test_gl2_span_parity_corner_structure():
    """Basis elements whose word length matches the omega power mod 2 map into
    the e1-corner subring; the others land in the off-corner columns."""
    from heckelab.hecke import weyl

    t = tctx(5)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 5), t)
    e1 = mm.images["e1"]
    words = [()]
    for n in range(1, 7):
        words += [tuple((s + k) % 2 for k in range(n)) for s in (0, 1)]
    for w in words:
        for a in (-2, -1, 0, 1, 2):
            img = e1.mul(mm.image_of_weyl(weyl(GroupKind.GL2, 5, omega_pow=a, word=w)))
            in_corner = img.a[0][1].is_zero() and img.a[1][0].is_zero() and img.a[1][1].is_zero()
            off_corner = img.a[0][0].is_zero() and img.a[1][0].is_zero() and img.a[1][1].is_zero()
            if (len(w) - a) % 2 == 0:
                assert in_corner
            else:
                assert off_corner


def test_os_resolution_shared_across_orbits():
    t = TorusCtx(field_create(5), 5)
    kind = GroupKind.GL2
    orb_a, orb_b = reg_orbit(kind, 5, 0), reg_orbit(kind, 5, 3)
    census = enumerate_supersingular(t, kind)
    lam = t.value_i(1)
    mod_a = next(m for m in census.modules if m.orbit == orb_a and m.lam_idx == lam)
    mod_b = next(m for m in census.modules if m.orbit == orb_b and m.lam_idx == lam)
    rep_a = os_resolution_check(t, orb_a, mod_a, lam, D=4)
    rep_a["dims"]["T0"] = -1  # callers own the returned report
    rep_b = os_resolution_check(t, orb_b, mod_b, lam, D=4)
    cold_b = os_resolution_check(TorusCtx(field_create(5), 5), orb_b, mod_b, lam, D=4)
    assert rep_b == cold_b and rep_b["pass"]
    assert rep_b["dims"]["T0"] != -1
    # validation still runs once the result is cached
    with pytest.raises(KindMismatch):
        os_resolution_check(t, orb_a, mod_b, lam, D=4)
