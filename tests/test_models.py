from __future__ import annotations

import json
import re
from collections import Counter

import pytest

from heckelab import hecke, models
from heckelab.cli import RunConfig, main, run
from heckelab.errors import KindMismatch, RelationViolation, VerificationFailure, WrongRegularity
from heckelab.gf import field_create
from heckelab.hecke import HeckeElt, enumerate_supersingular, hecke_basis, hecke_mul, weyl
from heckelab.linalg import Span
from heckelab.models import (
    GL2_REG,
    Mat2,
    build_model,
    build_tilde_z,
    center_elements,
    freeness_check,
    os_resolution_check,
    _characters_certified,
    _class_facts,
    _generator_products,
    _hom_check,
    _relation_checks,
    verify_model,
    verify_models,
)
from heckelab.rings import NodalLaurentPoly
from heckelab.torus import (
    GroupKind,
    TorusCtx,
    char_value_i,
    coroot_image,
    mu_alpha_order,
    orbit_class,
    orbit_list_faults,
    orbit_obj,
    orbit_pair,
    orbit_pairs,
    torus_generators,
    torus_index,
    torus_order,
)

from .oracles import (
    all_models,
    dense_coeff_vector,
    diagonal_walk_failure,
    matrix_relation_failures,
    orbit_partition,
    pairwise_hom_holds,
    pairwise_idempotent_system,
    pairwise_hom_pairs,
    rref,
    verify_model_per_model,
    weyl_image_by_product,
    with_characters,
    with_images,
)

CTXS = {}


def tctx(q):
    if q not in CTXS:
        p, e = {3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}[q]
        CTXS[q] = TorusCtx(field_create(p, e), q)
    return CTXS[q]


def reg_orbit(kind, q, idx=0):
    return orbit_pairs(kind, q)["regular"][idx]


def nonreg_orbit(kind, q, idx=0):
    classes = orbit_pairs(kind, q)
    return [pair for c in classes if c != "regular" for pair in classes[c]][idx]


def report_orbit(mm):
    """The `orbit` entry that a report gives the model's orbit."""
    return orbit_obj(mm.kind, mm.tctx.q, mm.pair)


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
    bad_tw = Mat2(ctx, [[z0, NodalLaurentPoly.z_power(ctx, 1)], [z0, z0]])
    mm = with_images(mm, {**mm.images, "tw": bad_tw})
    with pytest.raises(VerificationFailure):
        verify_model(mm, Lmax=2)
    # the generator table sees it on its own, not only through the relations
    with pytest.raises(VerificationFailure, match="homomorphism fails"):
        _hom_check(mm, 2)


def _hom_verdict(mm, Lmax):
    try:
        _hom_check(mm, Lmax)
    except VerificationFailure:
        return False
    return True


def _corrupt_word_image(mm, Lmax):
    """Add 1 to the derived image of the longest word in range, omega s0 s1 ...
    of length Lmax (s0 s1 ... for the omega-free models)."""
    key = (1 if mm.has_omega() else 0, tuple(k % 2 for k in range(Lmax)))
    mm.shape.word_cache[key] = mm.shape.word_image(*key).add(Mat2.identity(mm.field))


@pytest.mark.parametrize("q", [3, 5])
def test_generator_certificate_agrees_with_pairwise_oracle(q):
    """On every model of every kind, the generator certificate and the pairwise
    check it replaced give the same verdict: both pass the models as built,
    and both fail them once the derived image of a word at the length bound is
    corrupted."""
    t = tctx(q)
    Lmax = 4
    products = {}
    for kind in (GroupKind.GL2, GroupKind.SL2, GroupKind.PGL2):
        for good in all_models(t, kind):
            # a copy of the images: a VariantModel of its own
            bad = with_images(good, dict(good.images))
            _corrupt_word_image(bad, Lmax)
            for mm, want in ((good, True), (bad, False)):
                oracle = pairwise_hom_holds(mm, Lmax, products)
                assert _hom_verdict(mm, Lmax) is oracle is want, (mm.variant, want)


@pytest.mark.parametrize("q", [3, 5])
def test_collapsed_block_image_matches_termwise_sum(q):
    """image_of_block sums torus terms in F_q before one column scaling; the
    oracle maps every term T_{w t} separately and adds the matrices."""
    t = tctx(q)
    Lmax = 4
    for kind in (GroupKind.GL2, GroupKind.SL2, GroupKind.PGL2):
        for mm in all_models(t, kind):
            for u, v in pairwise_hom_pairs(mm, Lmax):
                prod = hecke_mul(hecke_basis(t, kind, u), hecke_basis(t, kind, v))
                naive = Mat2.zero(t.field)
                for w, c in prod.terms.items():
                    naive = naive.add(weyl_image_by_product(mm, w).scal(c))
                assert mm.image_of_block(prod) == naive, (mm.variant, u, v)


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
            image = mm.image_of_block(hecke_basis(t, kind, w))
            assert image == weyl_image_by_product(mm, w), (omega_pow, word, torus)


def _corrupt_product(monkeypatch, kind, x, g, corrupt):
    """Have `models.hecke_mul` give corrupt(T_x T_g) for the row (x, g) of the
    generator table, and every other product unchanged."""
    hecke_mul_ = models.hecke_mul

    def patched(a, b):
        prod = hecke_mul_(a, b)
        if a.kind is kind and (a.terms, b.terms) == ({x: 1}, {g: 1}):
            return corrupt(prod)
        return prod

    monkeypatch.setattr(models, "hecke_mul", patched)


def test_corrupted_shared_product_fails(monkeypatch):
    """T_s0 T_s0 with a stray T_s0s1 fails the product-shape certificate for
    every model that reads the table: two lone models, each certifying a
    table of its own, and every model in the models suite, which certifies
    each of the two tables (with and without omega, both of which hold the
    row) once and hands its failure to the variants that read it."""
    t = tctx(5)
    kind = GroupKind.GL2
    s0 = weyl(kind, 5, word=(0,))
    stray = hecke_basis(t, kind, weyl(kind, 5, word=(0, 1)))
    _corrupt_product(monkeypatch, kind, s0, s0, lambda prod: prod.add(stray))
    certified = []
    generator_keys = models._generator_keys

    def counted_keys(shape):
        certified.append(shape)
        return generator_keys(shape)

    monkeypatch.setattr(models, "_generator_keys", counted_keys)
    Lmax = 3
    for idx in (0, 1):
        with pytest.raises(VerificationFailure, match="GL2_REG: product T_x T_g is not of its"):
            _hom_check(build_model(kind, reg_orbit(kind, 5, idx=idx), t), Lmax)
    assert len(certified) == 2
    details = verify_models(t, kind, Lmax)
    assert len(certified) == 4 and details["variants_verified"] == 0
    assert [(f["variant"], f["orbit"]) for f in details["failures"]] == [
        (mm.variant, report_orbit(mm)) for mm in all_models(t, kind)
    ]
    for failure in details["failures"]:
        message = f"{failure['variant']}: product T_x T_g is not of its shape"
        assert failure["counterexample"].startswith(message)


def test_corrupted_derived_image_fails_with_shared_products():
    t = tctx(5)
    kind = GroupKind.GL2
    mm = build_model(kind, reg_orbit(kind, 5), t)
    products = _generator_products(mm.shape, 3)  # the table the copy is handed
    _hom_check(mm, 3, products)
    mm = with_images(mm, dict(mm.images))  # a VariantModel of its own
    good = mm.shape.word_image(0, (0, 1))
    mm.shape.word_cache[(0, (0, 1))] = good.add(good)
    sums, _ = _characters_certified(t, kind)
    assert _relation_checks(mm, sums) == []  # generator images are untouched
    with pytest.raises(VerificationFailure):
        _hom_check(mm, 3, products)


def test_corrupted_image_at_omega_power_minus_one_fails():
    """Only the T_omega^-1 rows reach the images at omega power -1."""
    t = tctx(5)
    mm = build_model(GroupKind.GL2, nonreg_orbit(GroupKind.GL2, 5), t)
    mm = with_images(mm, dict(mm.images))  # a VariantModel of its own
    good = mm.shape.word_image(-1, (1,))
    mm.shape.word_cache[(-1, (1,))] = good.add(good)
    with pytest.raises(VerificationFailure, match="homomorphism fails"):
        _hom_check(mm, 2)


def _own_tctx(q):
    """A TorusCtx of its own, whose zeta table a test may corrupt without
    touching the contexts that the other tests share."""
    return TorusCtx(tctx(q).field, q)


def test_torus_image_off_the_generators_fails():
    """A zeta table off at exponent 3 (zeta^3 read as zeta^2): no relation
    reads a character's values, only its exponents, and the character
    certificate fails every model of the kind, as the full-diagonal walk of
    the oracle fails the model's own diagonal."""
    t = _own_tctx(5)
    t._zpow = list(t._zpow)
    t._zpow[3] = t._zpow[2]
    kind = GroupKind.GL2
    for mm in (build_model(kind, reg_orbit(kind, 5), t), build_model(kind, nonreg_orbit(kind, 5), t)):
        with pytest.raises(VerificationFailure, match=f"{mm.variant}: zeta table is not injective"):
            verify_model(mm, Lmax=6)
    assert diagonal_walk_failure(build_model(kind, reg_orbit(kind, 5), t))


def test_torus_image_off_at_a_product_of_generators_fails(monkeypatch):
    """The group law of `hecke_mul` off only at t1 t2 = (1, 1), which it
    sends to t1.  The models read the law at the identity alone (their
    relations compare exponents, and each product of the generator table
    has its torus part on one side), so `verify_model` passes; the blocks
    certificate, whose group-law rows multiply T_t1 into every torus
    element, sees the product and fails."""
    t = _own_tctx(5)
    kind = GroupKind.GL2
    t1, t2 = (torus_index(kind, 5, u) for u in torus_generators(kind))
    real = hecke.torus_mul

    def off(kind, q, s, ts):
        return [t1 if (s, t) == (t1, t2) else m for m, t in zip(real(kind, q, s, ts), ts)]

    monkeypatch.setattr(hecke, "torus_mul", off)
    assert hecke_mul(hecke.gen_Tt(t, kind, (1, 0)), hecke.gen_Tt(t, kind, (0, 1))).terms == {
        (0, (), t1): 1
    }
    assert verify_model(build_model(kind, reg_orbit(kind, 5), t), Lmax=6)["pass"]
    assert not hecke.idempotent_system(t, kind)


def _swap_zeta(t, monkeypatch):
    t._zpow = list(t._zpow)
    t._zpow[2], t._zpow[3] = t._zpow[3], t._zpow[2]


def _coroot_image_edited(edit):
    """The coroot image that the character certificate reads, edited."""

    def corrupt(t, monkeypatch):
        real = models.coroot_image
        monkeypatch.setattr(models, "coroot_image", lambda kind, q: edit(real(kind, q)))

    return corrupt


@pytest.mark.parametrize(
    "corrupt,fault",
    [
        (_swap_zeta, "zeta table is not a homomorphism at exponent 1"),
        (
            _coroot_image_edited(lambda image: image[1:] + image[:1]),
            "coroot image is not alpha^vee(zeta)^c at c=0",
        ),
        (
            _coroot_image_edited(lambda image: image[:1] + image[:0:-1]),
            "coroot image is not alpha^vee(zeta)^c at c=1",
        ),
    ],
    ids=["swapped_zeta_entries", "coroot_image_off_by_one", "reversed_coroot_image"],
)
def test_a_corrupted_torus_table_fails_the_character_certificate(corrupt, fault, monkeypatch):
    """Each check of the character certificate fails on its own: zeta^2 and
    zeta^3 swapped (still distinct), the coroot image listed from
    alpha^vee(zeta) (entry c is alpha^vee(zeta)^(c+1)), and the coroot image
    listed backwards (the same set).  No relation reads these, and every
    model of the kind fails."""
    t = _own_tctx(7)
    kind = GroupKind.GL2
    corrupt(t, monkeypatch)
    models_ = list(all_models(t, kind))
    for mm in models_:
        with pytest.raises(VerificationFailure, match=re.escape(f"{mm.variant}: {fault}")):
            verify_model(mm, Lmax=2)
    assert {mm.variant for mm in models_} == {GL2_REG, models.GL2_NONREG, models.AFF_REG}


@pytest.mark.parametrize("entry", [0, 1])
def test_a_diagonal_off_at_a_torus_generator_fails_the_relations_of_the_matrix_oracle(entry):
    """One character of the pair times the character that is zeta at the
    first torus generator t_1 and 1 at the others, so that D(t_1) is off by
    zeta in one entry: the torus relations compared on exponent vectors fail,
    by name, exactly where the Mat2 identities of the oracle fail, on one
    model of each of the seven variants."""
    t = tctx(5)
    first = {}
    for kind in GroupKind:
        for mm in all_models(t, kind):
            first.setdefault(mm.variant, mm)
    assert len(first) == 7
    sums = {kind: _characters_certified(t, kind)[0] for kind in GroupKind}
    for variant, mm in first.items():
        assert _relation_checks(mm, sums[mm.kind]) == matrix_relation_failures(mm) == []
        off = list(mm.characters)
        unit = (1, 0) if mm.kind is GroupKind.GL2 else (1,)
        off[entry] = tuple((a + b) % 4 for a, b in zip(off[entry], unit))
        bad = with_characters(mm, off)
        g = torus_index(mm.kind, 5, torus_generators(mm.kind)[0])
        honest = char_value_i(t, mm.kind, mm.characters[entry], g)
        shifted = char_value_i(t, mm.kind, bad.characters[entry], g)
        assert shifted == t.field.mul[honest][t.value_i(1)]
        failures = _relation_checks(bad, sums[mm.kind])
        assert failures, variant
        assert sorted(failures) == sorted(set(matrix_relation_failures(bad))), variant


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_the_diagonal_walk_oracle_agrees_with_the_suite(q):
    """On every model of every kind, the suite's verdict is the oracle's:
    the Mat2 relations on the full torus image and the walk of the full
    diagonal.  Both pass the honest models, and both fail each model whose
    pair is (xi, xi times a non-trivial character)."""
    t = tctx(q)
    for kind in GroupKind:
        for mm in all_models(t, kind):
            verify_model(mm, Lmax=2)
            assert matrix_relation_failures(mm) == [] and diagonal_walk_failure(mm) is None
            xi, xi_tw = mm.characters
            unit = (1, 0) if kind is GroupKind.GL2 else (1,)
            bad = with_characters(mm, (xi, tuple((a + b) % (q - 1) for a, b in zip(xi_tw, unit))))
            assert diagonal_walk_failure(bad) is None
            assert matrix_relation_failures(bad), (kind, mm.variant)
            with pytest.raises(VerificationFailure, match="relation"):
                verify_model(bad, Lmax=2)


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
    classes = orbit_pairs(GroupKind.SL2, 5)
    reg = classes["regular"][0]
    cents = center_elements(GroupKind.SL2, reg, t)
    by_name = {name: img for name, _, img in cents}
    # e1 T0T1 + e2 T1T0 -> X1^2 . Id
    assert by_name["C1"].a[0][0] == NodalLaurentPoly.mono(t.field, 1, 2)
    assert by_name["C2"].a[0][0] == NodalLaurentPoly.mono(t.field, 2, 2)
    (sig_orb,) = classes["sign"]
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


def _spans_fed(monkeypatch, check):
    """Run check with the matrices whose `coeff_terms` each `models.Span`
    receives recorded: [(span, matrices)], one pair per Span built."""
    fed = []
    coeff_terms = Mat2.coeff_terms

    class Recording(Span):
        def __init__(self, ctx):
            super().__init__(ctx)
            fed.append((self, []))

    def recorded(m):
        fed[-1][1].append(m)
        return coeff_terms(m)

    monkeypatch.setattr(models, "Span", Recording)
    monkeypatch.setattr(Mat2, "coeff_terms", recorded)
    assert check()
    monkeypatch.undo()
    return fed


def _window_rank(ctx, mats, xdeg, zlo, zhi):
    return len(rref(ctx, [dense_coeff_vector(m, xdeg, zlo, zhi) for m in mats])[1])


@pytest.mark.parametrize("q", [3, 5, 7])
def test_independence_terms_match_the_dense_window(q, monkeypatch):
    """The span of the images' term maps has the rank of their dense vectors
    on the window the check once truncated to: X-degree Lmax + 2 and the
    Z-powers the entries reach (a zero entry counting as Z^0)."""
    t, Lmax = tctx(q), 6
    for kind in GroupKind:
        for mm in all_models(t, kind):
            [(span, mats)] = _spans_fed(
                monkeypatch, lambda: models._independence_check(mm.shape, Lmax)
            )
            zs = [z for m in mats for row in m.a for e in row for z in ([y for y, _ in e.terms] or [0])]
            assert span.dim == _window_rank(t.field, mats, Lmax + 2, min(zs), max(zs)) == len(mats)


@pytest.mark.parametrize("D", [0, 1, 4])
def test_freeness_terms_match_the_dense_window(D, monkeypatch):
    """Per X-degree d <= D, the span of the term maps has the rank of the
    dense vectors of X-degree <= D at Z^0."""
    t = tctx(5)
    fed = _spans_fed(monkeypatch, lambda: freeness_check(t, D))
    assert len(fed) == D + 1
    for span, mats in fed:
        assert span.dim == _window_rank(t.field, mats, D, 0, 0)


def test_tilde_z_components():
    t = tctx(5)
    tz = build_tilde_z(t)
    rings = [ring for ring, _ in tz.components]
    assert rings == ["k[X]", "A", "A"]
    # every non-trivial component's lifted orbit is a regular GL2 orbit
    for ring, orb in tz.components[1:]:
        assert orbit_class(GroupKind.GL2, 5, orb[0]) == "regular"


def test_os_resolution_check_q3():
    t = tctx(3)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 3), t)
    census = enumerate_supersingular(t, GroupKind.GL2)
    assert mm.pair in census.pairs
    (rep,) = os_resolution_check(mm, census.lambdas[:1], D=4)
    assert rep["pass"]
    assert rep["dims"]["boundary_image"] == rep["dims"]["ker_counit"]


def test_os_resolution_small_D_raises():
    from heckelab.errors import TruncationTooSmall

    t = tctx(3)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 3), t)
    with pytest.raises(TruncationTooSmall):
        os_resolution_check(mm, [1], D=1)


def test_os_resolution_rejects_zero_lambda_and_other_models():
    t = tctx(5)
    kind = GroupKind.GL2
    orb = reg_orbit(kind, 5)
    with pytest.raises(KindMismatch):
        os_resolution_check(build_model(kind, orb, t), [1, 0], D=4)
    for mm in (build_model(kind, orb, t, affine=True), build_model(kind, nonreg_orbit(kind, 5), t)):
        with pytest.raises(WrongRegularity):
            os_resolution_check(mm, [1], D=4)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_os_resolution_reports_pinned(q):
    """Every lambda and D in 2..6: the complex is exact with T0 = 4D and
    T1 = boundary image = ker counit = 4D - 2."""
    t = tctx(q)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, q), t)
    lams = [t.value_i(e) for e in range(q - 1)]
    for D in range(2, 7):
        assert os_resolution_check(mm, lams, D) == len(lams) * [
            {
                "D": D,
                "dim_ambient": 16 * D + 8,
                "relations_homogeneous": True,
                "boundary_descends": True,
                "counit_kills_relations": True,
                "counit_after_boundary_zero": True,
                "counit_surjective": True,
                "boundary_injective": True,
                "exact_middle": True,
                "dims": {
                    "T1": 4 * D - 2,
                    "boundary_image": 4 * D - 2,
                    "T0": 4 * D,
                    "ker_counit": 4 * D - 2,
                },
                "pass": True,
            }
        ]


def test_os_resolution_same_for_every_regular_gl2_model():
    t = tctx(5)
    models = [mm for mm in all_models(t, GroupKind.GL2) if mm.variant == GL2_REG]
    assert len(models) == 6
    lams = [t.value_i(e) for e in range(4)]
    reports = [os_resolution_check(mm, lams, D=4) for mm in models]
    assert all(rep == reports[0] for rep in reports)
    assert [rep["pass"] for rep in reports[0]] == [True] * 4


@pytest.mark.parametrize("q", [3, 5, 7])
def test_regular_gl2_models_share_their_images(q):
    """The images that the Ollivier-Schneider check reads do not depend on
    the block."""
    t = tctx(q)
    kind = GroupKind.GL2
    images = [build_model(kind, o, t).images for o in orbit_pairs(kind, q)["regular"]]
    assert len(images) == (q - 1) * (q - 2) // 2
    assert all(im == images[0] for im in images)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_os_resolution_fails_without_the_orientation_twist(q, monkeypatch):
    """T_omega acting on M by +W0 in the chamber relations, not by -W0 (odd q
    only: in characteristic 2 the twist is the identity)."""
    import heckelab.models as models

    t = tctx(q)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, q), t)
    monkeypatch.setattr(models, "mat_scal", lambda ctx, c, m: m)
    for rep in os_resolution_check(mm, [t.value_i(e) for e in range(q - 1)], D=4):
        assert not rep["pass"]


def test_os_resolution_fails_on_a_negated_tw_inv():
    t = tctx(5)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 5), t)
    images = {**mm.images, "tw_inv": mm.images["tw_inv"].scal(t.field.neg_i(1))}
    bad = with_images(mm, images)
    for rep in os_resolution_check(bad, [t.value_i(e) for e in range(4)], D=4):
        assert not rep["boundary_descends"] and not rep["pass"]


def test_os_resolution_fails_with_e1_for_ts0():
    t = tctx(5)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 5), t)
    bad = with_images(mm, {**mm.images, "ts0": mm.images["e1"]})
    for rep in os_resolution_check(bad, [t.value_i(e) for e in range(4)], D=4):
        assert not rep["counit_kills_relations"] and not rep["exact_middle"]
        assert not rep["pass"]


@pytest.mark.parametrize("corrupt", ["negated tw_inv", "e1 for ts0"])
def test_os_resolution_fails_after_a_good_model_in_the_same_context(corrupt):
    """The lambda-free part is built per call from the model's images: a
    model with corrupted images checked after a good one of the same orbit,
    at the same D, reads its own images."""
    t = tctx(5)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 5), t)
    lams = [t.value_i(e) for e in range(4)]
    assert all(rep["pass"] for rep in os_resolution_check(mm, lams, D=4))
    if corrupt == "negated tw_inv":
        images = {**mm.images, "tw_inv": mm.images["tw_inv"].scal(t.field.neg_i(1))}
    else:
        images = {**mm.images, "ts0": mm.images["e1"]}
    bad = with_images(mm, images)
    assert not any(rep["pass"] for rep in os_resolution_check(bad, lams, D=4))
    # and the good model still passes afterwards
    assert all(rep["pass"] for rep in os_resolution_check(mm, lams, D=4))


def test_the_lambda_free_products_are_built_once_per_model_and_D(monkeypatch):
    """`heckelab --q 7 --suite models` runs the check at six lambda on one
    model and builds the products once; each further call builds them once
    for its D, whatever the number of lambda."""
    import heckelab.models as models
    from heckelab.cli import RunConfig, run

    built = []
    trunc = models._Trunc

    def counting(mm, D):
        built.append(D)
        return trunc(mm, D)

    monkeypatch.setattr(models, "_Trunc", counting)
    report, _ = run(RunConfig(q=7, suites=("models",), kinds=(GroupKind.GL2,)))
    assert report["pass"] and report["suites"][0]["details"]["os_resolution"]["runs"] == 90
    assert built == [6]
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 7), tctx(7))
    for D in (2, 3):
        os_resolution_check(mm, [tctx(7).value_i(e) for e in range(6)], D)
    assert built == [6, 2, 3]


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
            img = e1.mul(mm.shape.word_image(a, w))
            in_corner = img.a[0][1].is_zero() and img.a[1][0].is_zero() and img.a[1][1].is_zero()
            off_corner = img.a[0][0].is_zero() and img.a[1][0].is_zero() and img.a[1][1].is_zero()
            if (len(w) - a) % 2 == 0:
                assert in_corner
            else:
                assert off_corner



# -- the checks shared by variant and by kind -------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_shared_checks_agree_with_the_per_model_oracle(q):
    """On every model of every kind, the shared path (the product-shape
    certificate per table, the per-variant checks and the character
    certificate per kind) and the per-model certificate it replaced, which
    evaluates every row of the generator table on the model and walks its
    full diagonal, pass with the same counts, and both fail a model whose
    T_s1 image is moved by the identity."""
    t = tctx(q)
    Lmax = 6
    for kind in GroupKind:
        for mm in all_models(t, kind):
            rep = verify_model(mm, Lmax)
            shared = rep["variant_checks"]
            rows = rep["product_shapes"]["generator_products"] + shared["generator_products"]
            assert verify_model_per_model(mm, Lmax) == {
                "generator_products": rows,
                "power_identities": shared["power_identities"],
            }, (kind, mm.variant, mm.pair)
            ts1 = mm.images["ts1"].add(Mat2.identity(t.field))
            bad = with_images(mm, {**mm.images, "ts1": ts1})
            for check in (verify_model, verify_model_per_model):
                with pytest.raises(VerificationFailure):
                    check(bad, Lmax)


def _variants(models_):
    out = {}
    for mm in models_:
        out.setdefault(mm.variant, []).append(mm)
    return out


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_build_model_gives_every_orbit_of_a_variant_the_same_images(q):
    """The generator images depend on (kind, variant) alone: the models of a
    variant from one `all_models` call hold one shared VariantModel, and a
    lone build of the same orbit holds equal images of its own."""
    t = tctx(q)
    for kind in GroupKind:
        for variant, mms in _variants(all_models(t, kind)).items():
            first = mms[0]
            for mm in mms:
                assert mm.shape is first.shape, (kind, variant, mm.pair)
                again = build_model(kind, mm.pair, t, affine=variant == models.AFF_REG)
                assert again.shape is not mm.shape and again.images == mm.images


@pytest.mark.parametrize("q", [3, 5, 7])
def test_all_models_shares_an_orbit_torus_image_and_nothing_across_calls(q):
    """A regular GL2 orbit's GL2_REG and AFF_REG models come one right after
    the other and read one torus image, the character pair of their shared
    orbit pair; two `all_models` calls share no VariantModel."""
    t = tctx(q)
    gl2 = list(all_models(t, GroupKind.GL2))
    regular = [i for i, mm in enumerate(gl2) if mm.variant == GL2_REG]
    assert len(regular) == (q - 1) * (q - 2) // 2
    assert [mm.variant for mm in gl2].count(models.AFF_REG) == len(regular)
    for i in regular:
        reg, aff = gl2[i], gl2[i + 1]
        assert aff.variant == models.AFF_REG and aff.pair == reg.pair
        assert aff.pair is reg.pair and aff.characters == reg.characters == reg.pair
    for kind in GroupKind:
        one, two = list(all_models(t, kind)), list(all_models(t, kind))
        assert not {id(mm.shape) for mm in one} & {id(mm.shape) for mm in two}


def _map_x(m, branch, c):
    """m under the ring map of B that sends X_branch to c X_branch (c a
    field index; c = 0 kills the branch) and fixes the other branch and Z."""
    ctx = m.ctx

    def entry(p):
        return NodalLaurentPoly(
            ctx,
            {
                (z, k): ctx.mul[v][ctx.pow_i(c, abs(k))] if (k > 0 if branch == 1 else k < 0) else v
                for (z, k), v in p.terms.items()
            },
        )

    return Mat2(ctx, [[entry(p) for p in row] for row in m.a])


def _corrupt_shared(t, kind, variant, corrupt):
    """Every model of one `all_models` call, with the variant's shared images
    corrupted in place before anything reads them: (the models of the
    variant, the others)."""
    mms = list(all_models(t, kind))
    broken = [mm for mm in mms if mm.variant == variant]
    corrupt(broken[0].shape.images, t.field)
    return broken, [mm for mm in mms if mm.variant != variant]


SHARED_PHASE_MUTATIONS = {
    # tw^-1 negated: tw tw^-1 = -1 and tw ts0 tw^-1 = -ts1, torus-free
    "relations": (
        models.GL2_REG,
        lambda im, ctx: im.update(tw_inv=im["tw_inv"].scal(ctx.neg_i(1))),
        "GL2_REG: relation(s) failed: ['tw invertible', 'omega conj s0'",
    ),
    # X2 -> 0 is a ring map, so relations and products hold, and e2 T_s0 maps to 0
    "independence": (
        models.AFF_REG,
        lambda im, ctx: im.update({n: _map_x(im[n], 2, 0) for n in ("ts0", "ts1")}),
        "AFF_REG: basis images are linearly dependent",
    ),
    # X1 -> 2 X1 is an automorphism: only the displayed closed forms see it
    "power_identities": (
        models.AFF_REG,
        lambda im, ctx: im.update({n: _map_x(im[n], 1, ctx.scalar_i(2)) for n in ("ts0", "ts1")}),
        "affine power identity (T0T1)^m fails at m=1",
    ),
}


@pytest.mark.parametrize("phase", sorted(SHARED_PHASE_MUTATIONS))
def test_a_failing_shared_phase_fails_every_model_of_the_variant(phase, monkeypatch):
    """Each per-variant phase fails on its own mutation of the shared images,
    and the failure reaches every model of the variant, while the other
    variants of the kind still pass: model by model, and in the models
    suite, which checks the variant once."""
    variant, corrupt, message = SHARED_PHASE_MUTATIONS[phase]
    broken, others = _corrupt_shared(tctx(5), GroupKind.GL2, variant, corrupt)
    assert len(broken) == 6 and all(mm.shape is broken[0].shape for mm in broken)
    for mm in broken:
        with pytest.raises(VerificationFailure, match=re.escape(message)):
            verify_model(mm)
    assert others and all(verify_model(mm)["pass"] for mm in others)
    images = models._variant_images

    def corrupted(t, name):
        out = images(t, name)
        if name == variant:
            corrupt(out, t.field)
        return out

    monkeypatch.setattr(models, "_variant_images", corrupted)
    details = verify_models(tctx(5), GroupKind.GL2)
    assert _suite_failures(details) == [(mm.variant, report_orbit(mm)) for mm in broken]
    assert all(message in f["counterexample"] for f in details["failures"])
    assert details["variants_verified"] == 2


def _quadratic_coefficient_off(monkeypatch):
    """The Hecke side's quadratic relation with mu_alpha + 1 for mu_alpha."""
    monkeypatch.setattr(hecke, "mu_alpha_order", lambda kind: mu_alpha_order(kind) + 1)
    return tuple(GroupKind)


def _torus_row_moved(monkeypatch, exps):
    """T_s0 T_t10 of GL2 at q = 5 landing on T_{s0 t} with t of exponents
    `exps`: a torus-generator row of the shared table on the wrong index."""
    kind, q = GroupKind.GL2, 5
    x, g = weyl(kind, q, word=(0,)), weyl(kind, q, torus_exps=(1, 0))
    moved = {weyl(kind, q, word=(0,), torus_exps=exps): 1}
    _corrupt_product(monkeypatch, kind, x, g, lambda prod: HeckeElt(prod.tctx, kind, moved))
    return (kind,)


PRODUCT_MUTATIONS = {
    "quadratic coefficient off": _quadratic_coefficient_off,
    "torus row on the wrong index": lambda mp: _torus_row_moved(mp, (0, 1)),
    "torus row without its torus part": lambda mp: _torus_row_moved(mp, (0, 0)),
}


@pytest.mark.parametrize("mutation", sorted(PRODUCT_MUTATIONS))
def test_a_wrong_product_fails_every_model_of_its_table(mutation, monkeypatch, capsys):
    """A Hecke product of the generator table off its shape fails the
    product-shape certificate on every model that reads the table, each
    reported with its orbit: the models suite says `pass: false`, lists
    every model of the kind under `failures`, keeps the rest of the report
    and exits 1.  No model is read to find it."""
    kinds = PRODUCT_MUTATIONS[mutation](monkeypatch)
    t = tctx(5)
    for kind in kinds:
        for mm in all_models(t, kind):
            with pytest.raises(VerificationFailure, match="product T_x T_g is not of its shape"):
                verify_model(mm)
    assert main(["--q", "5", "--suite", "models", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    (suite,) = report["suites"]
    assert not report["pass"] and not suite["pass"]
    for kind in GroupKind:
        det = suite["details"][str(kind)]
        if kind not in kinds:
            assert det["all_pass"] and "failures" not in det
            continue
        assert not det["all_pass"] and len(det["failures"]) == det["models"]
        assert det["variants_verified"] == det["generator_products"] == 0
        for failure, mm in zip(det["failures"], all_models(t, kind)):
            assert failure["variant"] == mm.variant and failure["orbit"] == report_orbit(mm)
            assert "product T_x T_g is not of its shape" in failure["counterexample"]
    assert "os_resolution" in suite["details"]


def test_a_wrong_quadratic_coefficient_is_invisible_to_a_regular_model(monkeypatch):
    """On a regular block the torus image sums to 0 over the coroot, so
    T_x c_s maps to 0 whatever mu_alpha is: every row of the table still
    holds on the model, and the per-model oracle passes.  Only the
    product-shape certificate, which reads no model, sees the fault."""
    _quadratic_coefficient_off(monkeypatch)
    t = tctx(5)
    for kind in (GroupKind.GL2, GroupKind.SL2):
        mm = build_model(kind, reg_orbit(kind, 5), t)
        verify_model_per_model(mm, 6)
        with pytest.raises(VerificationFailure, match="product T_x T_g is not of its shape"):
            verify_model(mm)


@pytest.mark.parametrize(
    "kind, variant",
    [
        (GroupKind.GL2, models.GL2_REG),
        (GroupKind.PGL2, models.PGL2_REG),
        (GroupKind.SL2, models.SL2_SIGMA),
    ],
)
def test_images_on_the_wrong_characters_fail_the_quadratic_relation(kind, variant):
    """The images of a variant on characters whose coroot sum does not
    match them (a regular variant on a non-regular orbit, the SL2 sign
    model on the trivial character): only the quadratic relations see it,
    and they are what the quadratic rows of the table rest on per model."""
    t = tctx(5)
    shape = models.VariantModel(kind, variant, t, models._variant_images(t, variant))
    sums, _ = _characters_certified(t, kind)
    wrong = [(m[0], m[-1]) for m, regular in orbit_partition(kind, 5) if not regular]
    if variant == models.SL2_SIGMA:
        wrong = [pair for pair in wrong if orbit_class(kind, 5, pair[0]) == "trivial"]
    assert wrong
    for orbit in wrong:
        mm = models.ModelMap(shape, orbit)
        assert _relation_checks(mm, sums) == ["ts0 quadratic", "ts1 quadratic"]
        for check in (verify_model, verify_model_per_model):
            with pytest.raises(VerificationFailure, match="quadratic"):
                check(mm, 6)


def test_the_models_suite_evaluates_no_table_row_on_a_model(monkeypatch):
    """`heckelab --q 5 --suite models` maps no Hecke element through a model,
    and builds and certifies one product table per (kind, has omega)."""
    calls, tables = [], []
    image_of_block = models.ModelMap.image_of_block
    generator_keys = models._generator_keys

    def counted_image(mm, x):
        calls.append(mm)
        return image_of_block(mm, x)

    def counted_keys(shape):
        tables.append((shape.kind, shape.has_omega()))
        return generator_keys(shape)

    monkeypatch.setattr(models.ModelMap, "image_of_block", counted_image)
    monkeypatch.setattr(models, "_generator_keys", counted_keys)
    report, _ = run(RunConfig(q=5, suites=("models",)))
    assert report["pass"] and calls == []
    gl2, sl2, pgl2 = GroupKind.GL2, GroupKind.SL2, GroupKind.PGL2
    assert len(tables) == 4
    assert set(tables) == {(gl2, True), (gl2, False), (sl2, False), (pgl2, True)}


def test_os_resolution_fails_on_a_non_homogeneous_relation_product():
    """T_s0 with X2 Z^-1 + X2 in its lower corner: the chamber-side products
    x T_s0 e1 mix Z-powers, so the relation spans may depend on lambda and
    the certificate fails at every lambda."""
    t = tctx(5)
    mm = build_model(GroupKind.GL2, reg_orbit(GroupKind.GL2, 5), t)
    ts0 = mm.images["ts0"]
    z0 = NodalLaurentPoly(t.field)
    extra = Mat2(t.field, [[z0, z0], [NodalLaurentPoly.mono(t.field, 2, 1), z0]])
    bad = with_images(mm, {**mm.images, "ts0": ts0.add(extra)})
    for rep in os_resolution_check(bad, [t.value_i(e) for e in range(4)], D=4):
        assert not rep["relations_homogeneous"] and not rep["pass"]
    assert all(rep["relations_homogeneous"] for rep in os_resolution_check(mm, [1, 2], D=4))


# -- the models suite: each variant once, the class certificate for the rest --


def _per_model_failures(models_):
    """(variant, orbit) of each model that the per-model oracle fails."""
    out = []
    for mm in models_:
        try:
            verify_model_per_model(mm, 6)
        except VerificationFailure:
            out.append((mm.variant, report_orbit(mm)))
    return out


def _suite_failures(details):
    return [(f["variant"], f["orbit"]) for f in details.get("failures", [])]


def test_the_models_suite_checks_each_variant_once(monkeypatch):
    """`heckelab --q 5 --suite models` runs the relations once per variant
    (7), the character certificate once per kind (3), the generator table
    once per kind and presence of omega (4), builds one model per variant
    and one for the OS check, and never partitions the characters."""
    import heckelab.cli as cli
    import heckelab.torus as torus

    calls = Counter()

    def counted(name):
        real = getattr(models, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(models, name, call)

    for name in ("_relation_checks", "_characters_certified", "_generator_products", "ModelMap"):
        counted(name)

    def refused(kind, q):
        raise AssertionError("orbit_partition was called")

    for module in (models, cli, torus):
        monkeypatch.setattr(module, "orbit_partition", refused, raising=False)
    report, _ = run(RunConfig(q=5, suites=("models",)))
    assert report["pass"]
    assert calls == {
        "_relation_checks": 7,
        "_characters_certified": 3,
        "_generator_products": 4,
        "ModelMap": 7 + 1,
    }


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_the_class_lists_are_the_orbits_with_their_variants(q):
    """The closed-form class lists, each with its class's variants, give the
    models of `orbit_partition` and `_variant_of`, one per orbit and
    variant, with the same characters; the class certificate stands for all
    of them and the suite counts them."""
    t = tctx(q)
    for kind in GroupKind:
        if kind is GroupKind.PGL2 and q % 2 == 0:
            continue
        classes = orbit_pairs(kind, q)
        listed = sorted(
            ((x, i), v, (x, y))
            for c, pairs in classes.items()
            for x, y in pairs
            for i, v in enumerate(models._CLASS_VARIANTS[kind][c])
        )
        oracle = list(all_models(t, kind))
        assert [(v, pair) for _, v, pair in listed] == [
            (mm.variant, mm.pair) for mm in oracle
        ]
        listed = classes, orbit_list_faults(kind, q, classes)
        off, walked = _class_facts(kind, q, listed, _characters_certified(t, kind)[0])
        with_models = [ps for c, ps in classes.items() if models._CLASS_VARIANTS[kind][c]]
        assert all(not bad for bad in off.values()) and walked == sum(map(len, with_models))
        assert verify_models(t, kind)["models"] == len(oracle)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_the_suite_agrees_with_the_per_model_oracle(q, monkeypatch):
    """On every model of every kind the suite's verdict is the per-model
    oracle's: both pass the models as built, and both fail exactly the
    models of GL2_NONREG (SL2_SIGMA for SL2) once that variant's T_s1 image
    is moved by the identity, each with the counterexample that
    `verify_model` gives it on its own."""
    t = tctx(q)
    kinds = [k for k in GroupKind if not (k is GroupKind.PGL2 and q % 2 == 0)]
    for kind in kinds:
        details = verify_models(t, kind)
        assert details["all_pass"] and _per_model_failures(all_models(t, kind)) == []
    images = models._variant_images

    def moved(tctx_, variant):
        out = images(tctx_, variant)
        if variant in (models.GL2_NONREG, models.SL2_SIGMA):
            out["ts1"] = out["ts1"].add(Mat2.identity(tctx_.field))
        return out

    monkeypatch.setattr(models, "_variant_images", moved)
    for kind in kinds:
        details = verify_models(t, kind)
        oracle = list(all_models(t, kind))
        failing = _per_model_failures(oracle)
        assert _suite_failures(details) == failing
        assert bool(failing) is (kind is not GroupKind.PGL2)
        lone = {(mm.variant, str(report_orbit(mm))): mm for mm in oracle}
        for failure in details.get("failures", []):
            mm = lone[failure["variant"], str(failure["orbit"])]
            assert failure["counterexample"] == _lone_counterexample(mm)


def _listed(edit):
    """The GL2 class lists at q = 5 after `edit`, with their list
    certificate: what a run passes to `verify_models`."""
    mutated = edit(orbit_pairs(GroupKind.GL2, 5))
    return mutated, orbit_list_faults(GroupKind.GL2, 5, mutated)


def _lone_counterexample(mm):
    with pytest.raises(VerificationFailure) as exc:
        verify_model(mm)
    return str(exc.value)


def test_an_orbit_whose_second_member_is_not_its_twist_fails_the_class_certificate():
    """The third regular GL2 orbit at q = 5 listed with the fourth's twist as
    its second member: the class certificate does not let the variants'
    checks stand for it, and the suite names its GL2_REG and AFF_REG models,
    as the per-model oracle does, each with `verify_model`'s counterexample;
    the variants still verify on their first orbits."""
    t, kind = tctx(5), GroupKind.GL2

    def edit(classes):
        regular = list(classes["regular"])
        (x, _), (_, foreign) = regular[2:4]
        regular[2] = (x, foreign)
        return {**classes, "regular": tuple(regular)}

    listed = _listed(edit)
    mutated = listed[0]
    x, foreign = mutated["regular"][2]
    off, _ = _class_facts(kind, 5, listed, _characters_certified(t, kind)[0])
    assert off == {"regular": {2}, "trivial": set()}
    orbit = orbit_pair(kind, 5, x)
    oracle = [
        with_characters(mm, (x, foreign)) if mm.pair == orbit else mm for mm in all_models(t, kind)
    ]
    details = verify_models(t, kind, listed=listed)
    assert _suite_failures(details) == _per_model_failures(oracle)
    reported = orbit_obj(kind, 5, orbit)
    assert _suite_failures(details) == [("GL2_REG", reported), ("AFF_REG", reported)]
    bad = [mm for mm in oracle if mm.pair == orbit]
    counterexamples = [f["counterexample"] for f in details["failures"]]
    assert counterexamples == [_lone_counterexample(mm) for mm in bad]
    assert details["variants_verified"] == 3 and details["models"] == 16


def _twists_exchanged(classes):
    """The GL2 lists with the second members of the first two regular pairs
    exchanged: two pairs that are not orbits, on the characters of two."""
    regular = list(classes["regular"])
    (x, y), (u, v) = regular[:2]
    regular[:2] = [(x, v), (u, y)]
    return {**classes, "regular": tuple(regular)}


def test_exchanged_twists_fail_every_reader_of_the_list_certificate(monkeypatch):
    """The GL2 list at q = 5 with the second members of two regular pairs
    exchanged, built once by the run, fails the shared list certificate in
    each of its readers: the blocks suite on `counts_match` and,
    independently, on its idempotent system (e_x + e_y of a non-orbit {x, y}
    is not central), as the pairwise products of the oracle do; the census
    certificate, and with it the OS check; and the models class certificate,
    whose suite names exactly the models that the per-model oracle fails on
    those pairs, with `verify_model`'s counterexamples."""
    import heckelab.cli as cli

    t, kind = tctx(5), GroupKind.GL2
    listed = _listed(_twists_exchanged)
    mutated, (bad, fault) = listed
    (x, foreign), (u, other) = mutated["regular"][:2]
    assert set(bad["regular"]) == {0, 1} and not bad["trivial"] and fault is None

    monkeypatch.setattr(cli, "orbit_pairs", lambda k, q: _twists_exchanged(orbit_pairs(k, q)))
    report, _ = run(RunConfig(q=5, kinds=(kind,), suites=("blocks", "models")))
    blocks, models_suite = (suite["details"] for suite in report["suites"])
    blocks = blocks["GL2"]
    assert not report["pass"] and blocks["counts_match"] is False
    assert blocks["idempotent_system"] is False
    orbits = [pair for pairs in mutated.values() for pair in pairs]
    assert pairwise_idempotent_system(t, kind, orbits) is False

    census = hecke.SupersingularCensus(t, kind, mutated["regular"], (1,))
    with pytest.raises(RelationViolation, match=r"is not \(\(0, 1\), \(1, 0\)\), the orbit pair of"):
        census.check()
    assert models_suite["os_resolution"]["pass"] is False

    given = {orbit_pair(kind, 5, x): (x, foreign), orbit_pair(kind, 5, u): (u, other)}
    oracle = [
        with_characters(mm, given[mm.pair]) if mm.pair in given else mm
        for mm in all_models(t, kind)
    ]
    details = models_suite["GL2"]
    assert details == verify_models(t, kind, listed=listed)
    failing = _per_model_failures(oracle)
    assert _suite_failures(details) == failing and len(failing) == 4
    bad_models = [mm for mm in oracle if mm.pair in given]
    assert [f["counterexample"] for f in details["failures"]] == [
        _lone_counterexample(mm) for mm in bad_models
    ]
    assert details["variants_verified"] == 3 and details["models"] == 16


def test_an_orbit_given_the_variant_of_another_class_fails_the_class_certificate():
    """The second regular GL2 orbit at q = 5 listed among the orbits trivial
    on the coroot image, so that it gets the GL2_NONREG model of that class:
    the class certificate does not let the variant's check stand for it, and
    the suite names that model, as the per-model oracle does."""
    t, kind = tctx(5), GroupKind.GL2

    def edit(classes):
        regular = list(classes["regular"])
        moved = regular.pop(1)
        return {"regular": tuple(regular), "trivial": (*classes["trivial"], moved)}

    listed = _listed(edit)
    mutated = listed[0]
    off, _ = _class_facts(kind, 5, listed, _characters_certified(t, kind)[0])
    assert off == {"regular": set(), "trivial": {4}}
    orbit = mutated["trivial"][4]
    oracle = list(all_models(t, kind))
    nonreg = next(mm for mm in oracle if mm.variant == models.GL2_NONREG).shape
    oracle = [mm for mm in oracle if mm.pair != orbit or mm.variant == GL2_REG]
    oracle = [models.ModelMap(nonreg, orbit) if mm.pair == orbit else mm for mm in oracle]
    details = verify_models(t, kind, listed=listed)
    assert _suite_failures(details) == _per_model_failures(oracle)
    assert _suite_failures(details) == [("GL2_NONREG", orbit_obj(kind, 5, orbit))]
    (bad,) = (mm for mm in oracle if mm.pair == orbit)
    assert details["failures"][0]["counterexample"] == _lone_counterexample(bad)
    assert details["variants_verified"] == 3


@pytest.mark.parametrize(
    "edit",
    [
        lambda pairs: pairs[:-1],
        lambda pairs: (*pairs, pairs[0]),
        lambda pairs: (pairs[0], (pairs[0][1], pairs[0][0]), *pairs[2:]),
    ],
    ids=["dropped_orbit", "repeated_orbit", "orbit_listed_from_its_twist"],
)
def test_lists_that_miss_an_orbit_fail_every_listed_model(edit):
    """Regular GL2 lists at q = 5 that do not hold each regular orbit once:
    one dropped, one repeated, or one listed twice, once from each member.
    The class certificate fails, and with it every listed model of GL2."""
    t, kind = tctx(5), GroupKind.GL2
    listed = _listed(lambda classes: {**classes, "regular": edit(classes["regular"])})
    mutated = listed[0]
    with pytest.raises(VerificationFailure, match="are not the orbits"):
        _class_facts(kind, 5, listed, _characters_certified(t, kind)[0])
    details = verify_models(t, kind, listed=listed)
    listed = 2 * len(mutated["regular"]) + len(mutated["trivial"])
    assert not details["all_pass"] and len(details["failures"]) == listed
    assert details["variants_verified"] == 0 and details["models"] == 16
    for failure in details["failures"]:
        assert failure["counterexample"].startswith(f"{failure['variant']}: the listed orbits")


def test_the_generator_table_builds_no_row_of_a_coroot_element(monkeypatch):
    """At q = 49 every torus product that the GL2 generator table computes
    has the identity as its left factor: each of its products has one torus
    part on one side, and `hecke_mul` multiplies the terms of the shorter
    side into the longer.  The quadratic rows read the 48 coroot elements,
    and none of them is multiplied into the 2304 elements of T."""
    calls = []
    real = hecke.torus_mul

    def recorded(kind, q, s, ts):
        ts = list(ts)
        calls.append((s, len(ts)))
        return real(kind, q, s, ts)

    monkeypatch.setattr(hecke, "torus_mul", recorded)
    t = TorusCtx(field_create(7, 2), 49)
    shape = models.VariantModel(GroupKind.GL2, GL2_REG, t, models._variant_images(t, GL2_REG))
    _generator_products(shape, 6)
    assert calls and {s for s, _ in calls} == {0}
    assert max(n for _, n in calls) == len(coroot_image(GroupKind.GL2, 49)) == 48
