from __future__ import annotations

import random

import pytest

from heckelab import dga
from heckelab.cli import RunConfig, run
from heckelab.errors import WindowTooSmall
from heckelab.dga import (
    WindowHomElt,
    constant_seq,
    degree0_check,
    delta_seq,
    dga_cohomology,
    dga_d,
    dga_mul,
    identity_elt,
    iota_elt,
    leibniz_defect,
    zero_elt,
)
from heckelab.gf import field_create
from heckelab.rings import LaurentPoly
from heckelab.torus import TorusCtx

from .oracles import dga_d_termwise

F5 = field_create(5)
T5 = TorusCtx(F5, 5)


def random_elt(ctx, degree, lo, hi, rng, zrange=2):
    out = zero_elt(ctx, degree, lo, hi)
    for i in range(2):
        for j in range(2):
            for l in range(lo, hi + 1):
                coeffs = {
                    z: rng.randrange(ctx.q)
                    for z in range(-zrange, zrange + 1)
                    if rng.random() < 0.4
                }
                out.blocks[i][j].set(l, LaurentPoly(ctx, coeffs))
    return out


def test_d_squared_zero_random():
    rng = random.Random(1)
    for deg in (-1, 0, 1, 2):
        for _ in range(10):
            x = random_elt(F5, deg, -4, 4, rng)
            assert dga_d(dga_d(x)).is_zero()


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 6)])
def test_dga_d_matches_the_termwise_formula(p, m):
    ctx = field_create(p, m)
    rng = random.Random(p * 10 + m)
    for deg in range(-2, 3):
        for _ in range(6):
            x = random_elt(ctx, deg, -4, 4, rng)
            assert dga_d(x) == dga_d_termwise(x), deg
    # a cancelling level: x_l and x_{l+1} chosen so that (d x)_l = 0
    x = zero_elt(ctx, 0, 0, 1)
    x.blocks[0][0] = constant_seq(ctx, 0, 1, value=ctx.neg_i(1), zexp=3)
    assert dga_d(x) == dga_d_termwise(x) and dga_d(x).is_zero()


def test_d_of_constant_even_is_zero():
    x = zero_elt(F5, 0, -3, 3)
    x.blocks[0][0] = constant_seq(F5, -3, 3)
    assert dga_d(x).is_zero()


def test_d_of_delta_two_point_support():
    n = 0
    x = zero_elt(F5, n, -3, 3)
    x.blocks[0][0] = delta_seq(F5, -3, 3, at=0)
    dx = dga_d(x)
    blk = dx.blocks[0][0]
    # (d x)_l = x_l - (-1)^n x_{l+1}: support {-1, 0} with signs (-(-1)^n, 1)
    assert blk.get(0) == LaurentPoly.scalar(F5, 1)
    assert blk.get(-1) == LaurentPoly.scalar(F5, F5.neg_i(1))
    for l in (-3, -2, 1, 2):
        assert blk.get(l).is_zero()


def test_window_too_small():
    x = zero_elt(F5, 0, 0, 0)
    with pytest.raises(WindowTooSmall):
        dga_d(x)


def test_identity_is_unit():
    rng = random.Random(2)
    e = identity_elt(F5, -4, 4)
    for deg in (0, 1):
        x = random_elt(F5, deg, -4, 4, rng)
        left = dga_mul(e, x)
        right = dga_mul(x, e)
        assert left.sub(x.restrict(left.lo, left.hi)).is_zero()
        assert right.sub(x.restrict(right.lo, right.hi)).is_zero()


def test_tau_times_tau_is_zero():
    x = zero_elt(F5, 1, -3, 3)
    x.blocks[0][0] = constant_seq(F5, -3, 3, tau=True)
    y = zero_elt(F5, 1, -3, 3)
    y.blocks[0][0] = constant_seq(F5, -3, 3, tau=True)
    assert dga_mul(x, y).is_zero()


def test_leibniz_random():
    rng = random.Random(3)
    for _ in range(20):
        dx = rng.choice([0, 1, 2])
        dy = rng.choice([0, 1])
        x = random_elt(F5, dx, -5, 5, rng)
        y = random_elt(F5, dy, -5, 5, rng)
        assert leibniz_defect(x, y).is_zero()


def test_iota_products():
    # iota_m . iota_n = iota_{m+n} on the nose for the constant representatives
    for m, n, slot_m, slot_n in [
        (2, 2, (0, 0), (0, 0)),
        (1, 1, (0, 1), (1, 0)),
        (2, 1, (1, 1), (1, 0)),
        (-1, 1, (0, 1), (1, 0)),
    ]:
        x = iota_elt(F5, m, -6, 6, slot_m)
        y = iota_elt(F5, n, -6, 6, slot_n)
        prod = dga_mul(x, y)
        i, j = slot_m[0], slot_n[1]
        blk = prod.blocks[i][j]
        for l in range(prod.lo, prod.hi + 1):
            assert blk.get(l) == LaurentPoly.scalar(F5, 1)
        assert dga_d(prod).is_zero()


def test_cohomology_patterns():
    for n in (-2, -1, 0, 1, 2, 3, 4):
        rep = dga_cohomology(T5, n, L=abs(n) + 2)
        r = rep["block_ranks"]
        if n % 2 == 0:
            assert r[0][0] == 1 and r[1][1] == 1
            assert r[0][1] == 0 and r[1][0] == 0
            assert sorted(rep["representative"]) == [(0, 0), (1, 1)]
        else:
            assert r[0][1] == 1 and r[1][0] == 1
            assert r[0][0] == 0 and r[1][1] == 0
            assert sorted(rep["representative"]) == [(0, 1), (1, 0)]


def test_cohomology_window_stability():
    for n in range(-4, 5):
        a = dga_cohomology(T5, n, L=abs(n) + 2)["block_ranks"]
        b = dga_cohomology(T5, n, L=abs(n) + 4)["block_ranks"]
        assert a == b


def _dga_suite_details():
    report, _ = run(RunConfig(q=5, suites=("dga",)))
    return report["suites"][0]["details"]


def test_dga_suite_fails_on_unsigned_summands(monkeypatch):
    # delta = diag(1, 1) tau is a valid differential too (d^2 = 0, Leibniz),
    # but the odd constant iota is no cycle for it
    monkeypatch.setattr(dga, "_EPS", (1, 1))
    assert not dga_cohomology(T5, 1, L=3)["representative"]
    assert _dga_suite_details()["cohomology_pattern"] is False


def test_dga_suite_fails_on_a_zero_differential(monkeypatch):
    monkeypatch.setattr(
        dga, "dga_d", lambda x: zero_elt(x.ctx, x.degree + 1, x.lo, x.hi - 1)
    )
    assert _dga_suite_details()["cohomology_pattern"] is False


def test_degree0_dictionary():
    for L in (1, 2, 4):
        rep = degree0_check(T5, L)
        assert rep["pass"], rep


def test_degree0_dictionary_fails_when_two_images_share_a_coordinate(monkeypatch):
    """T e1 written into block (0, 1), where T e2 lives: the dictionary images
    are no longer independent."""
    monkeypatch.setitem(dga.DICTIONARY_BLOCKS, "Te1", (0, 1))
    rep = degree0_check(T5, 1)
    assert rep["bijective_on_window"] is False and not rep["pass"]
    assert _dga_suite_details()["degree0_dictionary"] is False


def test_degree0_factor_images():
    # e1 image is the (0,0) projector at each index
    rep = degree0_check(T5, 1)
    assert rep["homomorphism"] and rep["local"]
