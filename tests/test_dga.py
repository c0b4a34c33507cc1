from __future__ import annotations

import inspect
import random
import textwrap

import pytest

from heckelab import dga
from heckelab.cli import RunConfig, run
from heckelab.errors import WindowMismatch, WindowTooSmall
from heckelab.dga import (
    CERTIFIED_DEGREES,
    WindowHomElt,
    basis_sum,
    degree0_check,
    derivation_check,
    dga_cohomology,
    dga_d,
    dga_mul,
    identity_elt,
    iota_elt,
    leibniz_defect,
)
from heckelab.gf import field_create
from heckelab.torus import TorusCtx

from .oracles import (
    add_blockwise,
    dga_d_termwise,
    dga_mul_blockwise,
    restrict_blockwise,
    scal_blockwise,
    tau_flag,
)

F5 = field_create(5)
T5 = TorusCtx(F5, 5)


def random_elt(ctx, degree, lo, hi, rng, zrange=2):
    """Each coefficient c Z^z, |z| <= zrange, of each level of each block is
    drawn with probability 0.4, uniformly from the field (zero included,
    which the constructor drops)."""
    terms = {
        (i, j, l, z): rng.randrange(ctx.q)
        for i in range(2)
        for j in range(2)
        for l in range(lo, hi + 1)
        for z in range(-zrange, zrange + 1)
        if rng.random() < 0.4
    }
    return WindowHomElt(ctx, degree, lo, hi, terms)


def _block(x, i, j):
    """The terms of block (i, j) of x."""
    return {key: c for key, c in x.terms.items() if key[:2] == (i, j)}


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
    x = WindowHomElt(ctx, 0, 0, 1, {(0, 0, l, 3): ctx.neg_i(1) for l in (0, 1)})
    assert dga_d(x) == dga_d_termwise(x) and dga_d(x).is_zero()


# F_4 and F_729 have m > 1, and in characteristic 2, -1 = 1 hides sign faults
@pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (3, 2), (3, 6)])
def test_kernels_match_the_blockwise_reference(p, m):
    """dga_d, dga_mul, add, sub, scal and restrict on random elements of
    degrees -3..3 agree with the block-by-level reference.  y's window
    [-1, 5] and x's window [-3, 3] shifted by -|y| overlap only in part, so
    dga_mul cuts both; the odd x odd pairs multiply tau-flagged diagonal
    blocks."""
    ctx = field_create(p, m)
    rng = random.Random(100 * p + m)
    for n in range(-3, 4):
        x, x2 = random_elt(ctx, n, -3, 3, rng), random_elt(ctx, n, -3, 3, rng)
        assert any(tau_flag(n, i, j) for i, j, _, _ in x.terms)
        c = rng.randrange(1, ctx.q)
        assert dga_d(x) == dga_d_termwise(x)
        assert x.add(x2) == add_blockwise(x, x2)
        assert x.sub(x2) == add_blockwise(x, scal_blockwise(x2, ctx.neg_i(1)))
        assert x.scal(c) == scal_blockwise(x, c) and x.scal(0).is_zero()
        assert x.restrict(-1, 2) == restrict_blockwise(x, -1, 2)
        for ny in range(-3, 4):
            y = random_elt(ctx, ny, -1, 5, rng)
            prod = dga_mul(x, y)
            assert (prod.lo, prod.hi) == (max(-1, -3 - ny), min(5, 3 - ny))
            assert prod == dga_mul_blockwise(x, y), (n, ny)


def test_a_term_outside_the_window_raises():
    assert WindowHomElt(F5, 0, -2, 2, {(0, 0, -2, 0): 1, (1, 0, 2, 5): 3}).terms
    for level in (-3, 3):
        with pytest.raises(WindowMismatch):
            WindowHomElt(F5, 0, -2, 2, {(1, 0, level, 0): 1})
    x = identity_elt(F5, -2, 2)
    with pytest.raises(WindowMismatch):
        x.add(identity_elt(F5, -2, 1))
    with pytest.raises(WindowMismatch):
        dga_mul(x, identity_elt(F5, 3, 4))


def test_d_of_constant_even_is_zero():
    x = WindowHomElt(F5, 0, -3, 3, {(0, 0, l, 0): 1 for l in range(-3, 4)})
    assert dga_d(x).is_zero()


def test_d_of_delta_two_point_support():
    n = 0
    x = WindowHomElt(F5, n, -3, 3, {(0, 0, 0, 0): 1})
    dx = dga_d(x)
    # (d x)_l = x_l - (-1)^n x_{l+1}: support {-1, 0} with signs (-(-1)^n, 1)
    assert (dx.lo, dx.hi) == (-3, 2)
    assert dx.terms == {(0, 0, 0, 0): 1, (0, 0, -1, 0): F5.neg_i(1)}


def test_window_too_small():
    x = WindowHomElt(F5, 0, 0, 0)
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
    # block (0, 0) carries tau in odd degree
    x = WindowHomElt(F5, 1, -3, 3, {(0, 0, l, 0): 1 for l in range(-3, 4)})
    assert tau_flag(1, 0, 0) and dga_mul(x, x).is_zero()


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
        assert _block(prod, i, j) == {(i, j, l, 0): 1 for l in range(prod.lo, prod.hi + 1)}
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
        dga, "dga_d", lambda x: WindowHomElt(x.ctx, x.degree + 1, x.lo, x.hi - 1)
    )
    assert _dga_suite_details()["cohomology_pattern"] is False


def test_cohomology_pattern_fails_on_a_zero_iota(monkeypatch):
    monkeypatch.setattr(dga, "iota_elt", lambda ctx, n, lo, hi, slot: WindowHomElt(ctx, n, lo, hi))
    assert not dga_cohomology(T5, 0, L=2)["representative"]
    assert _dga_suite_details()["cohomology_pattern"] is False


def test_no_boundary_reaches_a_non_tau_block():
    """The source block of d_{n-1} under a non-tau block of C^n is a tau
    block, so d_{n-1} is zero there: the reason r_in == 0 certifies iota."""
    for n in range(-2, 4):
        d_in = dga._block_matrices(F5, n - 1, -3, 3)
        for i in range(2):
            for j in range(2):
                if (n % 2 == 0) == (i == j):
                    assert not any(d_in[i][j]), (n, i, j)


# -- the derivation certificate ---------------------------------------------

# (function of `dga`, source text, its replacement): each breaks the DGA
MUTATIONS = {
    "leibniz_sign_plus": (
        "leibniz_defect",
        "sign = 1 if x.degree % 2 == 0 else x.ctx.neg_i(1)",
        "sign = 1",
    ),
    "d_sign_plus": ("dga_d", "sign_n = 1 if n % 2 == 0 else ctx.neg_i(1)", "sign_n = 1"),
    "mul_tau_rule_or": ("dga_mul", "if tau_x and tau_y:", "if tau_x or tau_y:"),
    "mul_drops_level_0": (
        "dga_mul",
        "group = groups[j].get(l)",
        "group = groups[j].get(l) if l != 0 else None",
    ),
    "mul_scales_one_block_level": (
        "dga_mul",
        "out[key] = add[get(key, 0)][row[c]]",
        "out[key] = add[get(key, 0)][mul[row[c]]"
        "[ctx.scalar_i(2 if (k, j, i, l) == (0, 0, 0, 0) else 1)]]",
    ),
    "d_without_tau_skip": ("dga_d", "continue  # tau . tau = 0", "pass"),
}


def _mutate(monkeypatch, name):
    """Replace the `dga` function of MUTATIONS[name] by a copy compiled from
    its source with the one replacement made."""
    func, old, new = MUTATIONS[name]
    src = textwrap.dedent(inspect.getsource(getattr(dga, func)))
    assert src.count(old) == 1, name
    namespace = dict(vars(dga))
    exec(src.replace(old, new), namespace)
    monkeypatch.setattr(dga, func, namespace[func])


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (3, 2)])
def test_derivation_check_passes(p, m):
    ctx = field_create(p, m)
    for L in range(1, 5):
        assert derivation_check(ctx, L) == {"d_squared": True, "leibniz": True}, L


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_derivation_check_fails_on_a_mutation(name, monkeypatch):
    _mutate(monkeypatch, name)
    for L in (1, 2):
        rep = derivation_check(F5, L)
        assert rep["leibniz"] is False
        assert rep["d_squared"] is (name != "d_without_tau_skip")


def test_cohomology_pattern_fails_on_a_differential_without_its_tau_skip(monkeypatch):
    _mutate(monkeypatch, "d_without_tau_skip")
    assert _dga_suite_details()["cohomology_pattern"] is False


def _units(degree, lo, hi):
    """The window basis, one element per (block, level), in basis_sum's order."""
    out = []
    for i in range(2):
        for j in range(2):
            for l in range(lo, hi + 1):
                out.append(WindowHomElt(F5, degree, lo, hi, {(i, j, l, 0): 1}))
    return out


@pytest.mark.parametrize("mutated", [False, True])
def test_encoded_defect_decodes_to_the_failing_unit_pairs(mutated, monkeypatch):
    """At q = 5, L = 2 the terms of the encoded Leibniz defect at Z^(uN + v)
    are the defects of the unit pairs (e_u, e_v), checked one at a time."""
    if mutated:
        _mutate(monkeypatch, "mul_scales_one_block_level")
    lo, hi = -2, 2
    N = 4 * (hi - lo + 1)
    failing = 0
    for m in CERTIFIED_DEGREES:
        for n in CERTIFIED_DEGREES:
            x, y = basis_sum(F5, m, lo + n, hi + n, N), basis_sum(F5, n, lo, hi, 1)
            decoded = {
                (divmod(z, N), i, j, l): c
                for (i, j, l, z), c in leibniz_defect(x, y).coeff_terms().items()
            }
            one_at_a_time = {
                ((u, v), i, j, l): c
                for u, eu in enumerate(_units(m, lo + n, hi + n))
                for v, ev in enumerate(_units(n, lo, hi))
                for (i, j, l, _), c in leibniz_defect(eu, ev).coeff_terms().items()
            }
            assert decoded == one_at_a_time, (m, n)
            failing += len(decoded)
    assert (failing > 0) is mutated


def test_dga_suite_does_not_depend_on_the_seed():
    details = [
        run(RunConfig(q=5, suites=("dga",), seed=seed))[0]["suites"][0]["details"]
        for seed in (0, 1)
    ]
    assert details[0] == details[1] and all(details[0].values())


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
