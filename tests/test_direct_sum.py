"""Checks of the combined vertex map on the sum of the algebra and a
second copy of itself, with every formula recomputed by independent code."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voacalc import axioms, contragredient as contra
from voacalc.fock import (GradedVector, build_heisenberg, partitions,
                          partitions_upto)


def B(label):
    return GradedVector.basis(label)


@pytest.fixture(scope="module")
def ds4():
    V = build_heisenberg(4)
    M = axioms.VOAAction(V)
    form = contra.build_invariant_form(contra.ContragredientModule(M))
    return V, M, form, contra.DirectSumMap(V, M, form, form)


def independent_skew_block(V, w1, n, v):
    """Fresh evaluation of the module-into-sum mode formula."""
    out = GradedVector()
    for j in range(0, 20):
        base = V.apply_mode(v, n + j, w1)
        if base.is_zero():
            continue
        term = base.scale(Fraction((-1) ** ((n + j + 1) % 2)))
        for i in range(1, j + 1):
            term = V.virasoro(-1, term).scale(Fraction(1, i))
        out = out + term
    return out


def independent_pairing_rhs(V, form, vlab, w1, wt1, n, w2, wt2):
    """Fresh evaluation of the pairing that determines the module-module
    block: builds the full Laurent table and reads one coefficient."""
    v = B(vlab)
    table = {}
    for p in range(0, wt1 + 1):
        lp = w1
        for i in range(1, p + 1):
            lp = V.virasoro(1, lp).scale(Fraction(1, i))
        if lp.is_zero():
            continue
        for t in range(-12, 12):
            img = V.apply_mode(v, t, lp)
            if img.is_zero():
                continue
            for q in range(0, wt2 + 1):
                lq = w2
                for i in range(1, q + 1):
                    lq = V.virasoro(1, lq).scale(Fraction(1, i))
                if lq.is_zero():
                    continue
                pairing = form.pair(img, lq)
                if pairing == 0:
                    continue
                sign = Fraction((-1) ** ((wt1 + t + 1) % 2))
                e = p - 2 * wt1 + t + 1 - q
                table[e] = table.get(e, Fraction(0)) + sign * pairing
    return table.get(-n - 1, Fraction(0))


def test_skew_block_formula(ds4):
    V, M, form, ds = ds4
    for w1l in partitions_upto(3):
        for vl in partitions_upto(3):
            for n in range(-6, 6):
                got = ds.w_on_v(B(w1l), n, B(vl))
                want = independent_skew_block(V, B(w1l), n, B(vl))
                assert got == want, (w1l, n, vl)


@st.composite
def skew_args(draw):
    labels = partitions_upto(4)

    def vec():
        return GradedVector(draw(st.dictionaries(
            st.sampled_from(labels), st.integers(-2, 2).filter(bool),
            min_size=1, max_size=2)))

    w1, v = vec(), vec()
    n = draw(st.integers(-6, 5))
    ceiling = draw(st.sampled_from((None, 2, 3, 4, 6)))
    return w1, n, v, ceiling


@given(skew_args())
@settings(max_examples=60, deadline=None)
def test_skew_block_chains_match_skew_formula(ds4, args):
    # the map keeps each L(-1) chain it reads across calls; the skew
    # formula computes every chain afresh
    V, M, form, ds = ds4
    w1, n, v, ceiling = args
    cap = ds.level if ceiling is None else ceiling
    assert ds.w_on_v(w1, n, v, ceiling) == \
        axioms.skew_coefficient(M, v, n, w1, cap)


@given(st.sampled_from(partitions_upto(3)),
       st.sampled_from(partitions_upto(3)), st.integers(-4, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_map_built_after_corruption_sees_it(lw1, lv, n, data):
    # corrupt v_n w1, the j = 0 term of the skew formula, after a warm map
    # has read it: a map built afterwards serves the corrupted value
    target = sum(lv) + sum(lw1) - n - 1
    if not 0 <= target <= 4 or lv == (1, 1):
        return
    V = build_heisenberg(4)
    M = axioms.VOAAction(V)
    form = contra.build_invariant_form(contra.ContragredientModule(M))
    warm = contra.DirectSumMap(V, M, form, form)
    w1, v = B(lw1), B(lv)
    clean = warm.w_on_v(w1, n, v)
    V.corrupt(lv, n, lw1, data.draw(st.sampled_from(partitions(target))), 1)
    fresh = contra.DirectSumMap(V, M, form, form).w_on_v(w1, n, v)
    assert fresh == axioms.skew_coefficient(M, v, n, w1, 4)
    assert fresh != clean
    assert warm.w_on_v(w1, n, v) == clean


def test_skew_block_with_weight_lowering_translation():
    # a corrupted L(-1) that sends a(-3) to a(-1): the L(-1) chain of
    # a(-1)|0> = a(-1)_(-1)|0> then never reaches zero, and the map builds
    # each chain only as far as it is read
    V = build_heisenberg(4)
    M = axioms.VOAAction(V)
    form = contra.build_invariant_form(contra.ContragredientModule(M))
    V.corrupt((1, 1), 0, (3,), (1,), -1)
    ds = contra.DirectSumMap(V, M, form, form)
    for w1l in ((), (1,)):
        for n in range(-5, 3):
            assert ds.w_on_v(B(w1l), n, B((1,))) == \
                axioms.skew_coefficient(M, B((1,)), n, B(w1l), 4)


def test_module_block_orthogonal_to_module(ds4):
    V, M, form, ds = ds4
    zero = GradedVector()
    for w1l in partitions_upto(2):
        for w2l in partitions_upto(2):
            u = contra.DSVector(zero, B(w1l))
            x = contra.DSVector(zero, B(w2l))
            for n in range(-5, 5):
                res = ds.act(u, n, x)
                assert res.w.is_zero()
                for l3 in partitions_upto(4):
                    assert form.pair(B(l3), res.w) == 0


def test_pairing_block_matches_independent(ds4):
    V, M, form, ds = ds4
    for w1l in partitions_upto(3):
        for w2l in partitions_upto(3):
            wt1, wt2 = sum(w1l), sum(w2l)
            for n in range(-5, 5):
                got = ds.w_on_w(B(w1l), n, B(w2l))
                target = wt1 + wt2 - n - 1
                for vlab in partitions_upto(4):
                    if sum(vlab) != target:
                        continue
                    lhs = form.pair(B(vlab), got)
                    rhs = independent_pairing_rhs(V, form, vlab, B(w1l), wt1,
                                                  n, B(w2l), wt2)
                    assert lhs == rhs, (w1l, n, w2l, vlab)


def test_algebra_block_is_plain_action(ds4):
    V, M, form, ds = ds4
    zero = GradedVector()
    for ul in partitions_upto(3):
        for xl in partitions_upto(3):
            for n in range(-5, 5):
                got = ds.act(contra.DSVector(B(ul), zero), n,
                             contra.DSVector(B(xl), zero))
                assert got.v == V.apply_mode(B(ul), n, B(xl))
                assert got.w.is_zero()


def test_involution_automorphism(ds4):
    V, M, form, ds = ds4
    zero = GradedVector()
    basis = [contra.DSVector(B(l), zero) for l in partitions_upto(2)]
    basis += [contra.DSVector(zero, B(l)) for l in partitions_upto(2)]

    def sigma(t):
        return contra.DSVector(t.v, t.w.scale(-1))

    for u in basis:
        for x in basis:
            for n in range(-4, 4):
                assert sigma(ds.act(u, n, x)) == ds.act(sigma(u), n, sigma(x))


def test_vacuum_and_conformal_come_from_algebra(ds4):
    V, M, form, ds = ds4
    zero = GradedVector()
    x = contra.DSVector(zero, B((2, 1)))
    got = ds.act(contra.DSVector(V.vacuum, zero), -1, x)
    assert got == x
    got = ds.act(contra.DSVector(V.omega, zero), 1, x)
    assert got.w == B((2, 1)).scale(3) and got.v.is_zero()


def test_asymmetric_form_rejected():
    V = build_heisenberg(3)
    M = axioms.VOAAction(V)
    form = contra.build_invariant_form(contra.ContragredientModule(M))
    bad = contra.BilinearForm({w: [row[:] for row in b]
                               for w, b in form.blocks.items()},
                              form.index, symmetric=True)
    bad.blocks[2][0][1] += 1
    bad.symmetric = False
    with pytest.raises(contra.AsymmetricForm):
        contra.DirectSumMap(V, M, form, bad)
