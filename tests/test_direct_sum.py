"""Checks of the combined vertex map on the sum of the algebra and a
second copy of itself, with every formula recomputed by independent code."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voacalc import axioms, contragredient as contra, fusion
from voacalc.fock import (GradedVector, build_heisenberg, exp_chain,
                          partitions)
from voacalc.reports import Status


def B(label):
    return GradedVector.basis(label)


# the algebra's labels up to weights 3 and 4
UPTO_3, UPTO_4 = (build_heisenberg(w).basis_upto() for w in (3, 4))


@pytest.fixture(scope="module")
def ds4():
    V = build_heisenberg(4)
    form = contra.build_invariant_form(contra.ContragredientModule(V))
    return V, form, contra.DirectSumMap(V, V, form, form)


def independent_skew_block(V, w1, n, v):
    """Fresh evaluation of the module-into-sum mode formula."""
    out = GradedVector()
    for j in range(0, 20):
        base = V.act(v, n + j, w1)
        if base.is_zero():
            continue
        term = base.scale(Fraction((-1) ** ((n + j + 1) % 2)))
        for i in range(1, j + 1):
            term = V.virasoro(-1, term).scale(Fraction(1, i))
        out = out + term
    return out


def skew_oracle(action, v, n, u, ceiling=None):
    """The x^(-n-1) coefficient of e^{xL(-1)} Y(v, -x) u for one n,
    sum_j (-1)^(n+j+1) L(-1)^j/j! v_(n+j) u, with a fresh L(-1) chain of
    each image: the per-n formula that ``axioms.skew_coefficients``
    computes for many n at once."""
    out = GradedVector()
    if not v or not u:
        return out
    for j in range(max(v.weights()) + max(u.weights()) - n):
        chain = exp_chain(action, -1, action.act(v, n + j, u, ceiling),
                          ceiling, j + 1)
        if len(chain) > j:
            out = out + (chain[j] if (n + j) % 2 else -chain[j])
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
            img = V.act(v, t, lp)
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
    V, form, ds = ds4
    for w1l in V.basis_upto(3):
        for vl in V.basis_upto(3):
            for n in range(-6, 6):
                got = ds.w_on_v(w1l, n, vl, ds.level)
                want = independent_skew_block(V, B(w1l), n, B(vl))
                assert got == want.coeff, (w1l, n, vl)


@st.composite
def skew_args(draw):
    def vec():
        return GradedVector(draw(st.dictionaries(
            st.sampled_from(UPTO_4), st.integers(-2, 2).filter(bool),
            min_size=1, max_size=2)))

    w1, v = vec(), vec()
    n = draw(st.integers(-6, 5))
    ceiling = draw(st.sampled_from((None, 2, 3, 4, 6)))
    return w1, n, v, ceiling


@given(st.sampled_from(UPTO_4), st.sampled_from(UPTO_4), st.integers(-6, 5),
       st.sampled_from((2, 3, 4, 6)))
@settings(max_examples=60, deadline=None)
def test_skew_block_chains_match_skew_formula(ds4, w1l, vl, n, ceiling):
    # the map keeps each L(-1) chain it reads across calls; the skew
    # formula computes every chain afresh
    V, form, ds = ds4
    assert ds.w_on_v(w1l, n, vl, ceiling) == \
        skew_oracle(V, B(vl), n, B(w1l), ceiling).coeff


@given(st.sampled_from(UPTO_3), st.sampled_from(UPTO_3), st.integers(-4, 3),
       st.data())
@settings(max_examples=40, deadline=None)
def test_map_built_after_corruption_sees_it(lw1, lv, n, data):
    # corrupt v_n w1, the j = 0 term of the skew formula, after a warm map
    # has read it: a map built afterwards serves the corrupted value
    target = sum(lv) + sum(lw1) - n - 1
    if not 0 <= target <= 4 or lv == (1, 1):
        return
    V = build_heisenberg(4)
    form = contra.build_invariant_form(contra.ContragredientModule(V))
    warm = contra.DirectSumMap(V, V, form, form)
    w1, v = B(lw1), B(lv)
    clean = warm.w_on_v(lw1, n, lv, 4)
    V.corrupt(lv, n, lw1, data.draw(st.sampled_from(partitions(target))), 1)
    fresh = contra.DirectSumMap(V, V, form, form).w_on_v(lw1, n, lv, 4)
    assert fresh == skew_oracle(V, v, n, w1, 4).coeff
    assert fresh != clean
    assert warm.w_on_v(lw1, n, lv, 4) == clean


def test_skew_block_with_weight_lowering_translation():
    # a corrupted L(-1) that sends a(-3) to a(-1): the L(-1) chain of
    # a(-1)|0> = a(-1)_(-1)|0> then never reaches zero, and the map builds
    # each chain only as far as it is read
    V = build_heisenberg(4)
    form = contra.build_invariant_form(contra.ContragredientModule(V))
    V.corrupt((1, 1), 0, (3,), (1,), -1)
    ds = contra.DirectSumMap(V, V, form, form)
    for w1l in ((), (1,)):
        for n in range(-5, 3):
            assert ds.w_on_v(w1l, n, (1,), 4) == \
                skew_oracle(V, B((1,)), n, B(w1l), 4).coeff


def _lowering_translation(V):
    """The corruption above: L(-1) sends a(-3) to a(-1), so L(-1) chains
    need never reach zero."""
    V.corrupt((1, 1), 0, (3,), (1,), -1)
    return V


@given(skew_args(), st.integers(0, 6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_skew_coefficients_match_per_n_formula(args, width, corrupted):
    # one call over a range of orders gives, for each, the per-n formula
    w1, n, v, ceiling = args
    V = build_heisenberg(4)
    if corrupted:
        _lowering_translation(V)
    ns = range(n - width, n + 1)
    got = axioms.skew_coefficients(V, v, w1, ns, ceiling)
    assert list(got) == list(ns)
    for m in ns:
        assert got[m] == skew_oracle(V, v, m, w1, ceiling), m


@pytest.mark.parametrize("corrupted", (False, True))
@pytest.mark.parametrize("order", ("ascending", "descending", "shuffled"))
def test_skew_block_in_any_order_of_n(order, corrupted):
    # the map keeps the coefficients of one call from the lowest n asked;
    # a lower n asks again, and every answer is the fresh one
    V = build_heisenberg(4)
    form = contra.build_invariant_form(contra.ContragredientModule(V))
    if corrupted:
        _lowering_translation(V)
    ds = contra.DirectSumMap(V, V, form, form)
    ns = list(range(-6, 6))
    if order == "descending":
        ns.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(ns)
    for w1l, vl in (((), (1,)), ((1,), (1,)), ((2,), (1, 1)), ((3,), (2,))):
        v, w1 = B(vl), B(w1l)
        for n in ns:
            assert ds.w_on_v(w1l, n, vl, 4) == \
                skew_oracle(V, v, n, w1, 4).coeff, (w1l, vl, n)


def test_module_block_orthogonal_to_module(ds4):
    V, form, ds = ds4
    for w1l in V.basis_upto(2):
        for w2l in V.basis_upto(2):
            u = contra.in_module(B(w1l))
            x = contra.in_module(B(w2l))
            for n in range(-5, 5):
                _, res_w = contra.summands(ds.act(u, n, x))
                assert res_w.is_zero()
                for l3 in V.basis_upto():
                    assert form.pair(B(l3), res_w) == 0


def test_pairing_block_matches_independent(ds4):
    V, form, ds = ds4
    for w1l in V.basis_upto(3):
        for w2l in V.basis_upto(3):
            wt1, wt2 = sum(w1l), sum(w2l)
            for n in range(-5, 5):
                target = wt1 + wt2 - n - 1
                if target > ds.top:
                    # no algebra label has this weight
                    continue
                got = GradedVector(ds.w_on_w(w1l, n, w2l, target))
                for vlab in V.basis_upto():
                    if sum(vlab) != target:
                        continue
                    lhs = form.pair(B(vlab), got)
                    rhs = independent_pairing_rhs(V, form, vlab, B(w1l), wt1,
                                                  n, B(w2l), wt2)
                    assert lhs == rhs, (w1l, n, w2l, vlab)


def test_algebra_block_is_plain_action(ds4):
    V, form, ds = ds4
    for ul in V.basis_upto(3):
        for xl in V.basis_upto(3):
            for n in range(-5, 5):
                got_v, got_w = contra.summands(ds.act(B(ul), n, B(xl)))
                assert got_v == V.act(B(ul), n, B(xl))
                assert got_w.is_zero()


def test_labels_of_the_sum_keep_their_weight():
    v = GradedVector({(): 2, (2, 1): -1})
    w = GradedVector({(): 1, (1,): 3})
    x = v + contra.in_module(w)
    assert contra.summands(x) == (v, w)
    assert x.weights() == {0, 1, 3}
    assert contra.summands(x.component(0)) == (B(()).scale(2), B(()))


def _sigma(t):
    v, w = contra.summands(t)
    return v - contra.in_module(w)


def test_involution_automorphism(ds4):
    V, form, ds = ds4
    # weight by weight: the algebra's labels, then the module's
    basis = [x for w in range(3)
             for x in [B(l) for l in V.basis(w)]
             + [contra.in_module(B(l)) for l in V.basis(w)]]
    assert [B(l) for l in ds.basis_upto(2)] == basis
    for u in basis:
        for x in basis:
            for n in range(-4, 4):
                assert _sigma(ds.act(u, n, x)) == \
                    ds.act(_sigma(u), n, _sigma(x))


def test_vacuum_and_conformal_come_from_algebra(ds4):
    V, form, ds = ds4
    x = contra.in_module(B((2, 1)))
    got = ds.act(V.vacuum, -1, x)
    assert got == x
    got_v, got_w = contra.summands(ds.act(V.omega, 1, x))
    assert got_w == B((2, 1)).scale(3) and got_v.is_zero()


def test_rows_above_the_forms_top_weight_raise():
    # the module-module block needs the algebra form's block at the image
    # weight; past the forms' top weight the map has no data, and says so
    V = build_heisenberg(3)
    form = contra.build_invariant_form(contra.ContragredientModule(V))
    ds = contra.DirectSumMap(V, V, form, form)
    u, x = contra.in_module(B((2,))), contra.in_module(B((1,)))
    msg = "weight 4, above the forms' top weight 3"
    with pytest.raises(ValueError, match=msg):
        ds.act(u, -2, x, ceiling=6)
    with pytest.raises(ValueError, match=msg):
        ds.row((2, 0), -2, (1, 0))
    with pytest.raises(ValueError, match=msg):
        ds.true_nonzero(u, -2, x)
    # at the top weight itself the row exists
    assert ds.row((2, 0), -1, (1, 0))


def _engine_on_the_sum(ds):
    """The three-term identity on the sum at level 3: every ordered triple
    of its 8 basis vectors of weight <= 2, each on a shaped window of
    width 2, on which no loss test is asked. Returns the number failed."""
    basis = [B(l) for l in ds.basis_upto(2)]
    assert len(basis) == 8
    acts = axioms.JacobiActions.uniform(ds)
    failed = 0
    for p, q, t in itertools.product(basis, repeat=3):
        win = fusion.shaped_jacobi_window(p.weight(), q.weight(), t.weight(),
                                          ds.level, 2)
        rep = axioms.three_term_check(p, q, t, win, acts, "jacobi", "-")
        assert rep.status is not Status.SKIPPED
        failed += rep.failed
    return failed


@pytest.fixture(scope="module")
def form3():
    return contra.build_invariant_form(contra.ContragredientModule(
        build_heisenberg(3)))


@pytest.mark.parametrize("block, scale, failed", [
    # W = V with V's form: the sum is V tensor Q[Z/2], a vertex algebra
    (None, 1, 0),
    # a doubled module-into-sum block disagrees with skew-symmetry
    ("w_on_v", 2, 224),
    # a negated module-module block gives V tensor Q[t]/(t^2 + 1), again a
    # vertex algebra, so this scaling is no negative control
    ("w_on_w", -1, 0),
])
def test_engine_runs_on_the_sum(form3, block, scale, failed):
    V = build_heisenberg(3)
    ds = contra.DirectSumMap(V, V, form3, form3)
    if block is not None:
        real = getattr(ds, block)
        setattr(ds, block, lambda *args: {lab: scale * c for lab, c
                                          in real(*args).items()})
    assert _engine_on_the_sum(ds) == failed


def test_asymmetric_form_rejected():
    V = build_heisenberg(3)
    form = contra.build_invariant_form(contra.ContragredientModule(V))
    bad = contra.BilinearForm({w: [row[:] for row in b]
                               for w, b in form.blocks.items()},
                              form.index, symmetric=True)
    bad.blocks[2][0][1] += 1
    bad.symmetric = False
    with pytest.raises(contra.AsymmetricForm):
        contra.DirectSumMap(V, V, form, bad)
