from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voacalc import contragredient as contra
from voacalc.fock import (GradedVector, build_heisenberg, partitions,
                          partitions_upto)
from voacalc.reports import Status
from voacalc.series import Window


def B(label):
    return GradedVector.basis(label)


@pytest.fixture(scope="module")
def setup4():
    V = build_heisenberg(4)
    M = contra.VOAModule(V)
    return V, M, contra.ContragredientModule(M)


def test_conjugate_vector_examples(setup4):
    V, _, _ = setup4
    cv = contra.conjugate_vector(V, V.vacuum)
    assert dict(cv.coeff) == {(0,): V.vacuum}
    cv = contra.conjugate_vector(V, V.omega)
    assert dict(cv.coeff) == {(-4,): V.omega}
    a = B((1,))
    cv = contra.conjugate_vector(V, a)
    assert dict(cv.coeff) == {(-2,): a.scale(-1)}


def test_defining_relation(setup4):
    V, M, Mp = setup4
    for rep in contra.check_defining_relation(M, Mp):
        assert rep.passed, (rep.params, rep.diffs[:3])


def test_dual_virasoro_adjoint_and_bracket(setup4):
    V, M, Mp = setup4
    rep = contra.check_dual_virasoro(M, 4, Mp)
    assert rep.passed


def test_dual_identity_operator(setup4):
    V, M, Mp = setup4
    for mu in M.basis_upto():
        wp = B(mu)
        for n in range(-4, 4):
            got = Mp.act(V.vacuum, n, wp)
            assert got == (wp if n == -1 else GradedVector())


def test_dual_derivative(setup4):
    V, M, Mp = setup4
    assert contra.check_dual_derivative(M, 3, Mp).passed


def test_dual_jacobi(setup4):
    V, M, Mp = setup4
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    a = B((1,))
    for v1, v2, wp in ((V.vacuum, V.vacuum, B(())), (a, a, B((1,))),
                       (a, V.omega, B(())), (V.omega, V.omega, B(()))):
        rep = contra.check_contragredient_jacobi(M, v1, v2, wp, win, Mp)
        assert not rep.failed


def test_dual_jacobi_corrupted_adjoint_fails():
    V = build_heisenberg(4)
    M = contra.VOAModule(V)
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    a = B((1,))
    rep = contra.check_contragredient_jacobi(M, a, a, B((1,)), win)
    assert rep.passed
    V.corrupt((1,), 0, (1, 1), (1, 1), 1)
    rep = contra.check_contragredient_jacobi(M, a, a, B((1,)), win)
    V.clear_corruptions()
    assert rep.failed


def test_double_contragredient(setup4):
    V, M, Mp = setup4
    assert contra.check_double_contragredient(M, Mp).passed


def test_double_dual_conformal_modes(setup4):
    # the double-dual action of the conformal vector reproduces the
    # original Virasoro matrices
    V, M, Mp = setup4
    Mpp = contra.ContragredientModule(Mp)
    for n in range(-3, 4):
        for mu in M.basis_upto(3):
            got = Mpp.act(V.omega, n + 1, B(mu))
            want = V.virasoro(n, B(mu))
            assert got == want, (n, mu)


class TestInvariantForm:
    def test_frozen_values(self, setup4):
        V, M, _ = setup4
        form = contra.build_invariant_form(M)
        assert form.pair(V.vacuum, V.vacuum) == 1
        assert form.pair(B((1,)), B((1,))) == -1
        assert form.pair(V.omega, V.omega) == Fraction(1, 2)
        # block-diagonality in weight
        assert form.pair(B((1,)), B((2,))) == 0
        assert form.pair(B((2,)), B((1, 1))) == 0

    def test_structure(self, setup4):
        V, M, _ = setup4
        form = contra.build_invariant_form(M)
        assert form.symmetric
        assert form.nondegenerate()

    def test_normalization_scales(self, setup4):
        V, M, _ = setup4
        form = contra.build_invariant_form(M, Fraction(3))
        assert form.pair(V.vacuum, V.vacuum) == 3
        assert form.pair(V.omega, V.omega) == Fraction(3, 2)

    def test_corrupted_action_raises(self):
        V = build_heisenberg(3)
        M = contra.VOAModule(V)
        V.corrupt((1,), 1, (1,), (), 1)
        with pytest.raises(contra.NotSelfDual):
            contra.build_invariant_form(M)
        V.clear_corruptions()
        contra.build_invariant_form(M)

    def test_shared_module_builds_same_form(self):
        V = build_heisenberg(4)
        M = contra.VOAModule(V)
        Mp = contra.ContragredientModule(M)
        assert all(r.passed for r in contra.check_defining_relation(M, Mp))
        shared = contra.build_invariant_form(M, Mp=Mp)
        own = contra.build_invariant_form(M)
        assert shared.blocks == own.blocks
        assert shared.symmetric == own.symmetric

    def test_warm_shared_module_still_raises(self):
        V = build_heisenberg(3)
        M = contra.VOAModule(V)
        Mp = contra.ContragredientModule(M)
        assert all(r.passed for r in contra.check_defining_relation(M, Mp))
        contra.build_invariant_form(M, Mp=Mp)
        V.corrupt((1,), 1, (1,), (), 1)
        try:
            with pytest.raises(contra.NotSelfDual):
                contra.build_invariant_form(M, Mp=Mp)
            reps = contra.check_invariant_form(M, Mp=Mp)
            assert reps[0].failed
        finally:
            V.clear_corruptions()

    def test_intertwines_into_dual(self, setup4):
        # w -> (w, .) is a module map onto the contragredient
        V, M, Mp = setup4
        form = contra.build_invariant_form(M)

        def phi(w):
            out = {}
            for nu in M.basis_upto():
                c = form.pair(w, B(nu))
                if c:
                    out[nu] = c
            return GradedVector(out)

        for lv in partitions_upto(2):
            v = B(lv)
            for mu in M.basis_upto(3):
                w = B(mu)
                for n in range(-3, 4):
                    lhs = phi(M.act(v, n, w))
                    rhs = Mp.act(v, n, phi(w))
                    assert lhs == rhs, (lv, n, mu)


@pytest.fixture(scope="module")
def warm_duals():
    return {level: contra.ContragredientModule(
        contra.VOAModule(build_heisenberg(level))) for level in (4, 5)}


@st.composite
def dual_action_args(draw):
    level = draw(st.sampled_from((4, 5)))
    labels = partitions_upto(level)
    terms = draw(st.dictionaries(st.sampled_from(labels),
                                 st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=3))
    v = GradedVector({lab: Fraction(c) for lab, c in terms.items()})
    n = draw(st.integers(-level - 2, level + 1))
    mu = draw(st.sampled_from(labels))
    return level, v, n, mu


@given(dual_action_args())
@settings(max_examples=60, deadline=None)
def test_block_memo_matches_per_label_adjoint(warm_duals, args):
    # reference: one adjoint image per (nu, mu), read off at mu, on a
    # module whose block memo is never used
    level, v, n, mu = args
    Mp = warm_duals[level]
    ref = contra.ContragredientModule(Mp.base)
    want = GradedVector()
    for wtv in sorted(v.weights()):
        part = v.component(wtv)
        target = sum(mu) + wtv - n - 1
        if not 0 <= target <= level:
            continue
        want = want + GradedVector(
            {nu: ref.conj_operator(part, n, B(nu),
                                   ceiling=sum(mu)).coeff.get(mu, 0)
             for nu in partitions(target)})
    assert Mp.act(v, n, B(mu)) == want


def test_fresh_module_sees_corruption_after_warm_memos():
    V = build_heisenberg(4)
    M = contra.VOAModule(V)
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    a = B((1,))
    warm = contra.ContragredientModule(M)
    assert all(r.passed for r in contra.check_defining_relation(M, warm))
    assert contra.check_contragredient_jacobi(M, a, a, a, win, warm).passed
    V.corrupt((1,), 0, (1, 1), (1, 1), 1)
    try:
        assert contra.check_contragredient_jacobi(M, a, a, a, win).failed
        with pytest.raises(contra.NotSelfDual):
            contra.build_invariant_form(M)
    finally:
        V.clear_corruptions()
