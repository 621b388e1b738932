from fractions import Fraction

import pytest

from voacalc import axioms
from voacalc.fock import GradedVector, build_heisenberg, partitions_upto
from voacalc.reports import Status
from voacalc.series import Window, delta_expansion


@pytest.fixture(scope="module")
def V():
    return build_heisenberg(6)


WIN3 = Window.symmetric(("x0", "x1", "x2"), 3)
WIN2 = Window.symmetric(("x0", "x1", "x2"), 2)


def B(label):
    return GradedVector.basis(label)


class TestJacobi:
    def test_vacuum_triple(self, V):
        rep = axioms.check_jacobi(V, V.vacuum, V.vacuum, V.vacuum, WIN3)
        assert rep.passed

    def test_oscillator_triples(self, V):
        for t in (((1,), (1,), ()), ((1,), (1, 1), (1,)), ((2,), (1,), (1,)),
                  ((1,), (2,), ()), ((1, 1), (1,), (1,))):
            rep = axioms.check_jacobi(V, B(t[0]), B(t[1]), B(t[2]), WIN3)
            assert rep.passed, t

    def test_out_of_budget_is_skipped(self, V):
        rep = axioms.check_jacobi(V, V.omega, V.omega, V.omega, WIN3)
        assert rep.status is Status.SKIPPED

    def test_corrupted_constant_fails(self):
        V = build_heisenberg(6)
        u, v, w = B((1,)), B((1,)), V.vacuum
        assert axioms.check_jacobi(V, u, v, w, WIN3).passed
        keys = [k for k in V.touched_mode_keys() if V.mode_basis(*k)]
        lu, n, lv = keys[len(keys) // 2]
        lab = next(iter(V.mode_basis(lu, n, lv)))
        V.corrupt(lu, n, lv, lab, 1)
        rep = axioms.check_jacobi(V, u, v, w, WIN3)
        V.clear_corruptions()
        assert rep.failed and rep.diffs

    def test_products_are_not_remembered_across_calls(self):
        # a constant whose corruption a fresh algebra's check catches is
        # caught just the same on an algebra, and through an action, that
        # already ran the check
        u, v, w = B((1,)), B((2,)), B((1,))
        V = build_heisenberg(6)
        acts = axioms.JacobiActions.uniform(axioms.VOAAction(V))

        def run(alg, actions=None):
            if actions is None:
                return axioms.check_jacobi(alg, u, v, w, WIN2)
            return axioms.three_term_check(u, v, w, WIN2, actions,
                                           "jacobi", "-")

        assert run(V).passed and run(V, acts).passed
        caught = None
        for key in sorted(V.touched_mode_keys()):
            values = V.mode_basis(*key)
            if not values:
                continue
            fresh = build_heisenberg(6)
            fresh.corrupt(*key, min(values), 1)
            if run(fresh).failed:
                caught = key + (min(values),)
                break
        assert caught is not None
        V.corrupt(*caught, 1)
        try:
            assert run(V).failed
            assert run(V, acts).failed
        finally:
            V.clear_corruptions()
        assert run(V).passed and run(V, acts).passed

    def test_linearity_in_each_slot(self, V):
        u = B((1,)).scale(Fraction(1, 2)) + B((2,))
        rep = axioms.check_jacobi(V, u, B((1,)), V.vacuum, WIN2)
        assert rep.passed


class TestSkewSymmetry:
    def test_vacuum_pair(self, V):
        assert axioms.check_skew_symmetry(V, V.vacuum, V.vacuum, 4).passed

    def test_examples(self, V):
        assert axioms.check_skew_symmetry(V, B((1,)), V.omega, 6).passed
        assert axioms.check_skew_symmetry(V, V.omega, V.omega, 6).passed

    def test_all_pairs_in_budget(self, V):
        for lu in partitions_upto(3):
            for lv in partitions_upto(3):
                rep = axioms.check_skew_symmetry(V, B(lu), B(lv), 4)
                assert rep.passed, (lu, lv)


class TestCommutators:
    def test_vacuum(self, V):
        for rep in axioms.check_commutators(V, V.vacuum, Window.of(x=(-7, 7))):
            assert rep.passed

    def test_oscillator_and_conformal(self, V):
        for vec in (B((1,)), V.omega, B((2, 1))):
            for rep in axioms.check_commutators(V, vec, Window.of(x=(-7, 7))):
                assert not rep.failed


class TestConjugation:
    def test_all_identities_low_weight(self, V):
        for lab in partitions_upto(3):
            for rep in axioms.check_conjugation(V, B(lab), 3):
                assert not rep.failed, (lab, rep.identity, rep.diffs[:2])

    def test_scale_conjugation_reads_weights(self, V):
        rep = axioms.check_conjugation(V, V.omega, 2)
        names = {r.identity for r in rep}
        assert "conj-scale" in names and "conj-shear" in names
        assert "conj-translate" in names

    def test_higher_weight_vectors(self):
        V = build_heisenberg(5)
        for lab in ((4,), (3, 1), (2, 2)):
            for rep in axioms.check_conjugation(V, B(lab), 3):
                assert not rep.failed, (lab, rep.identity, rep.diffs[:2])


class TestS3:
    def test_vacuum_rewrites_match_delta_tables(self, V):
        # with all slots the vacuum, each rewrite term collapses to the
        # scalar substitution series, so the checker must agree with the
        # direct three-variable tables
        one = V.vacuum
        rep = axioms.check_translate_skew(V, one, one, one, WIN2)
        assert rep.passed
        lhs = delta_expansion("(x1-x2)/x0", WIN2) \
            - delta_expansion("(x2-x1)/-x0", WIN2)
        rhs = delta_expansion("(x1-x0)/x2", WIN2)
        assert not lhs.diff(rhs)

    def test_iterate_skew_examples(self, V):
        assert axioms.check_iterate_skew(V, B((1,)), V.omega, V.vacuum,
                                         WIN2).passed
        assert axioms.check_iterate_skew(V, B((1,)), B((1,)), B((1,)),
                                         WIN2).passed

    def test_translate_skew_examples(self, V):
        assert axioms.check_translate_skew(V, B((1,)), V.vacuum, B((1,)),
                                           WIN2).passed
        assert axioms.check_translate_skew(V, B((1,)), B((1,)), B((1,)),
                                           WIN2).passed

    def test_identity_permutation_matches_plain(self, V):
        reps = axioms.s3_transform_check(V, B((1,)), B((1,)), V.vacuum,
                                         (0, 1, 2), WIN3)
        assert len(reps) == 1
        direct = axioms.check_jacobi(V, B((1,)), B((1,)), V.vacuum, WIN3)
        assert reps[0].status == direct.status

    def test_transpositions(self, V):
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            reps = axioms.s3_transform_check(V, B((1,)), V.omega, B((1,)),
                                             perm, WIN2)
            for rep in reps:
                assert not rep.failed, (perm, rep.identity)

    def test_corruption_breaks_rewrite(self):
        V = build_heisenberg(6)
        u, v, w = B((2,)), B((1,)), B((1,))
        assert axioms.check_translate_skew(V, u, v, w, WIN2).passed
        V.corrupt((2,), 1, (1,), (max(0, 2 + 1 - 1 - 1),), 1)
        rep = axioms.check_translate_skew(V, u, v, w, WIN2)
        V.clear_corruptions()
        assert rep.failed
