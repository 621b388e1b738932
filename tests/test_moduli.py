import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voacalc import moduli
from voacalc.exact import QQi
from voacalc.fock import GradedVector, build_heisenberg
from voacalc.moduli import (DomainViolation, LocalCoordinate, ModuliElement,
                            PSeries, SewingUndefined, UnsupportedSewing,
                            cap_element, check_operad_axioms,
                            check_sewing_axiom, compose_perms,
                            coordinate_series, extract_coordinate_data,
                            format_moduli_element, identity_element,
                            nu_evaluate, nu_state, pair,
                            parse_moduli_element,
                            permute, random_supported_element, scaling_element,
                            sew, two_puncture_element)
from voacalc.reports import FixtureError

M = 8


def pad(seq=()):
    return tuple(QQi.promote(x) for x in seq) + (QQi(0),) * (M - len(seq))


class TestCoordinates:
    def test_identity_flow(self):
        s = coordinate_series(QQi(1), pad(), 4)
        assert s.c == [QQi(0), QQi(1), QQi(0), QQi(0), QQi(0)]

    def test_scaling_flow(self):
        s = coordinate_series(QQi(Fraction(5, 3)), pad(), 3)
        assert s.c[1] == QQi(Fraction(5, 3)) and not s.c[2]

    def test_geometric_flow(self):
        # exp(x^2 d/dx) x = x/(1-x)
        s = coordinate_series(QQi(1), pad((1,)), 5)
        assert s.c[1:] == [QQi(1)] * 5

    @given(st.lists(st.integers(-3, 3), min_size=0, max_size=4),
           st.integers(1, 5), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_extraction_roundtrip(self, taylor, num, den):
        scale = QQi(Fraction(num, den))
        tt = pad(taylor)
        ser = coordinate_series(scale, tt, M + 1)
        a0, got = extract_coordinate_data(ser, M)
        assert a0 == scale and got == tt

    def test_compose_is_series_substitution(self):
        f = PSeries([0, 1, 2, 3], 5)
        g = PSeries([0, 1, 1], 5)
        h = f.compose(g)
        # f(g) = g + 2g^2 + 3g^3 with g = x + x^2
        assert h.c[1] == QQi(1) and h.c[2] == QQi(3)


class TestSewing:
    def test_identity_both_sides(self):
        I = identity_element(M)
        for Q in (scaling_element(7, M), two_puncture_element(3, M)):
            for i in range(1, Q.arity + 1):
                assert sew(Q, i, I).element == Q
            assert sew(I, 1, Q).element == Q

    def test_scaling_composition(self):
        got = sew(scaling_element(Fraction(5, 2), M), 1,
                  scaling_element(Fraction(-4, 7), M)).element
        assert got == scaling_element(Fraction(-10, 7), M)

    def test_two_puncture_cap_gives_identity(self):
        got = sew(two_puncture_element(1, M), 1, cap_element(M)).element
        assert got == identity_element(M)

    def test_nested_two_puncture(self):
        got = sew(two_puncture_element(2, M), 1,
                  two_puncture_element(1, M)).element
        assert got.arity == 3
        assert got.z == (QQi(3), QQi(2))
        assert got.standard_coordinates()

    def test_unsupported_flow_data(self):
        # one nonzero flow coefficient among zeros, at a sewn puncture or
        # at infinity of the second factor
        for flow in ((1,), (0, 1), (0,) * (M - 1) + (Fraction(1, 3),)):
            coord = LocalCoordinate(QQi(2), pad(flow))
            assert not coord.is_linear
            Q = ModuliElement(2, M, (QQi(3),), pad(),
                              (coord, LocalCoordinate(QQi(1), pad())))
            with pytest.raises(UnsupportedSewing, match="not linear"):
                sew(Q, 1, identity_element(M))
            assert sew(Q, 2, identity_element(M)).element == Q
            Q2 = ModuliElement(1, M, (), pad(flow),
                               (LocalCoordinate(QQi(1), pad()),))
            assert not Q2.standard_at_infinity
            assert not Q2.standard_coordinates()
            with pytest.raises(UnsupportedSewing, match="at infinity"):
                sew(identity_element(M), 1, Q2)

    def test_radius_condition(self):
        # second factor's punctures too wide for the free disc
        big = two_puncture_element(10, M)
        tight = two_puncture_element(2, M)
        with pytest.raises(SewingUndefined):
            sew(tight, 1, big)

    @staticmethod
    def _radius_case(shrink):
        # puncture 1 at z with scale a, the other at 0, so the free disc
        # has |a|^2 |z|^2 = |w|^2 for w = a z; the second factor's puncture
        # sits at w * shrink, all three non-integral Gaussian rationals
        z, a = QQi(Fraction(1, 2), Fraction(1, 3)), QQi(Fraction(3, 2),
                                                        Fraction(1, 2))
        Q1 = ModuliElement(2, M, (z,), pad(), (LocalCoordinate(a, pad()),
                                               LocalCoordinate(QQi(1), pad())))
        Q2 = ModuliElement(2, M, (a * z * shrink,), pad(),
                           (LocalCoordinate(QQi(Fraction(2, 3), 1), pad()),
                            LocalCoordinate(QQi(Fraction(-5, 4)), pad())))
        return Q1, Q2

    def test_radius_condition_with_equality_raises(self):
        Q1, Q2 = self._radius_case(1)
        assert Q2.z[0] == QQi(Fraction(7, 12), Fraction(3, 4))
        with pytest.raises(SewingUndefined, match="radius"):
            sew(Q1, 1, Q2)

    def test_radius_condition_just_inside_sews(self):
        Q1, Q2 = self._radius_case(Fraction(9999, 10000))
        got = sew(Q1, 1, Q2).element
        assert got.arity == 3
        assert got.z[0] == Q1.z[0] + Q2.z[0] / Q1.coords[0].scale

    def test_scale_transforms_flow_data(self):
        # a non-linear coordinate at an unsewn puncture is pulled through
        # the transition, scaling its flow coefficients
        c1 = LocalCoordinate(QQi(1), pad((1, 2)))
        Q2 = ModuliElement(1, M, (), pad(), (c1,))
        Q1 = scaling_element(3, M)
        got = sew(Q1, 1, Q2).element
        want = tuple(QQi(3) ** (k + 1) * c1.taylor[k] for k in range(M))
        assert got.coords[0].scale == QQi(3)
        assert got.coords[0].taylor == want

    def test_det_slot_multiplies(self):
        Q1 = ModuliElement(1, M, (), pad(),
                           (LocalCoordinate(QQi(2), pad()),),
                           det_slot=Fraction(3))
        Q2 = ModuliElement(1, M, (), pad(),
                           (LocalCoordinate(QQi(5), pad()),),
                           det_slot=Fraction(7, 2))
        assert sew(Q1, 1, Q2).element.det_slot == Fraction(21, 2)

    def test_det_slot_is_int_first(self):
        # the default slot and an integral ``det:`` are ints; a Fraction
        # slot times a parsed 3 stays exact
        assert type(identity_element(M).det_slot) is int
        text = "arity 1\norder 4\ncoord 0: 0\ncoord 1: 5 ;\n"
        assert type(parse_moduli_element(text).det_slot) is int
        Q2 = parse_moduli_element(text + "det: 6/2\n")
        assert type(Q2.det_slot) is int and Q2.det_slot == 3
        Q1 = ModuliElement(1, 4, (), (QQi(0),) * 4,
                           (LocalCoordinate(QQi(2), (QQi(0),) * 4),),
                           det_slot=Fraction(7, 2))
        got = sew(Q1, 1, Q2).element.det_slot
        assert type(got) is Fraction and got == Fraction(21, 2)
        # a Fraction(1) slot and the int default give one element
        one = dataclasses.replace(identity_element(M), det_slot=Fraction(1))
        assert one == identity_element(M)
        assert hash(one) == hash(identity_element(M))


class TestPermutations:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_group_action(self, seed):
        rng = random.Random(seed)
        Q = random_supported_element(rng, M)
        n = Q.arity
        p = list(range(1, n + 1))
        q = list(range(1, n + 1))
        rng.shuffle(p)
        rng.shuffle(q)
        p, q = tuple(p), tuple(q)
        assert permute(permute(Q, p), q) == permute(Q, compose_perms(p, q))

    def test_identity_permutation(self):
        Q = two_puncture_element(5, M)
        assert permute(Q, (1, 2)) == Q

    def test_swap_dresses_infinity(self):
        Q = two_puncture_element(1, M)
        got = permute(Q, (2, 1))
        assert got.z == (QQi(-1),)
        assert any(a for a in got.inf_coord)
        # double swap returns to the original element
        assert permute(got, (2, 1)) == Q


def _full_order_extraction(series, ncoeffs):
    """Reference for extract_coordinate_data: each coefficient read off a
    coordinate series rebuilt at the input's full order."""
    a0 = series.c[1]
    taylor = []
    for j in range(1, ncoeffs + 1):
        current = coordinate_series(a0, tuple(taylor), series.order)
        if j + 1 > series.order:
            taylor.append(QQi(0))
            continue
        taylor.append((series.c[j + 1] - current.c[j + 1]) / a0)
    return a0, tuple(taylor)


def _reference_translated_inf(inf, t, order):
    series = coordinate_series(QQi(1), tuple(inf), order + 1)
    geom = [QQi(0)] + [(-t) ** (k - 1) for k in range(1, order + 2)]
    scale, taylor = _full_order_extraction(
        series.compose(PSeries(geom, order + 1)), order)
    assert scale == QQi(1)
    return taylor


_small_qqi = st.builds(lambda a, b, d: QQi(Fraction(a, d), Fraction(b, d)),
                       st.integers(-3, 3), st.integers(-3, 3),
                       st.integers(1, 3))


class TestTranslation:
    """Infinity flow data under the renormalizing translation, against the
    full-order extraction, on complex data the linear samples never reach."""

    @given(st.lists(_small_qqi, min_size=1, max_size=5).filter(any),
           st.lists(_small_qqi.filter(bool), min_size=2, max_size=2,
                    unique=True))
    @settings(max_examples=60, deadline=None)
    def test_permute_matches_full_order_extraction(self, inf, z):
        order = 5
        inf = tuple(inf) + (QQi(0),) * (order - len(inf))
        coords = (LocalCoordinate(QQi(1), (QQi(0),) * order),) * 3
        Q = ModuliElement(3, order, tuple(z), inf, coords)
        # moving puncture 1 into the zero slot translates by z_1
        got = permute(Q, (3, 2, 1))
        assert got.inf_coord == _reference_translated_inf(inf, z[0], order)
        hits = moduli._translated_inf.cache_info().hits
        cached = moduli._translated_inf(inf, z[0], order)
        assert moduli._translated_inf.cache_info().hits == hits + 1
        assert cached == moduli._translated_inf.__wrapped__(inf, z[0], order)


class TestPositions:
    """Distinct positions are tested by comparison, first fault first."""

    @staticmethod
    def _element(z):
        coords = (LocalCoordinate(QQi(1), pad()),) * (len(z) + 1)
        return ModuliElement(len(z) + 1, M, tuple(z), pad(), coords)

    def test_equal_values_as_distinct_objects(self):
        halves = [QQi(Fraction(1, 2)), QQi(1) / 2, QQi.parse("2/4")]
        assert len({id(h) for h in halves}) == 3
        for k, a in enumerate(halves):
            for b in halves[k + 1:]:
                with pytest.raises(ValueError, match="must be distinct"):
                    self._element((a, QQi(3), b))

    def test_fixture_with_equal_positions_names_its_z_line(self):
        text = ("arity 3\norder 2\nz: 1/2 2/4\ncoord 0: 0 0\n"
                "coord 1: 1 ;\ncoord 2: 1 ;\ncoord 3: 1 ;\n")
        with pytest.raises(FixtureError, match="<moduli>:3: .*distinct"):
            parse_moduli_element(text)

    @pytest.mark.parametrize("z,fault", [((1, 1, 0), "distinct"),
                                         ((0, 2, 2), "nonzero"),
                                         ((2, 0, 2), "nonzero"),
                                         ((2, 3, 2), "distinct")])
    def test_first_fault_order(self, z, fault):
        with pytest.raises(ValueError, match=f"must be {fault}"):
            self._element([QQi(x) for x in z])


def test_operad_axiom_reports():
    rng = random.Random(5)
    sample = [random_supported_element(rng, M) for _ in range(4)]
    sample.append(identity_element(M))
    reps = {r.identity: r for r in check_operad_axioms(sample)}
    assert reps["operad-identity"].passed
    assert reps["operad-associativity"].passed
    assert reps["operad-equivariance"].passed
    note = reps["operad-associativity"].note
    assert "low=" in note and "nested=" in note and "high=" in note


def test_operad_skip_notes_are_pinned(monkeypatch):
    # a non-linear coordinate at puncture 1 of the first element and a
    # nonzero infinity flow on the second make some sewings unsupported;
    # each report counts them in its note, and every sewing, the skipped
    # ones included, goes through ``sew``, once per distinct pair of
    # factors
    sample = [
        ModuliElement(2, M, (QQi(3),), pad(),
                      (LocalCoordinate(QQi(1), pad((1,))),
                       LocalCoordinate(QQi(2), pad()))),
        ModuliElement(2, M, (QQi(-2),), pad((Fraction(1, 2),)),
                      (LocalCoordinate(QQi(1), pad()),) * 2),
        two_puncture_element(5, M),
        identity_element(M),
    ]
    calls = []
    real = moduli.sew

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(moduli, "sew", counted)
    got = [(r.identity, r.status.value, r.note, len(r.diffs))
           for r in check_operad_axioms(sample)]
    assert got == [
        ("operad-identity", "pass", "2 skipped", 0),
        ("operad-associativity", "pass",
         "low=4,nested=31,high=4,skipped=253", 0),
        ("operad-equivariance", "pass", "checked=17,skipped=27", 0)]
    assert len(calls) == 204
    # ``calls`` keeps every factor alive, so no id is reused
    keys = [(id(Q1), i, id(Q2)) for Q1, i, Q2 in calls]
    assert len(set(keys)) == len(keys)


def test_operad_records_are_pinned(monkeypatch):
    # parsed positions, as a fixture loader makes them; the reports and
    # the number of sewings that produce them are pinned
    rng = random.Random(2024)
    sample = [parse_moduli_element(format_moduli_element(
        random_supported_element(rng, 8))) for _ in range(8)]
    calls = []
    real = moduli.sew

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(moduli, "sew", counted)
    reps = check_operad_axioms(sample, seed=11)
    text = "\n".join(r.record() + r.note + repr(r.diffs) for r in reps)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1de7d8781f3aacb866cb0636c1acea1464bdb4799d34f266844eaad1ea098a14"
    assert len(calls) == 2357


def _reference_associativity(sample):
    """The associativity instances of ``check_operad_axioms``, each sewn
    on its own, with no table and no shared verdict: (diffs, note)."""
    sewn = moduli._sewn
    diffs, checked, skips = [], {"low": 0, "nested": 0, "high": 0}, 0
    for Q1 in sample:
        for Q2 in sample:
            k = Q2.arity
            for Q3 in sample:
                for i1 in range(1, Q1.arity + 1):
                    for i2 in range(1, Q1.arity + k):
                        lhs = sewn(sewn(Q1, i1, Q2), i2, Q3)
                        if i2 < i1:
                            regime = "low"
                            rhs = sewn(sewn(Q1, i2, Q3), Q3.arity + i1 - 1, Q2)
                        elif i2 < i1 + k:
                            regime = "nested"
                            rhs = sewn(Q1, i1, sewn(Q2, i2 - i1 + 1, Q3))
                        else:
                            regime = "high"
                            rhs = sewn(sewn(Q1, i2 - k + 1, Q3), i1, Q2)
                        if lhs is None or rhs is None:
                            skips += 1
                        else:
                            checked[regime] += 1
                            if lhs != rhs:
                                diffs.append(((regime, i1, i2), "differs", ""))
    note = ",".join(f"{k}={v}" for k, v in checked.items())
    return diffs, note + (f",skipped={skips}" if skips else "")


@pytest.mark.parametrize("seed", [3, 8])
def test_associativity_matches_sewing_each_instance(seed, monkeypatch):
    # a sew that doubles the extension slot of about one result in five,
    # as a function of its arguments, so that both sides of some instances
    # differ; the table and the mirrored verdicts must give the same
    # diffs, in the same order, and the same counts as sewing each instance
    rng = random.Random(seed)
    sample = [random_supported_element(rng, M) for _ in range(4)]
    sample += [cap_element(M), identity_element(M),
               ModuliElement(2, M, (QQi(-2),), pad((Fraction(1, 2),)),
                             (LocalCoordinate(QQi(1), pad()),) * 2)]
    real = moduli.sew

    def skewed(Q1, i, Q2):
        res = real(Q1, i, Q2)
        if hash((Q1, i, Q2)) % 5 == 0:
            res = moduli.SewingResult(dataclasses.replace(
                res.element, det_slot=2 * res.element.det_slot))
        return res

    monkeypatch.setattr(moduli, "sew", skewed)
    diffs, note = _reference_associativity(sample)
    assert diffs and "skipped=" in note
    got = {r.identity: r for r in check_operad_axioms(sample)}
    assert (got["operad-associativity"].diffs,
            got["operad-associativity"].note) == (diffs, note)


def test_a_wrong_inner_sewing_fails_associativity(monkeypatch):
    # P o_1 T comes back with its puncture moved. It is sewn once, and
    # every comparison that reads it, as a left factor or as an inner
    # sewing of any regime, sees the wrong element
    P = two_puncture_element(5, M)
    T = scaling_element(3, M)
    sample = [P, scaling_element(2, M), T]
    assert all(r.passed for r in check_operad_axioms(sample))
    wrong = []
    real = moduli.sew

    def moved(Q1, i, Q2):
        res = real(Q1, i, Q2)
        if Q1 is P and i == 1 and Q2 is T:
            wrong.append(i)
            z = (res.element.z[0] + QQi(Fraction(1, 10)),)
            res = moduli.SewingResult(dataclasses.replace(res.element, z=z))
        return res

    monkeypatch.setattr(moduli, "sew", moved)
    reps = {r.identity: r for r in check_operad_axioms(sample)}
    assoc = reps["operad-associativity"]
    assert not assoc.passed
    assert wrong == [1]
    assert {regime for (regime, _, _), _, _ in assoc.diffs} == \
        {"low", "nested", "high"}


def test_a_wrong_second_factor_relabelling_fails_equivariance(monkeypatch):
    # X's punctures have non-linear coordinates, so no sewing into X is
    # supported and X is relabelled only as a second factor, the tau half
    # of the check; relabelling it by the reversed permutation there must
    # fail that half and leave the sigma half passing
    X = ModuliElement(2, M, (QQi(3),), pad(),
                      (LocalCoordinate(QQi(1), pad((1,))),
                       LocalCoordinate(QQi(2), pad((0, 1)))))
    sample = [two_puncture_element(5, M), scaling_element(2, M), X]
    assert all(r.passed for r in check_operad_axioms(sample))
    real = moduli._permuted

    def reversed_on_x(Q, perm):
        return real(Q, perm[::-1] if Q is X else perm)

    monkeypatch.setattr(moduli, "_permuted", reversed_on_x)
    reps = {r.identity: r for r in check_operad_axioms(sample)}
    equiv = reps["operad-equivariance"]
    assert equiv.failed
    assert {half for (half, _, _), _, _ in equiv.diffs} == {"tau"}


@pytest.fixture(scope="module")
def V():
    return build_heisenberg(6)


class TestEvaluation:

    def test_grading_action(self, V):
        a = GradedVector.basis((1,))
        res = nu_evaluate(V, scaling_element(Fraction(3, 2), M), [a],
                          GradedVector.basis((1,)), 6)
        assert res.value == QQi(Fraction(2, 3))
        assert res.stable
        om = V.omega
        res = nu_evaluate(V, scaling_element(2, M), [om],
                          GradedVector.basis((1, 1)), 6)
        assert res.value == QQi(Fraction(1, 8))

    def test_two_point_matches_vertex_operator(self, V):
        # oracle: the two-puncture evaluation is the vertex-operator
        # matrix element at the puncture
        from voacalc.series import Window
        z = Fraction(2)
        P = two_puncture_element(z, M)
        u = V.omega
        w = GradedVector.basis((1,))
        state = nu_state(V, P, [u, w], 10)
        oracle = GradedVector()
        for n in V.mode_range(u, w, 10):
            img = V.act(u, n, w, 10)
            if img:
                oracle = oracle + img.scale(QQi.promote(z) ** (-n - 1))
        assert state == oracle

    def test_vacuum_slot_drops_out(self, V):
        a = GradedVector.basis((1,))
        v1 = nu_evaluate(V, two_puncture_element(2, M), [V.vacuum, a],
                         GradedVector.basis((1,)), 6).value
        v2 = nu_evaluate(V, two_puncture_element(7, M), [V.vacuum, a],
                         GradedVector.basis((1,)), 6).value
        assert v1 == v2 == QQi(1)

    def test_moduli_ordering_enforced(self, V):
        bad = ModuliElement(3, M, (QQi(1), QQi(2)), pad(),
                            (LocalCoordinate(QQi(1), pad()),) * 3)
        with pytest.raises(DomainViolation):
            nu_state(V, bad, [V.vacuum] * 3, 4)

    def test_nonstandard_coordinates_rejected(self, V):
        Q = ModuliElement(1, M, (), pad(),
                          (LocalCoordinate(QQi(1), pad((1,))),))
        with pytest.raises(DomainViolation):
            nu_state(V, Q, [V.vacuum], 4)

    def test_sewing_with_identity_exact(self, V):
        a = GradedVector.basis((1,))
        rep = check_sewing_axiom(V, two_puncture_element(2, M), 1,
                                 identity_element(M), [a, a],
                                 GradedVector.basis(()), (4, 6, 8))
        assert rep.passed and rep.note == "exact-zero"

    def test_overflow_flag_stops_at_first_loss(self):
        # the omega sewing check keeps no above-cutoff structure constant:
        # every pair an insertion asks for lands at an output weight inside
        # the cutoff, so the overflow flag reads no row on this path
        V = build_heisenberg(6)
        om = V.omega
        rep = check_sewing_axiom(V, two_puncture_element(2, M), 1,
                                 two_puncture_element(1, M), [om] * 3, om,
                                 (6, 12, 18))
        assert rep.passed
        above = [(lu, n, lv) for lu, n, lv in V.touched_mode_keys()
                 if sum(lu) + sum(lv) - n - 1 > 18]
        assert len(above) <= 100

    def test_omega_sewing_computes_what_it_pairs(self):
        # the outermost insertions compute only omega's weight 2, which
        # reads 181 structure constants; the whole states read 3,097
        V = build_heisenberg(6)
        om = V.omega
        check_sewing_axiom(V, two_puncture_element(2, M), 1,
                           two_puncture_element(1, M), [om] * 3, om,
                           (6, 12, 18))
        assert len(V.touched_mode_keys()) <= 200

    def test_corrupted_restricted_constant_moves_the_note(self):
        # negative control: a constant that only the restricted outermost
        # insertion of the contraction side reads, where a weight-4
        # component of the inner state meets omega at weight 2 (mode 3)
        def note(V):
            om = V.omega
            return check_sewing_axiom(V, two_puncture_element(2, M), 1,
                                      two_puncture_element(1, M), [om] * 3,
                                      om, (6, 12, 18)).note

        V = build_heisenberg(6)
        clean = note(V)
        inner = nu_state(V, two_puncture_element(1, M), [V.omega] * 2, 6)
        lu = next(lab for lab in inner.coeff
                  if sum(lab) == 4 and lab != (1, 1))
        assert (lu, 3, (1, 1)) in V.touched_mode_keys()
        V.corrupt(lu, 3, (1, 1), (1, 1), 1)
        assert note(V) != clean

    def test_omega_sewing_record_is_pinned(self):
        # the benchmark's omega sewing check, on a fresh algebra as there
        V = build_heisenberg(6)
        om = V.omega
        rep = check_sewing_axiom(V, two_puncture_element(2, M), 1,
                                 two_puncture_element(1, M), [om] * 3, om,
                                 (6, 12, 18))
        assert rep.record() == \
            "- sewing-evaluation arity=2+2;i=1;cutoffs=6,12,18 pass 0"
        assert rep.note == (
            "shrinking 193794241/3869835264,"
            "1263742695636545881/303256405652583481344,"
            "8624553200916685033620025/41257699193962142184687796224")

    def test_sewing_nontrivial_shrinks(self, V):
        a = GradedVector.basis((1,))
        rep = check_sewing_axiom(V, two_puncture_element(2, M), 1,
                                 two_puncture_element(1, M), [a, a, a],
                                 GradedVector.basis((1,)), (4, 8, 12))
        assert rep.passed
        assert rep.note.startswith("shrinking")

    def test_cap_contraction_is_vacuum_insertion(self, V):
        # gluing the zero-arity element plugs the vacuum into the slot
        assert nu_state(V, cap_element(M), [], 6) == V.vacuum
        rep = check_sewing_axiom(V, two_puncture_element(1, M), 1,
                                 cap_element(M), [GradedVector.basis((1,))],
                                 GradedVector.basis((1,)), (4, 6))
        assert rep.passed and rep.note == "exact-zero"

    def test_scale_slot_contraction_exact(self, V):
        # gluing a pure scaling into a slot is the grading conjugation,
        # which truncation preserves exactly
        a = GradedVector.basis((1,))
        rep = check_sewing_axiom(V, two_puncture_element(1, M), 1,
                                 scaling_element(2, M), [V.omega, a],
                                 GradedVector.basis((1,)), (4, 6))
        assert rep.passed and rep.note == "exact-zero"

    def test_permutation_consistency_through_data(self, V):
        # permuting the data of a two-puncture configuration with both
        # punctures away from zero matches permuting the inputs
        Q = ModuliElement(3, M, (QQi(5), QQi(2)), pad(),
                          (LocalCoordinate(QQi(1), pad()),) * 3)
        sigma = (2, 1, 3)
        Qp = permute(Q, sigma)
        assert Qp.z == (QQi(2), QQi(5))
        a = GradedVector.basis((1,))
        om = V.omega
        vp = GradedVector.basis((1,))
        # evaluation of the permuted element needs its own chamber, so
        # compare against the slot-permuted inputs on the sorted element
        lhs = nu_evaluate(V, Q, [om, a, a], vp, 8).value
        rhs = nu_evaluate(V, permute(Qp, sigma), [om, a, a], vp, 8).value
        assert lhs == rhs


_vectors = st.dictionaries(
    st.sampled_from([(), (1,), (1, 1), (2,), (2, 1), (3,)]),
    st.integers(-2, 2).filter(bool), min_size=1, max_size=3).map(GradedVector)


@st.composite
def _evaluations(draw):
    """An element of arity 0-3 with Gaussian-rational positions (moduli
    strictly decreasing) and scales, inhomogeneous inputs, a cutoff and a
    set of weights, some outside 0..cutoff."""
    arity = draw(st.integers(0, 3))
    z = draw(st.lists(_small_qqi.filter(bool), min_size=max(arity - 1, 0),
                      max_size=max(arity - 1, 0), unique_by=QQi.norm2))
    z = sorted(z, key=QQi.norm2, reverse=True)
    scales = draw(st.lists(_small_qqi.filter(bool), min_size=arity,
                           max_size=arity))
    Q = ModuliElement(arity, M, tuple(z), pad(),
                      tuple(LocalCoordinate(a, pad()) for a in scales))
    vectors = draw(st.lists(_vectors, min_size=arity, max_size=arity))
    return (Q, vectors, draw(st.integers(0, 6)),
            draw(st.sets(st.integers(-2, 9), max_size=4)))


class TestRestrictedEvaluation:
    """``nu_state`` with ``weights`` computes the full state's components
    at those weights, and a pairing reads the same value from either."""

    @given(_evaluations(), _vectors)
    @settings(max_examples=60, deadline=None)
    def test_restricted_state_is_the_full_state_at_those_weights(
            self, V, case, vprime):
        Q, vectors, cutoff, weights = case
        full = nu_state(V, Q, vectors, cutoff)
        got = nu_state(V, Q, vectors, cutoff, weights)
        assert got == GradedVector({lab: c for lab, c in full.coeff.items()
                                    if sum(lab) in weights})
        values = [pair(vprime, nu_state(V, Q, vectors, n))
                  for n in (cutoff - 2, cutoff - 1, cutoff) if n >= 0]
        res = nu_evaluate(V, Q, vectors, vprime, cutoff)
        assert res.value == values[-1]
        assert res.stable == (len(values) == 3 and len(set(values)) == 1)


class TestFixtureFormat:
    def test_roundtrip(self):
        Q = ModuliElement(2, M, (QQi(Fraction(1, 2), Fraction(3)),), pad(),
                          (LocalCoordinate(QQi(2), pad((1,))),
                           LocalCoordinate(QQi(1), pad())),
                          det_slot=Fraction(5, 3))
        text = format_moduli_element(Q)
        assert parse_moduli_element(text) == Q

    def test_complex_tokens(self):
        Q = parse_moduli_element(
            "arity 2\norder 4\nz: (1/2,3)\ncoord 0: 0\n"
            "coord 1: 1 ;\ncoord 2: 2 ; 1 0 1\n")
        assert Q.z == (QQi(Fraction(1, 2), Fraction(3)),)
        assert Q.coords[1].taylor[2] == QQi(1)

    def test_errors(self):
        with pytest.raises(FixtureError):
            parse_moduli_element("arity 2\nz: 1\ncoord 1: 1 ;\ncoord 2: 1 ;\n")
        with pytest.raises(FixtureError):
            parse_moduli_element("arity 1\norder 4\nwhat: 3\ncoord 1: 1 ;\n")
        with pytest.raises(FixtureError):
            parse_moduli_element("arity 1\norder 4\n")
        with pytest.raises(FixtureError):
            parse_moduli_element("arity 2\norder 4\nz: 0\ncoord 0:\n"
                                 "coord 1: 1 ;\ncoord 2: 1 ;\n")
