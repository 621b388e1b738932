import functools
import itertools
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from voacalc import axioms, cli, contragredient as contra, fusion
from voacalc.fock import GradedVector, build_heisenberg
from voacalc.reports import (FixtureError, Status, VerificationReport,
                             fmt_vec)
from voacalc.series import Window

FIXTURES = resources.files("voacalc") / "fixtures"


def load(name):
    return fusion.load_fusion_tensor(FIXTURES / name)


def verlinde(T):
    return fusion.build_verlinde(T, fusion.check_s3_symmetry(T))


class TestParsing:
    def test_roundtrip_labels_and_entries(self):
        T = load("ising.fus")
        assert T.labels == ("V", "eps", "sigma")
        assert T.n("sigma", "sigma", "eps") == 1
        assert T.n("sigma", "sigma", "sigma") == 0
        assert T.dual_of("eps") == "eps"

    def test_dual_arrow_variants(self):
        T = fusion.parse_fusion_tensor(
            "labels: V a b\ndual: a→b b→a\nV V V 1\n")
        assert T.dual_of("a") == "b" and T.dual_of("b") == "a"
        assert T.dual_of("V") == "V"

    def test_malformed_lines(self):
        with pytest.raises(FixtureError):
            fusion.parse_fusion_tensor("V V V 1\n")  # missing labels
        with pytest.raises(FixtureError):
            fusion.parse_fusion_tensor("labels: V\nV V 1\n")
        with pytest.raises(FixtureError):
            fusion.parse_fusion_tensor("labels: V\nV V V x\n")
        with pytest.raises(FixtureError):
            fusion.parse_fusion_tensor("labels: V\ndual: V->V->V\n")
        with pytest.raises(FixtureError):
            fusion.parse_fusion_tensor("labels: V a\ndual: a->V\nV V V 1\n")

    def test_unknown_label_rejected(self):
        with pytest.raises(FixtureError):
            fusion.parse_fusion_tensor("labels: V\nV V W 1\n")

    def test_repeated_triple_rejected(self):
        with pytest.raises(FixtureError, match=r"dup\.fus:3: .*line 2"):
            fusion.parse_fusion_tensor("labels: V\nV V V 1\nV V V 0\n",
                                       "dup.fus")

    def test_repeated_label_rejected(self):
        # read as a tensor, the repeated label would give symmetry
        # violations instead of an error
        with pytest.raises(FixtureError,
                           match=r"^dup\.fus:2: label 'V' listed twice$"):
            fusion.parse_fusion_tensor(
                "# V twice\nlabels: V a V\nV V V 1\nV a a 1\na V a 1\n",
                "dup.fus")


@pytest.mark.parametrize("name", ["one_label.fus", "ising.fus",
                                  "bad_assoc.fus", "bad_symmetry.fus"])
def test_lookups_agree_with_fields(name):
    # n and dual_of read maps built once per tensor; the reference scans
    # the entries and dual fields directly
    T = load(name)
    for i in T.labels:
        want = next((b for a, b in T.dual if a == i), i)
        assert T.dual_of(i) == want
    for i, j, k in itertools.product(T.labels, repeat=3):
        want = next((n for t, n in T.entries if t == (i, j, k)), 0)
        assert T.n(i, j, k) == want
    # the maps do not take part in equality or hashing
    fresh = load(name)
    assert T == fresh and hash(T) == hash(fresh)


class TestSymmetry:
    def test_one_label(self):
        assert fusion.check_s3_symmetry(load("one_label.fus")).passed

    def test_ising(self):
        assert fusion.check_s3_symmetry(load("ising.fus")).passed

    def test_negative_control(self):
        rep = fusion.check_s3_symmetry(load("bad_symmetry.fus"))
        assert rep.failed

    def test_single_missing_entry_breaks_symmetry(self):
        T = fusion.FusionTensor(("V", "a", "b"), (("a", "b"), ("b", "a")),
                                ((("a", "b", "V"), 1),))
        # N(a, b, V') = N(a, b, V) = 1 but N(b, a, V) = 0
        assert fusion.check_s3_symmetry(T).failed


def _s3_reference(T):
    """The triple loop ``check_s3_symmetry`` ran before it read tables:
    each lowered entry through ``n`` and ``dual_of``, six times per
    triple."""
    def lowered(i, j, k):
        return T.n(i, j, T.dual_of(k))

    triples = list(itertools.product(T.labels, repeat=3))
    diffs = []
    for i, j, k in triples:
        base = lowered(i, j, k)
        for perm in itertools.permutations((i, j, k)):
            other = lowered(*perm)
            if other != base:
                diffs.append(((i, j, k, "perm", perm), base, other))
    naive_sym = all(T.n(*perm) == T.n(i, j, k) for i, j, k in triples
                    for perm in itertools.permutations((i, j, k)))
    note = ""
    if naive_sym != (not diffs):
        note = "upper-index and involution readings disagree"
    return VerificationReport.from_diffs("fusion-s3-symmetry",
                                         f"labels={len(T.labels)}", diffs, note)


def _su2_tensor(k, raised=None):
    """SU(2)_k from the truncated Clebsch-Gordan rule: N_ij^l = 1 when
    |i-j| <= l <= min(i+j, 2k-i-j) and i+j+l is even, for twice-spins
    0..k, every label self-dual. ``raised`` adds 1 on the S3 orbit of that
    triple of twice-spins."""
    rules = {(i, j, l): 1 for i in range(k + 1) for j in range(k + 1)
             for l in range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2)}
    if raised is not None:
        for t in set(itertools.permutations(raised)):
            rules[t] = rules.get(t, 0) + 1
    labels = tuple(f"j{i}" for i in range(k + 1))
    return fusion.FusionTensor(labels, (), tuple(
        ((labels[i], labels[j], labels[l]), n)
        for (i, j, l), n in sorted(rules.items())))


def _s3_cases():
    for path in sorted(FIXTURES.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".fus"):
            yield path.name, fusion.load_fusion_tensor(path)
    for k in range(1, 10):
        yield f"su2_k{k}", _su2_tensor(k)
        yield f"su2_k{k}_orbit", _su2_tensor(k, raised=(1, k, k - 1))
    # SU(2)_3 with the one cell N(j3, j1, j2) raised by 1: a position that
    # is no orbit's representative (t0 <= t1 <= t2) breaks the symmetry
    k3 = _su2_tensor(3)
    yield "su2_k3_cell", fusion.FusionTensor(k3.labels, k3.dual, tuple(
        (t, n + (t == ("j3", "j1", "j2"))) for t, n in k3.entries))
    # Z3 fusion, dual 1 <-> 2: N_ij^k = 1 when i + j = k mod 3. The lowered
    # tensor (i + j + k = 0 mod 3) is symmetric, the upper one is not
    z3 = fusion.FusionTensor(
        ("0", "1", "2"), (("1", "2"), ("2", "1")),
        tuple(((str(i), str(j), str((i + j) % 3)), 1)
              for i in range(3) for j in range(3)))
    yield "z3", z3
    # a label listed twice is read at both positions
    yield "repeated_label", fusion.FusionTensor(
        ("V", "a", "V"), (), ((("V", "V", "V"), 1), (("V", "a", "V"), 2)))


S3_CASES = dict(_s3_cases())


@pytest.mark.parametrize("name", sorted(S3_CASES))
def test_s3_symmetry_matches_the_triple_loop(name):
    T = S3_CASES[name]
    # identity, params, status, diffs in order, and note
    assert fusion.check_s3_symmetry(T) == _s3_reference(T)


def test_s3_cases_cover_diffs_and_the_note():
    reps = [fusion.check_s3_symmetry(T) for T in S3_CASES.values()]
    assert any(r.failed for r in reps) and any(r.passed for r in reps)
    assert fusion.check_s3_symmetry(S3_CASES["z3"]).note \
        == "upper-index and involution readings disagree"
    # the raised orbit is a tensor of its own, still symmetric
    assert S3_CASES["su2_k5_orbit"] != S3_CASES["su2_k5"]
    assert fusion.check_s3_symmetry(S3_CASES["su2_k5_orbit"]).passed
    # the raised cell is listed against each of its orbit's other positions
    cell = fusion.check_s3_symmetry(S3_CASES["su2_k3_cell"])
    assert cell.failed and not cell.note
    assert (("j3", "j1", "j2", "perm", ("j1", "j2", "j3")), 2, 1) in cell.diffs


@st.composite
def dual_tensors(draw):
    """Small tensors under a drawn involution, mostly asymmetric: each
    triple is unlisted, listed with N = 0, or listed with N = 1 or 2."""
    labels = ("V", "a", "b", "c")[:draw(st.integers(1, 4))]
    dual = []
    if len(labels) >= 3 and draw(st.booleans()):
        dual = [("a", "b"), ("b", "a")]
    entries = []
    for triple in itertools.product(labels, repeat=3):
        n = draw(st.sampled_from((None, None, None, 0, 1, 2)))
        if n is not None:
            entries.append((triple, n))
    return fusion.FusionTensor(labels, tuple(dual), tuple(entries))


@given(dual_tensors())
@settings(max_examples=80, deadline=None)
def test_s3_symmetry_matches_the_triple_loop_on_drawn_tensors(T):
    assert fusion.check_s3_symmetry(T) == _s3_reference(T)


class TestVerlinde:
    def test_one_label_algebra(self):
        A = verlinde(load("one_label.fus"))
        assert A.has_unit
        assert A.product("V", "V") == {"V": 1}

    def test_ising_products(self):
        A = verlinde(load("ising.fus"))
        assert A.has_unit
        assert A.product("sigma", "sigma") == {"V": 1, "eps": 1}
        assert A.product("eps", "eps") == {"V": 1}
        assert A.product("eps", "sigma") == {"sigma": 1}
        assert fusion.check_commutativity(A).passed
        assert fusion.check_associativity(A).passed

    def test_fixture_units(self):
        for name in ("one_label.fus", "ising.fus", "bad_assoc.fus"):
            rep = fusion.check_unit(verlinde(load(name)))
            assert rep.passed and rep.note == "two-sided unit"

    def test_non_unit_algebra_label_fails(self):
        # N(V, a, b) = 1 with a != b, in a fully symmetric tensor, so the
        # algebra builds but V is not a unit
        from itertools import permutations
        entries = {}
        for i in ("V", "a", "b"):
            for p in set(permutations(("V", i, i))):
                entries[p] = 1
        for p in permutations(("V", "a", "b")):
            entries[p] = 1
        T = fusion.FusionTensor(("V", "a", "b"), (), tuple(entries.items()))
        A = verlinde(T)
        assert not A.has_unit
        rep = fusion.check_unit(A)
        assert rep.failed and rep.note == "no exact unit"
        assert (("left", "a", "b"), 1, 0) in rep.diffs
        assert (("right", "b", "a"), 1, 0) in rep.diffs

    def test_symmetry_violation_blocks_build(self):
        with pytest.raises(fusion.SymmetryViolation):
            verlinde(load("bad_symmetry.fus"))

    def test_positivity_validation(self):
        assert fusion.check_positivity(load("ising.fus")).passed
        T = fusion.FusionTensor(("V",), (), ())
        assert fusion.check_positivity(T).failed

    def test_perturbed_tensor_fails_associativity(self):
        A = verlinde(load("bad_assoc.fus"))
        rep = fusion.check_associativity(A)
        assert rep.failed and rep.diffs

    def test_associativity_agrees_with_expansion_oracle(self):
        # multiply explicit basis expansions as an independent oracle
        for name in ("ising.fus", "bad_assoc.fus"):
            T = load(name)
            A = fusion.VerlindeAlgebra(T)
            brute_ok = True
            for i in T.labels:
                for j in T.labels:
                    for l in T.labels:
                        left = A.multiply(A.multiply({i: Fraction(1)},
                                                     {j: Fraction(1)}),
                                          {l: Fraction(1)})
                        right = A.multiply({i: Fraction(1)},
                                           A.multiply({j: Fraction(1)},
                                                      {l: Fraction(1)}))
                        if left != right:
                            brute_ok = False
            assert brute_ok == fusion.check_associativity(A).passed


@st.composite
def symmetric_tensors(draw):
    """Fully symmetric tensors over self-dual labels, with the orbit of
    every unit entry included so the lowered tensor is S3-invariant."""
    from itertools import combinations_with_replacement, permutations
    labels = ("V", "a", "b")
    entries = {}
    for i in labels:
        for p in set(permutations(("V", i, i))):
            entries[p] = 1
    for combo in combinations_with_replacement(("a", "b"), 3):
        val = draw(st.integers(min_value=0, max_value=2))
        for p in set(permutations(combo)):
            entries[p] = val
    return fusion.FusionTensor(labels, (), tuple(entries.items()))


@given(symmetric_tensors())
@settings(max_examples=40, deadline=None)
def test_symmetric_construction_passes_s3_and_commutes(T):
    assert fusion.check_s3_symmetry(T).passed
    A = fusion.VerlindeAlgebra(T)
    assert fusion.check_commutativity(A).passed


@st.composite
def lowered_symmetric_tensors(draw):
    """Tensors whose lowered table N_{ijk} = N^{k'}_{ij} is S3-invariant,
    under a drawn involution: one value per orbit of label triples."""
    labels = ("V", "a", "b", "c")[:draw(st.integers(1, 4))]
    dual = {}
    if len(labels) >= 3 and draw(st.booleans()):
        dual = {"a": "b", "b": "a"}
    lowered = {}
    for orbit in itertools.combinations_with_replacement(labels, 3):
        n = draw(st.integers(0, 2))
        for p in itertools.permutations(orbit):
            lowered[p] = n
    entries = tuple(((i, j, k), lowered[i, j, dual.get(k, k)])
                    for i, j, k in itertools.product(labels, repeat=3))
    return fusion.FusionTensor(labels, tuple(dual.items()), entries)


@given(lowered_symmetric_tensors())
@settings(max_examples=80, deadline=None)
def test_s3_symmetry_implies_commutativity(T):
    # build_verlinde refuses T unless fusion-s3-symmetry passed, and then
    # N^k_ij = N_{ijk'} = N_{jik'} = N^k_ji by the transposition of the
    # first two slots: verlinde-commutativity cannot fail on an algebra
    # that is built
    symmetry = fusion.check_s3_symmetry(T)
    assert symmetry.passed
    A = fusion.build_verlinde(T, symmetry)
    assert fusion.check_commutativity(A).passed


def _brute_force_associativity(T):
    """The defining formula over all quadruples and all k."""
    diffs = []
    for i, j, l, m in itertools.product(T.labels, repeat=4):
        lhs = sum(T.n(i, j, k) * T.n(k, l, m) for k in T.labels)
        rhs = sum(T.n(j, l, k) * T.n(i, k, m) for k in T.labels)
        if lhs != rhs:
            diffs.append(((i, j, l, m), lhs, rhs))
    return diffs


@st.composite
def small_tensors(draw):
    """Arbitrary small tensors, mostly non-associative: each triple is
    unlisted, listed with N = 0, or listed with N = 1 or 2."""
    labels = ("V", "a", "b", "c")[:draw(st.integers(1, 4))]
    entries = []
    for triple in itertools.product(labels, repeat=3):
        n = draw(st.sampled_from((None, None, 0, 1, 2)))
        if n is not None:
            entries.append((triple, n))
    return fusion.FusionTensor(labels, (), tuple(entries))


@given(small_tensors())
@settings(max_examples=80, deadline=None)
def test_associativity_matches_the_brute_force_formula(T):
    # the check sums over the nonzero N_ij^k only; its diffs, their order
    # and their values must be the formula's
    rep = fusion.check_associativity(fusion.VerlindeAlgebra(T))
    want = _brute_force_associativity(T)
    assert rep.diffs == want
    assert all(type(x) is int for _, *vals in rep.diffs for x in vals)
    assert rep.failed == bool(want)


@pytest.fixture(scope="module")
def V():
    return build_heisenberg(3)


class TestIntertwiners:

    def test_algebra_self_type(self, V):
        I = fusion.intertwiner_from_algebra(V)
        win = Window.symmetric(("x0", "x1", "x2"), 2)
        for rep in fusion.check_intertwiner([I], win)[0]:
            assert rep.passed, (rep.identity, rep.diffs[:2])

    def test_module_type_on_dual(self, V):
        Mp = contra.ContragredientModule(V)
        I = fusion.intertwiner_from_module(V, Mp)
        win = Window.symmetric(("x0", "x1", "x2"), 2)
        for rep in fusion.check_intertwiner([I], win)[0]:
            assert rep.passed, (rep.identity, rep.diffs[:2])

    def test_mode_perturbation_rejected(self, V):
        I = fusion.intertwiner_from_algebra(V)
        win = Window.symmetric(("x0", "x1", "x2"), 2)
        key = ((1,), 1, (1, 1))
        assert key in I.modes
        lab = next(iter(I.modes[key]))
        I.modes[key] = dict(I.modes[key])
        I.modes[key][lab] += 1
        assert any(r.failed for r in fusion.check_intertwiner([I], win)[0])

    def test_truncation_violation_detected(self, V):
        I = fusion.intertwiner_from_algebra(V)
        win = Window.symmetric(("x0", "x1", "x2"), 1)
        I.modes[((1,), 5, (1,))] = {(1,): 1}
        reps = {r.identity: r for r in fusion.check_intertwiner([I], win)[0]}
        assert reps["intertwiner-truncation"].failed

    def test_derivative_violation_detected(self, V):
        I = fusion.intertwiner_from_algebra(V)
        win = Window.symmetric(("x0", "x1", "x2"), 1)
        key = ((2,), -1, ())
        I.modes[key] = dict(I.modes.get(key, {}))
        I.modes[key][(3,)] = I.modes[key].get((3,), 0) + 1
        reps = {r.identity: r for r in fusion.check_intertwiner([I], win)[0]}
        assert reps["intertwiner-derivative"].failed

    def test_derivative_clips_a_stored_entry_above_the_output_level(self, V):
        # a(-1)'s mode -3 on a(-1) has weight 4, above the level: stored,
        # its true value is clipped away on the side that reads it, as the
        # shared act clips it, and L(-1)a(-1) = a(-2)'s image is clipped too
        I = fusion.intertwiner_from_algebra(V)
        assert ((1,), -3, (1,)) not in I.modes
        I.modes[((1,), -3, (1,))] = {(3, 1): 1}
        win = Window.symmetric(("x0", "x1", "x2"), 1)
        reps = {r.identity: r for r in fusion.check_intertwiner([I], win)[0]}
        assert reps["intertwiner-derivative"].passed

    def test_unequal_levels_read_the_least_and_clip_at_the_output(self, V):
        # both slots at level 3, the output at level 4: the checks read the
        # least of the three levels, and the stored operator clips at its
        # output's, so it keeps weight-4 images
        V4 = build_heisenberg(4)
        I = fusion._intertwiner_from_action(V4, V, V, V4)
        win = Window.symmetric(("x0", "x1", "x2"), 2)
        reps = fusion.check_intertwiner([I], win)[0]
        assert [(r.identity, r.params, r.status, r.note, r.diffs)
                for r in reps] == [
            ("intertwiner-truncation", "shift=0", Status.PASS, "", []),
            ("intertwiner-derivative", "shift=0", Status.PASS, "", []),
            ("intertwiner-jacobi", "wt<=(3)", Status.PASS, "196 instances",
             [])]
        assert I.level == 4
        assert I.act(GradedVector.basis((3,)), -1,
                     GradedVector.basis((1,))) == GradedVector.basis((3, 1))

    def test_first_failure_in_triple_order_is_reported(self):
        # the triples run v, then w1, then w2 over the basis; they are
        # visited by weight signature. Key A first fails at
        # (a(-1), a(-2), a(-3)), signature (1, 2, 3); key B first fails at
        # (a(-1), a(-1)^2, vacuum), signature (1, 2, 0), which is visited
        # first but comes later in triple order. No two stored modes at
        # level 3 order their first failures that way: a corrupted key
        # first fails at the w1 that is its first slot less its first
        # part, so w1 = a(-2) needs a weight-4 key
        V4 = build_heisenberg(4)
        I = fusion.intertwiner_from_algebra(V4)
        win = Window.symmetric(("x0", "x1", "x2"), 2)
        for key, label in ((((2, 2), 2, (3,)), (4,)),
                           (((1, 1, 1), -2, ()), (2, 1, 1))):
            I.modes[key] = dict(I.modes[key])
            I.modes[key][label] += 1
        alone = fusion.check_intertwiner([I], win)[0]
        jac = alone[-1]
        assert jac.identity == "intertwiner-jacobi" and jac.failed
        assert jac.params == "v=[1];w1=[2];w2=[3]"

        # the ungrouped loop's first failure, and the premise: B's triple
        # fails, with a smaller signature
        acts = axioms.JacobiActions(out1=I.m3, in1=I, out2=I,
                                    in2=I.m2, iterate=I.m1, out3=I)
        width = 2 + I.level + 1

        def run(lv, l1, l2):
            v, w1, w2 = map(GradedVector.basis, (lv, l1, l2))
            shaped = fusion.shaped_jacobi_window(
                sum(lv), sum(l1), sum(l2), I.level, width)
            return axioms.three_term_check(
                v, w1, w2, shaped, acts, "intertwiner-jacobi",
                f"v={fmt_vec(v)};w1={fmt_vec(w1)};w2={fmt_vec(w2)}")

        first = next(rep for rep in itertools.starmap(run, itertools.product(
            V4.basis_upto(2), V4.basis_upto(4), V4.basis_upto(4)))
            if rep.failed)
        assert (first.params, first.diffs) == (jac.params, jac.diffs)
        assert run((1,), (1, 1), ()).failed

        # checked after a clean intertwiner in one call, the corrupted one
        # gets the reports it gets alone, and the clean one passes on every
        # triple that has a shaped window
        clean, corrupted = fusion.check_intertwiner(
            [fusion.intertwiner_from_algebra(V4), I], win)
        assert corrupted == alone
        n = sum(fusion.shaped_jacobi_window(sum(lv), sum(l1), sum(l2),
                                            I.level, width) is not None
                for lv, l1, l2 in itertools.product(
                    V4.basis_upto(2), V4.basis_upto(4), V4.basis_upto(4)))
        assert [r.passed for r in clean] == [True] * 3
        assert clean[-1].note == f"{n} instances"

    @pytest.fixture
    def plan_builds(self, monkeypatch):
        """The argument list of every jacobi plan build, the plan cache
        wrapped at its own size."""
        built = []
        real = axioms._PLANS[axioms._jacobi_layout]

        def counting(*args):
            built.append(args[1:])
            return axioms._plan(*args)
        monkeypatch.setitem(
            axioms._PLANS, axioms._jacobi_layout,
            functools.lru_cache(real.cache_parameters()["maxsize"])(counting))
        return built

    def test_each_signature_builds_one_plan(self, V, plan_builds):
        built = plan_builds
        I = fusion.intertwiner_from_algebra(V)
        win = Window.symmetric(("x0", "x1", "x2"), 2)
        assert all(r.passed for r in fusion.check_intertwiner([I], win)[0])
        # 3 * 4 * 4 weight signatures (v up to weight 2, w1 and w2 up to 3)
        assert len(built) == len(set(built)) <= 48

    def test_one_fusion_suite_pass_builds_each_plan_once(self, plan_builds):
        # the self-type and dual-module intertwiners share the 48 level-3
        # signatures; checked in one call, neither evicts the other's plans
        reports = cli.run_suites(["fusion"], cli.SuiteConfig()).reports
        assert not any(r.failed for r in reports)
        assert sum(r.identity == "intertwiner-jacobi" for r in reports) == 2
        assert len(plan_builds) == len(set(plan_builds)) <= 48
