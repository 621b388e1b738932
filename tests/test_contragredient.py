from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voacalc import cli, contragredient as contra
from voacalc.fock import GradedVector, build_heisenberg, partitions
from voacalc.reports import Status, VerificationReport
from voacalc.series import Window

from test_axioms import failing_digest, seeded_corruptions


def B(label):
    return GradedVector.basis(label)


@pytest.fixture(scope="module")
def setup4():
    V = build_heisenberg(4)
    return V, contra.ContragredientModule(V)


def test_conj_operator_examples(setup4):
    # e^{xL(1)} (-x^-2)^{L(0)} v is x^0 1, x^-4 omega and -x^-2 a(-1)1 for
    # the vacuum, omega and a(-1)1, as L(1) kills all three. So A(1, n) is
    # delta_{n,-1}, A(omega, n) = L(1 - n) and A(a(-1)1, n) = -a(-n)
    V, Mp = setup4
    a = B((1,))
    assert Mp._lowerings(()) == [(0, V.vacuum)]
    assert Mp._lowerings((1, 1)) == [(0, B((1, 1)))]
    assert Mp._lowerings((1,)) == [(0, a)]
    for mu in V.basis_upto():
        m = B(mu)
        for n in range(-4, 5):
            assert Mp.conj_operator(V.vacuum, n, m) == \
                (m if n == -1 else GradedVector())
            assert Mp.conj_operator(V.omega, n, m) == V.virasoro(1 - n, m)
            assert Mp.conj_operator(a, n, m) == -V.act(a, -n, m)


def test_defining_relation(setup4):
    V, Mp = setup4
    for rep in contra.check_defining_relation(Mp):
        assert rep.passed, (rep.params, rep.diffs[:3])


def test_defining_relation_checks_weight_changing_modes():
    # a dual action wrong only for a(-1), which maps the dual of weight
    # w to weight w + 1, can be seen only by pairs with |nu| != |mu|
    # the fault is put where the check reads the dual: its blocks
    V = build_heisenberg(4)

    class Doubled(contra.ContragredientModule):
        def adjoint_block(self, lu, n, weight):
            block = super().adjoint_block(lu, n, weight)
            if lu != (1,) or n != -1:
                return block
            return {mu: {nu: 2 * c for nu, c in col.items()}
                    for mu, col in block.items()}

    reps = {r.params: r for r in contra.check_defining_relation(Doubled(V))}
    bad = reps.pop("v=[1]")
    assert bad.failed
    assert all(n == -1 for (_, _, n), _, _ in bad.diffs)
    assert all(r.passed for r in reps.values())


def test_dual_virasoro_adjoint_and_bracket(setup4):
    V, Mp = setup4
    rep = contra.check_dual_virasoro(Mp, 4)
    assert rep.passed


def test_dual_virasoro_right_side_sees_its_own_corruption():
    # L(0) on a(-1) read at a label of weight 2: only the right side,
    # omega_1 nu clipped at |mu| >= 2, reads it; the dual blocks store it
    # at a weight no left side asks for
    V = build_heisenberg(4)
    assert contra.check_dual_virasoro(contra.ContragredientModule(V), 4).passed
    V.corrupt((1, 1), 1, (1,), (2,), 1)
    rep = contra.check_dual_virasoro(contra.ContragredientModule(V), 4)
    assert rep.failed
    assert all(d[0][:2] == ("adjoint", 0) for d in rep.diffs)
    assert {(d[0][2], d[0][3]) for d in rep.diffs} == {("[2]", "[1]")}


def test_dual_virasoro_right_side_clips_at_each_weight():
    # the same constant read at a label of weight 0: L(0) a(-1) has weight
    # 1, above |mu| = 0, so the right side clips it away and the check
    # still passes; a right side shared across |mu| would report it
    V = build_heisenberg(4)
    V.corrupt((1, 1), 1, (1,), (), 1)
    assert contra.check_dual_virasoro(
        contra.ContragredientModule(V), 4).passed


def test_dual_identity_operator(setup4):
    V, Mp = setup4
    for mu in V.basis_upto():
        wp = B(mu)
        for n in range(-4, 4):
            got = Mp.act(V.vacuum, n, wp)
            assert got == (wp if n == -1 else GradedVector())


def test_dual_derivative(setup4):
    V, Mp = setup4
    assert contra.check_dual_derivative(Mp, 3).passed


def test_dual_jacobi(setup4):
    V, Mp = setup4
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    a = B((1,))
    for v1, v2, wp in ((V.vacuum, V.vacuum, B(())), (a, a, B((1,))),
                       (a, V.omega, B(())), (V.omega, V.omega, B(()))):
        rep = contra.check_contragredient_jacobi(Mp, v1, v2, wp, win)
        assert not rep.failed


def test_dual_jacobi_corrupted_adjoint_fails():
    V = build_heisenberg(4)
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    a = B((1,))
    rep = contra.check_contragredient_jacobi(
        contra.ContragredientModule(V), a, a, B((1,)), win)
    assert rep.passed
    V.corrupt((1,), 0, (1, 1), (1, 1), 1)
    rep = contra.check_contragredient_jacobi(
        contra.ContragredientModule(V), a, a, B((1,)), win)
    V.clear_corruptions()
    assert rep.failed


def test_double_contragredient(setup4):
    V, Mp = setup4
    assert contra.check_double_contragredient(Mp).passed


def test_double_dual_keeps_graded_rows():
    # a constant corrupted at a label of the wrong weight: V's action
    # shows the label, while the double dual reads only the basis vectors
    # of each graded block, so the identity fails
    V = build_heisenberg(4)
    V.corrupt((1, 1), 1, (1,), (2,), 1)
    rep = contra.check_double_contragredient(contra.ContragredientModule(V))
    assert rep.failed
    assert [d[0] for d in rep.diffs] == [("[1,1]", 1, "[1]", (2,))]


def test_double_dual_conformal_modes(setup4):
    # the double-dual action of the conformal vector reproduces the
    # original Virasoro matrices
    V, Mp = setup4
    Mpp = contra.ContragredientModule(Mp)
    for n in range(-3, 4):
        for mu in V.basis_upto(3):
            got = Mpp.act(V.omega, n + 1, B(mu))
            want = V.virasoro(n, B(mu))
            assert got == want, (n, mu)


# -- failing paths, pinned ------------------------------------------------
# each digest is of the failing records' record() and repr(diffs): where a
# check reports a fault, in what order, with what values and types


class SignFlipped(contra.ContragredientModule):
    """A dual whose every block has one entry's sign flipped: the entry at
    its least (mu, nu)."""

    def adjoint_block(self, lu, n, weight):
        block = super().adjoint_block(lu, n, weight)
        if not block:
            return block
        mu = min(block)
        nu = min(block[mu])
        return {**block, mu: {**block[mu], nu: -block[mu][nu]}}


def test_sign_flipped_dual_records_are_pinned():
    Mp = SignFlipped(build_heisenberg(4))
    reps = contra.check_defining_relation(Mp)
    reps += [contra.check_dual_virasoro(Mp, 4),
             contra.check_double_contragredient(Mp)]
    assert failing_digest(reps) == (14, "41c2a479ffdcac1bf17353fc4458a4e6"
                                        "62c0129b5a5b924986e3609fb320627f")


def test_dual_virasoro_under_seeded_corruptions_is_pinned():
    # the right side reads omega's modes, so only those are corrupted
    reps = []
    for seed in range(4):
        V = build_heisenberg(4)
        for corruption in seeded_corruptions(seed, 3, 4, ops=((1, 1),)):
            V.corrupt(*corruption)
        reps.append(contra.check_dual_virasoro(contra.ContragredientModule(V),
                                               4))
    assert failing_digest(reps) == (4, "53e0902a204600b136c71610995bb6c3"
                                       "4d9c2c9abcb338d9992511f930d12ef7")


class TestInvariantForm:
    def test_frozen_values(self, setup4):
        V, Mp = setup4
        form = contra.build_invariant_form(Mp)
        assert form.pair(V.vacuum, V.vacuum) == 1
        assert form.pair(B((1,)), B((1,))) == -1
        assert form.pair(V.omega, V.omega) == Fraction(1, 2)
        # block-diagonality in weight
        assert form.pair(B((1,)), B((2,))) == 0
        assert form.pair(B((2,)), B((1, 1))) == 0

    def test_structure(self, setup4):
        V, Mp = setup4
        form = contra.build_invariant_form(Mp)
        assert form.symmetric
        assert form.nondegenerate()

    def test_normalization_scales(self, setup4):
        V, Mp = setup4
        form = contra.build_invariant_form(Mp, Fraction(3))
        assert form.pair(V.vacuum, V.vacuum) == 3
        assert form.pair(V.omega, V.omega) == Fraction(3, 2)

    @pytest.mark.parametrize("level, corruptions, message", [
        (3, [((1,), 1, (1,), (), 1)],
         "invariance fails at v=(1,), w1=(), w2=(1,), n=-1: -1 != -2"),
        (4, [((2,), 0, (1, 1), (2, 1), 1)],
         "invariance fails at v=(2,), w1=(1, 1), w2=(2, 1), n=0: 2 != 0"),
        (4, [((1,), -2, (1,), (2, 1), 1), ((1,), -2, (1,), (1, 1, 1), 1)],
         "invariance fails at v=(1,), w1=(1,), w2=(2, 1), n=-2: 4 != 2"),
    ])
    def test_first_fault_message_is_pinned(self, level, corruptions,
                                           message):
        # the first failing (w1, w2) in basis order, w1 outermost: the
        # second case first fails at weights 2 and 3, and the third at two
        # w2 of weight 3, of which it names the first
        V = build_heisenberg(level)
        for corruption in corruptions:
            V.corrupt(*corruption)
        with pytest.raises(contra.NotSelfDual) as e:
            contra.build_invariant_form(contra.ContragredientModule(V))
        assert str(e.value) == message

    def test_corrupted_action_raises(self):
        V = build_heisenberg(3)
        V.corrupt((1,), 1, (1,), (), 1)
        with pytest.raises(contra.NotSelfDual):
            contra.build_invariant_form(contra.ContragredientModule(V))
        V.clear_corruptions()
        contra.build_invariant_form(contra.ContragredientModule(V))

    def test_shared_module_builds_same_form(self):
        V = build_heisenberg(4)
        Mp = contra.ContragredientModule(V)
        assert all(r.passed for r in contra.check_defining_relation(Mp))
        shared = contra.build_invariant_form(Mp)
        own = contra.build_invariant_form(contra.ContragredientModule(V))
        assert shared.blocks == own.blocks
        assert shared.symmetric == own.symmetric

    def test_warm_shared_module_still_raises(self):
        V = build_heisenberg(3)
        Mp = contra.ContragredientModule(V)
        assert all(r.passed for r in contra.check_defining_relation(Mp))
        contra.build_invariant_form(Mp)
        V.corrupt((1,), 1, (1,), (), 1)
        try:
            with pytest.raises(contra.NotSelfDual):
                contra.build_invariant_form(Mp)
            reps = contra.check_invariant_form(Mp)
            assert reps[0].failed
        finally:
            V.clear_corruptions()

    def test_intertwines_into_dual(self, setup4):
        # w -> (w, .) is a module map onto the contragredient
        V, Mp = setup4
        form = contra.build_invariant_form(Mp)

        def phi(w):
            out = {}
            for nu in V.basis_upto():
                c = form.pair(w, B(nu))
                if c:
                    out[nu] = c
            return GradedVector(out)

        for lv in V.basis_upto(2):
            v = B(lv)
            for mu in V.basis_upto(3):
                w = B(mu)
                for n in range(-3, 4):
                    lhs = phi(V.act(v, n, w))
                    rhs = Mp.act(v, n, phi(w))
                    assert lhs == rhs, (lv, n, mu)


class PerLabelDual(contra.ContragredientModule):
    """The dual action by its definition: the coefficient at each dual
    basis vector nu is read off one ``conj_operator`` image of nu, with no
    block memo. Over a ``PerLabelDual`` base it gives the double dual."""

    def act(self, v, n, wp, ceiling=None):
        cap = self.level if ceiling is None else ceiling
        out = GradedVector()
        for wtv in sorted(v.weights()):
            part = v.component(wtv)
            for mu, c in wp.coeff.items():
                target = sum(mu) + wtv - n - 1
                if not 0 <= target <= cap:
                    continue
                out = out + GradedVector(
                    {nu: c * self.conj_operator(
                        part, n, B(nu), ceiling=sum(mu)).coeff.get(mu, 0)
                     for nu in partitions(target)})
        return out


@pytest.fixture(scope="module")
def warm_duals():
    out = {}
    for level in (4, 5):
        Mp = contra.ContragredientModule(build_heisenberg(level))
        out[level] = (Mp, contra.ContragredientModule(Mp))
    return out


@st.composite
def dual_action_args(draw):
    level = draw(st.sampled_from((4, 5)))
    labels = build_heisenberg(level).basis_upto()
    terms = draw(st.dictionaries(st.sampled_from(labels),
                                 st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=3))
    v = GradedVector({lab: Fraction(c) for lab, c in terms.items()})
    n = draw(st.integers(-level - 2, level + 1))
    mu = draw(st.sampled_from(labels))
    double = draw(st.booleans())
    # a corruption of the constant read by the k = 0 term of the block
    # entry (mu, nu), for a label lv of v: lv_(2 wt v - 2 - n) nu at mu,
    # or at a label of any weight, which a graded block has no row for
    corruption = None
    lv = draw(st.sampled_from(sorted(terms)))
    source = sum(mu) + sum(lv) - n - 1
    if 0 <= source <= level and lv != (1, 1) and draw(st.booleans()):
        label = draw(st.one_of(st.just(mu), st.sampled_from(
            build_heisenberg(level + 1).basis_upto())))
        corruption = (lv, 2 * sum(lv) - 2 - n,
                      draw(st.sampled_from(partitions(source))), label,
                      draw(st.sampled_from((-1, 1))))
    return level, v, n, mu, double, corruption


@given(dual_action_args())
@settings(max_examples=80, deadline=None)
def test_block_memo_matches_per_label_adjoint(warm_duals, args):
    # reference: one conj_operator image per nu, read off at mu, on modules
    # with no block memo; the dual and the double dual, each warm and, with
    # a corrupted structure constant, fresh on the corrupted algebra
    level, v, n, mu, double, corruption = args
    if corruption is None:
        Mp, Mpp = warm_duals[level]
        V = Mp.V
    else:
        V = build_heisenberg(level)
        V.corrupt(*corruption)
        Mp = contra.ContragredientModule(V)
        Mpp = contra.ContragredientModule(Mp)
    ref = PerLabelDual(V)
    if double:
        got = Mpp.act(v, n, B(mu))
        assert got == PerLabelDual(ref).act(v, n, B(mu))
        return
    got = Mp.act(v, n, B(mu))
    assert got == ref.act(v, n, B(mu))
    if corruption is not None and corruption[3] == mu:
        # the corrupted constant enters the block once, times a nonzero
        # coefficient of v, so the block read at mu changes
        clean = warm_duals[level][0].act(v, n, B(mu))
        assert got != clean


def test_block_clips_like_the_base_action_under_a_corrupted_lowering():
    # L(1) a(-2) corrupted to keep a weight-2 part, and the mode of a(-2)
    # that this part meets corrupted at a weight-1 label: the base's act
    # at ceiling 1 clips that mode's image, and so must the block
    V = build_heisenberg(4)
    V.corrupt((1, 1), 2, (2,), (2,), 2)
    V.corrupt((2,), 1, (2,), (1,), 1)
    got = contra.ContragredientModule(V).act(B((2,)), 0, B((1,)))
    assert got == PerLabelDual(V).act(B((2,)), 0, B((1,)))


def _defining_relation_by_conj_operator(Mp):
    """``check_defining_relation`` with its right side written per (v, n,
    nu): one ``conj_operator`` call on each nu at ceiling |mu|, each
    forming its operands anew. The reference for the check, which forms
    them once per (v, nu)."""
    M = Mp.base
    out = []
    for lv in Mp.V.basis_upto():
        v = B(lv)
        wtv = sum(lv)
        diffs = []
        for wmu in range(M.level + 1):
            differ = []
            for wnu in range(M.level + 1):
                n = wtv + wmu - wnu - 1
                right: dict = {}
                for nu in partitions(wnu):
                    for lab, c in Mp.conj_operator(
                            v, n, B(nu), ceiling=wmu).coeff.items():
                        right.setdefault(lab, {})[nu] = c
                left = Mp.adjoint_block(lv, n, wmu)
                if left != right:
                    differ.append((n, wnu, left, right))
            for mu in partitions(wmu):
                for n, wnu, left, right in differ:
                    lhs, rhs = left.get(mu, {}), right.get(mu, {})
                    for nu in partitions(wnu):
                        lc, rc = lhs.get(nu, 0), rhs.get(nu, 0)
                        if lc != rc:
                            diffs.append(((contra.fmt_label(mu),
                                           contra.fmt_label(nu), n), lc, rc))
        out.append(VerificationReport.from_diffs(
            "dual-defining-relation", f"v={contra.fmt_label(lv)}", diffs))
    return out


def _relation_records(reps) -> list:
    # the ordered diffs through repr, so that an int turning into an equal
    # Fraction fails too
    return [(r.identity, r.params, r.status, r.note, repr(r.diffs))
            for r in reps]


def _assert_relation_matches_reference(make_dual) -> list:
    """The check's records on one dual, against the reference's on another
    dual made the same way (so no block memo is shared); returns them."""
    got = _relation_records(contra.check_defining_relation(make_dual()))
    assert got == _relation_records(
        _defining_relation_by_conj_operator(make_dual()))
    return got


@pytest.mark.parametrize("level", (3, 4, 5))
def test_defining_relation_oracle_clean_lowering_and_sign_flip(level):
    # a clean algebra; the corrupted L(1) lowering of
    # test_block_clips_like_the_base_action_under_a_corrupted_lowering,
    # which both sides clip at |mu| = 1 alike, so its records pass; and a
    # dual whose blocks carry a flipped sign, which fails records
    clean = build_heisenberg(level)
    assert all(status is Status.PASS for _, _, status, _, _ in
               _assert_relation_matches_reference(
                   lambda: contra.ContragredientModule(clean)))
    lowered = build_heisenberg(level)
    lowered.corrupt((1, 1), 2, (2,), (2,), 2)
    lowered.corrupt((2,), 1, (2,), (1,), 1)
    lowerings = contra.ContragredientModule(lowered)._lowerings((2,))
    assert (2,) in lowerings[1][1].coeff
    _assert_relation_matches_reference(
        lambda: contra.ContragredientModule(lowered))
    got = _assert_relation_matches_reference(lambda: SignFlipped(clean))
    assert any(status is Status.FAIL for _, _, status, _, _ in got)


@given(level=st.sampled_from((3, 4, 5)), seed=st.integers(0, 1 << 16),
       count=st.integers(1, 6), lowering=st.booleans(), flip=st.booleans())
@settings(max_examples=30, deadline=None)
def test_defining_relation_oracle_under_seeded_corruptions(level, seed, count,
                                                           lowering, flip):
    # seeded corrupted constants, among omega's modes when ``lowering``,
    # which is where the L(1) lowerings are read; with ``flip``, a sign in
    # every block is flipped too, which fails records
    V = build_heisenberg(level)
    for corruption in seeded_corruptions(
            seed, count, level, ops=((1, 1),) if lowering else ()):
        V.corrupt(*corruption)
    dual = SignFlipped if flip else contra.ContragredientModule
    got = _assert_relation_matches_reference(lambda: dual(V))
    if flip:
        assert any(status is Status.FAIL for _, _, status, _, _ in got)


def _untruncated(V, op: dict, n: int, vec: dict) -> dict:
    """op_n vec accumulated from the structure constants, never clipped."""
    acc: dict = {}
    for lu, cu in op.items():
        for lv, cv in vec.items():
            for label, m in V.mode_basis(lu, n, lv).items():
                acc[label] = acc.get(label, 0) + cu * cv * m
    return acc


def _dual_untruncated(V, v: GradedVector, n: int, wp: GradedVector) -> dict:
    """v_n wp on the graded dual, paired against every basis vector nu
    through the adjoint formula, from the structure constants alone."""
    acc: dict = {}
    for wtv in v.weights():
        lowered, lv = [], v.component(wtv).coeff
        for k in range(wtv + 1):
            lowered.append((k, lv))
            lv = {lab: Fraction(c, k + 1)
                  for lab, c in _untruncated(V, V.omega.coeff, 2, lv).items()}
        for mu, c in wp.coeff.items():
            for nu in partitions(sum(mu) + wtv - n - 1):
                for k, lv in lowered:
                    img = _untruncated(V, lv, 2 * wtv - 2 - n - k, {nu: 1})
                    acc[nu] = acc.get(nu, 0) \
                        + (-1) ** wtv * c * img.get(mu, 0)
    return acc


@st.composite
def loss_args(draw):
    level = draw(st.sampled_from((3, 4)))
    labels = build_heisenberg(level).basis_upto()

    def vec():
        # mixed weights, several terms
        return GradedVector(draw(st.dictionaries(
            st.sampled_from(labels), st.integers(-3, 3).filter(bool),
            min_size=1, max_size=3)))

    op, target = vec(), vec()
    n = draw(st.integers(-level - 2, level + 1))
    corruption = None
    lu = draw(st.sampled_from(sorted(op.coeff)))
    lv = draw(st.sampled_from(sorted(target.coeff)))
    out_weight = sum(lu) + sum(lv) - n - 1
    if out_weight >= 0 and draw(st.booleans()):
        corruption = (lu, n, lv, draw(st.sampled_from(partitions(out_weight))),
                      draw(st.sampled_from((-1, 1))))
    return level, op, n, target, corruption


@given(loss_args())
@settings(max_examples=80, deadline=None)
def test_true_nonzero_matches_structure_constant_sum(args):
    # reference: the accumulation of untruncated structure constants that
    # the loss test was written as before it went through ``act``
    level, op, n, target, corruption = args
    V = build_heisenberg(level)
    if corruption is not None:
        V.corrupt(*corruption)
    want = any(_untruncated(V, op.coeff, n, target.coeff).values())
    assert V.true_nonzero(op, n, target) == want
    Mp = contra.ContragredientModule(V)
    want = any(_dual_untruncated(V, op, n, target).values())
    assert Mp.true_nonzero(op, n, target) == want


def test_fresh_module_sees_corruption_after_warm_memos():
    V = build_heisenberg(4)
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    a = B((1,))
    warm = contra.ContragredientModule(V)
    assert all(r.passed for r in contra.check_defining_relation(warm))
    assert contra.check_contragredient_jacobi(warm, a, a, a, win).passed
    V.corrupt((1,), 0, (1, 1), (1, 1), 1)
    try:
        fresh = contra.ContragredientModule(V)
        assert contra.check_contragredient_jacobi(fresh, a, a, a, win).failed
        with pytest.raises(contra.NotSelfDual):
            contra.build_invariant_form(fresh)
    finally:
        V.clear_corruptions()


def _integer_first(values, where):
    """Each coefficient is an int, or a Fraction that is not integral."""
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            (where, c)


def test_integral_coefficients_stay_int():
    # the label-keyed blocks, and the shared act's images of integer
    # vectors, on the dual and the double dual
    V = build_heisenberg(5)
    Mp = contra.ContragredientModule(V)
    Mpp = contra.ContragredientModule(Mp)
    for lab in V.basis_upto():
        v, wv = B(lab), sum(lab)
        for n in range(-3, 6):
            _integer_first(V.virasoro(n, v, ceiling=12).coeff.values(),
                           ("virasoro", lab, n))
        for k, lv in Mp._lowerings(lab):
            _integer_first(lv.coeff.values(), ("lowering", lab, k))
        for weight in range(V.level + 1):
            block = GradedVector({mu: 1 for mu in partitions(weight)})
            for source in range(V.level + 1):
                n = weight + wv - 1 - source
                for dual in (Mp, Mpp):
                    where = (dual is Mpp, lab, n, weight)
                    for col in dual.adjoint_block(lab, n, weight).values():
                        _integer_first(col.values(), ("adjoint",) + where)
                    _integer_first(dual.act(v, n, block).coeff.values(),
                                   ("act",) + where)
                    _integer_first(dual.virasoro(n, block).coeff.values(),
                                   ("virasoro'",) + where)


def test_suite_blocks_hold_exact_integer_first_values(monkeypatch):
    # the float spies in test_fock see the algebra's act and its rows
    # (mode_basis), which the blocks read, but not the blocks themselves
    duals = []
    real_init = contra.ContragredientModule.__init__

    def init(self, base):
        real_init(self, base)
        duals.append(self)

    monkeypatch.setattr(contra.ContragredientModule, "__init__", init)
    reps = cli.contragredient_suite(cli.SuiteConfig(level=4),
                                    cli.build_heisenberg)
    assert not any(r.failed for r in reps)
    assert any(isinstance(d.base, contra.ContragredientModule) for d in duals)
    for d in duals:
        assert d._blocks
        for key, block in d._blocks.items():
            for col in block.values():
                _integer_first(col.values(), (type(d.base).__name__, key))


def test_dual_of_the_direct_sum_reads_the_sums_labels():
    # the dual of V + W reads its labels from the sum, the module's with
    # their trailing 0: on W = V every module row is V's dual row with its
    # labels tagged, and the vacuum acts as the identity on W's dual
    V = build_heisenberg(3)
    form = contra.build_invariant_form(contra.ContragredientModule(V))
    Dp = contra.ContragredientModule(contra.DirectSumMap(V, V, form, form))
    Vp = contra.ContragredientModule(V)
    rows = 0
    for lu in V.basis_upto():
        for lv in V.basis_upto():
            # every n whose image weight lies in 0..level
            top = sum(lu) + sum(lv) - 1
            for n in range(top - V.level, top + 1):
                want = {mu + (0,): c for mu, c in Vp.row(lu, n, lv).items()}
                assert Dp.row(lu, n, lv + (0,)) == want, (lu, n, lv)
                rows += 1
    assert rows == 196
    assert Dp.row((), -1, (0,)) == {(0,): 1}
    assert all(r.passed for r in contra.check_defining_relation(Dp))
    # the sum's weight-0 block pairs its two vacua to zero
    with pytest.raises(contra.NotSelfDual, match="degenerate weight block"):
        contra.build_invariant_form(Dp)
