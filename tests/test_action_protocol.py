"""The one action protocol: every action the checks drive supplies
``row(lu, n, lv)`` and ``basis(weight)``, and its ``act`` on basis vectors
is that row clipped at the action's level, or at a ceiling when one is
given."""

from fractions import Fraction

import pytest

from voacalc import contragredient as contra, fusion
from voacalc.fock import (GradedVector, apply_pairs, build_heisenberg,
                          label_pairs)
from voacalc.series import Window

LEVEL = 3


def B(label):
    return GradedVector.basis(label)


def _actions():
    V = build_heisenberg(LEVEL)
    Mp = contra.ContragredientModule(V)
    # forms from a higher level, so that the sum's rows reach LEVEL + 2
    form = contra.build_invariant_form(contra.ContragredientModule(
        build_heisenberg(LEVEL + 2)))
    return {
        "algebra": V,
        "dual": Mp,
        "double-dual": contra.ContragredientModule(Mp),
        "intertwiner-algebra": fusion.intertwiner_from_algebra(V),
        "intertwiner-dual": fusion.intertwiner_from_module(V, Mp),
        "direct-sum": contra.DirectSumMap(V, V, form, form),
    }


def _samples(action, level):
    """Every pair of the action's basis labels up to the level (both
    summands, tagged, on the direct sum), at each mode index whose image
    weight lies in -1..level + 1."""
    labels = action.basis_upto(level)
    for lu in labels:
        for lv in labels:
            top = sum(lu) + sum(lv) - 1
            for n in range(top - level - 1, top + 2):
                yield lu, n, lv


def _clipped(row: dict, cap: int) -> dict:
    return {lab: c for lab, c in row.items() if sum(lab) <= cap}


@pytest.fixture(scope="module", params=list(_actions()))
def action(request):
    return _actions()[request.param]


def test_basis_labels_are_distinct_and_of_their_weight(action):
    # the labels every check reads: the direct sum's are both summands'
    for w in range(LEVEL + 1):
        labels = action.basis(w)
        assert labels and all(sum(lab) == w for lab in labels)
        assert len(set(labels)) == len(labels)
    assert len(action.basis_upto(LEVEL)) == \
        (14 if isinstance(action, contra.DirectSumMap) else 7)


def test_act_on_basis_vectors_is_the_clipped_row(action):
    nonzero = 0
    for lu, n, lv in _samples(action, LEVEL):
        row = action.row(lu, n, lv)
        nonzero += bool(row)
        assert action.act(B(lu), n, B(lv)).coeff == _clipped(row, LEVEL), \
            (lu, n, lv)
        for cap in (LEVEL - 1, LEVEL + 2):
            assert action.act(B(lu), n, B(lv), cap).coeff == \
                _clipped(row, cap), (lu, n, lv, cap)
    assert nonzero > 50


def test_act_is_bilinear_in_the_rows(action):
    u = GradedVector({(1,): 2, (2,): -1, (1, 1): 3})
    w = GradedVector({(): 1, (1,): -2, (2, 1): 1})
    if isinstance(action, contra.DirectSumMap):
        u, w = u + contra.in_module(w), w + contra.in_module(u)
    for n in range(-4, 4):
        want: dict = {}
        for lu, cu in u.coeff.items():
            for lw, cw in w.coeff.items():
                # a row is homogeneous, so a pair whose image weight is
                # above the level adds nothing; the sum has no such rows
                # past its forms' top weight
                if sum(lu) + sum(lw) - n - 1 > LEVEL:
                    continue
                for lab, x in _clipped(action.row(lu, n, lw), LEVEL).items():
                    want[lab] = want.get(lab, 0) + cu * cw * x
        assert action.act(u, n, w) == GradedVector(want), n


@pytest.mark.parametrize("name", list(_actions()))
def test_engine_pair_loop_is_act(name):
    # the three-term engine applies modes through fock.apply_pairs, over
    # label pairs it forms once and reads at many n, where act forms them
    # per call (the algebra's act runs it too, in apply_mode_flagged): both
    # must give the same values with the same coefficient types. A
    # constant corrupted at a pair of image weight -1 (its label has
    # weight 1) is kept out only by the pair loop's 0..cap filter, as are
    # the rows above the cap
    action = _actions()[name]
    action.V.corrupt((1,), 2, (1,), (1,), 1)
    assert action.V.row((1,), 2, (1,)) == {(1,): 1}
    u = GradedVector({(1,): Fraction(1, 2), (2,): -1, (1, 1): 3})
    w = GradedVector({(): Fraction(2, 3), (1,): -2, (2, 1): 1})
    if isinstance(action, contra.DirectSumMap):
        u, w = u + contra.in_module(w), w + contra.in_module(u)
    pairs = label_pairs(u.coeff, w.coeff)
    nonzero, types = 0, set()
    for n in range(-5, 5):
        for cap in (LEVEL - 1, LEVEL, LEVEL + 2):
            got = apply_pairs(action.row, pairs, n, cap)
            want = action.act(u, n, w, cap).coeff
            assert {lab: (type(c), c) for lab, c in got.items()} == \
                {lab: (type(c), c) for lab, c in want.items()}, (n, cap)
            nonzero += bool(want)
            types |= set(map(type, want.values()))
    assert nonzero > 10 and types == {int, Fraction}


def test_lowered_level_clips_at_that_level():
    # each action clips at its own level, not at its algebra's: lowering
    # the level cuts the images of the top weight, and nothing else
    for name, action in _actions().items():
        cut = 0
        action.level = LEVEL - 1
        for lu, n, lv in _samples(action, LEVEL):
            row = action.row(lu, n, lv)
            got = action.act(B(lu), n, B(lv)).coeff
            assert got == _clipped(row, LEVEL - 1), (name, lu, n, lv)
            cut += got != _clipped(row, LEVEL)
        assert cut, name


def test_corrupted_intertwiner_entry_changes_act_and_fails():
    V = build_heisenberg(LEVEL)
    I = fusion.intertwiner_from_algebra(V)
    key = ((1,), 1, (1, 1))
    clean = I.act(B(key[0]), key[1], B(key[2]))
    lab = min(I.modes[key])
    I.modes[key] = {**I.modes[key], lab: I.modes[key][lab] + 1}
    assert I.act(B(key[0]), key[1], B(key[2])) != clean
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    assert any(r.failed for r in fusion.check_intertwiner([I], win)[0])
