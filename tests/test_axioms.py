import functools
import hashlib
import itertools
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from voacalc import axioms, cli, contragredient as contra, fusion
from voacalc.exact import binom
from voacalc.fock import GradedVector, build_heisenberg, partitions
from voacalc.reports import Status, diff_labels, fmt_label, fmt_vec
from voacalc.series import Window, check_delta_identity, delta_expansion


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
        acts = axioms.JacobiActions.uniform(V)

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

    def test_reused_plan_sees_a_corruption_between_calls(self):
        # two consecutive checks of one weight signature share one cached
        # plan; the second, after a constant is corrupted, must fail. A
        # plan that also kept product values would pass it
        u, v, w = B((2,)), B((1,)), B((1,))
        caught = None
        for key in sorted(_touched(u, v, w)):
            fresh = build_heisenberg(6)
            lab = min(fresh.mode_basis(*key))
            fresh.corrupt(*key, lab, 1)
            if axioms.check_jacobi(fresh, u, v, w, WIN2).failed:
                caught = key + (lab,)
                break
        assert caught is not None
        V = build_heisenberg(6)
        assert axioms.check_jacobi(V, u, v, w, WIN2).passed
        V.corrupt(*caught, 1)
        try:
            rep, hits, built = _plan_hits(
                lambda: axioms.check_jacobi(V, u, v, w, WIN2))
        finally:
            V.clear_corruptions()
        assert rep.failed and rep.diffs
        assert (hits, built) == (1, 0)

    def test_linearity_in_each_slot(self, V):
        u = B((1,)).scale(Fraction(1, 2)) + B((2,))
        rep = axioms.check_jacobi(V, u, B((1,)), V.vacuum, WIN2)
        assert rep.passed


def _touched(u, v, w):
    """The nonzero structure-constant keys a level-6 jacobi check of
    (u, v, w) on WIN2 reads."""
    V = build_heisenberg(6)
    axioms.check_jacobi(V, u, v, w, WIN2)
    return [k for k in V.touched_mode_keys() if V.mode_basis(*k)]


def test_failing_records_hold_exact_coefficients():
    # the plans' signs (-1)^a, (-1)^c for negative exponents and the
    # engine's sums, which start from int 0, must stay exact: a float would
    # compare equal and pass unnoticed
    u, v, w = B((2,)), B((1,)), B((1,))
    keys = _touched(u, v, w)
    reports = []
    for check in (axioms.check_jacobi, axioms.check_translate_skew,
                  lambda V, *args: contra.check_contragredient_jacobi(
                      contra.ContragredientModule(V), *args)):
        V = build_heisenberg(6)
        for key in keys:
            V.corrupt(*key, min(V.mode_basis(*key)), 1)
        reports.append(check(V, u, v, w, WIN3))
    # a stored intertwiner, its modes moved at the same keys
    I = fusion.intertwiner_from_algebra(build_heisenberg(3))
    for key in keys:
        if I.modes.get(key):
            lab = min(I.modes[key])
            I.modes[key] = {**I.modes[key], lab: I.modes[key][lab] + 1}
    reports.append(fusion.check_intertwiner([I], WIN2)[0][-1])
    assert [r.identity for r in reports] == [
        "jacobi", "translate-skew-rewrite", "dual-jacobi",
        "intertwiner-jacobi"]
    for rep in reports:
        assert rep.failed and rep.diffs, rep.identity
        assert {type(x) for _, *vals in rep.diffs for x in vals} <= \
            {int, Fraction}


def _own_row(top, sign, length):
    """binom(top(k), k) sign^k for k < length by the falling product, not
    exact.binom, ending before the first 0."""
    row = []
    for k in range(length):
        c = Fraction(sign) ** k
        for i in range(k):
            c = c * (top(k) - i) / (i + 1)
        if not c:
            break
        row.append(c)
    return row


def test_expansion_rows_are_delta_coefficients(V, monkeypatch):
    # the engine's rows against the test's own binomial loop, for both
    # signs and on asymmetric windows: binom(-a-1, k) sign^k for each x0
    # exponent a, binom(b+k, k) sign^k for each x1 exponent b, as ints
    windows = (Window.of(x0=(-4, 2), x1=(-1, 5), x2=(0, 3)),
               Window.of(x0=(1, 4), x1=(-6, -2), x2=(-2, 2)))
    for win, sign, (k_prod, k_iter) in itertools.product(
            windows, (-1, 1), ((7, 5), (3, 9))):
        prod, iterate = axioms._expansion_rows(win, k_prod, k_iter, sign)
        assert [a for a, _ in prod] == list(range(win.lo("x0"),
                                                  win.hi("x0") + 1))
        assert [b for b, _ in iterate] == list(range(win.lo("x1"),
                                                     win.hi("x1") + 1))
        for a, row in prod:
            assert list(row) == _own_row(lambda k: -a - 1, sign, k_prod)
            assert all(type(c) is int for c in row)
        for b, row in iterate:
            assert list(row) == _own_row(lambda k: b + k, sign, k_iter)
            assert all(type(c) is int for c in row)
    # a mutation of the rows alone (here: the sign^k factor dropped) fails
    # a jacobi record
    real = axioms._expansion_rows

    def unsigned(win, k_prod, k_iter, sign):
        return real(win, k_prod, k_iter, 1)

    u, v, w = B((1,)), B((1,)), B((1,))
    assert axioms.check_jacobi(V, u, v, w, WIN2).passed
    monkeypatch.setattr(axioms, "_expansion_rows", unsigned)
    assert axioms.check_jacobi(V, u, v, w, WIN2).failed


UNSIGNED_ROWS_SCRIPT = """
from voacalc import axioms
from voacalc.fock import GradedVector, build_heisenberg
from voacalc.series import Window, check_delta_identity
win4, win2 = (Window.symmetric(("x0", "x1", "x2"), n) for n in (4, 2))
a = GradedVector.basis((1,))
print(len(check_delta_identity("two-term", None, win4).diffs),
      len(check_delta_identity("three-term", None, win4).diffs),
      axioms.check_jacobi(build_heisenberg(6), a, a, a, win2).status.value)
"""


def test_unsigned_delta_rows_fail_delta_and_jacobi(tmp_path):
    # negative control: drop sign^k where series.delta_rows defines it, in a
    # copy of the package; the one patch fails both delta records, which
    # therefore check the rows the jacobi verdicts read, and a jacobi record
    pkg = tmp_path / "voacalc"
    shutil.copytree(Path(axioms.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    text = (pkg / "series.py").read_text()
    assert text.count(" * sign ** k") == 1
    (pkg / "series.py").write_text(text.replace(" * sign ** k", ""))
    proc = subprocess.run([sys.executable, "-c", UNSIGNED_ROWS_SCRIPT],
                          cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8", "18", "fail"]
    win = Window.symmetric(("x0", "x1", "x2"), 4)
    assert check_delta_identity("two-term", None, win).passed
    assert check_delta_identity("three-term", None, win).passed


# -- failing paths, pinned ------------------------------------------------
# each digest is of the failing records' record() and repr(diffs): where a
# check reports a fault, in what order, with what values and types


def failing_digest(reports) -> tuple[int, str]:
    failed = [r for r in reports if r.failed]
    text = "".join(r.record() + repr(r.diffs) + "\n" for r in failed)
    return len(failed), hashlib.sha256(text.encode()).hexdigest()


def seeded_corruptions(seed: int, count: int, level: int,
                       ops: tuple = ()) -> list:
    """``count`` structure constants (lu, n, lv, label, delta), drawn from
    ``random.Random(seed)``, lu among ``ops`` if given, each with its label
    at its true image weight, in 0..level."""
    rng = random.Random(seed)
    labels = build_heisenberg(level).basis_upto()
    out = []
    for _ in range(count):
        lu, lv = rng.choice(ops or labels[1:]), rng.choice(labels)
        target = rng.randint(0, level)
        out.append((lu, sum(lu) + sum(lv) - target - 1, lv,
                    rng.choice(partitions(target)), rng.choice((-1, 1))))
    return out


def test_skew_records_under_seeded_corruptions_are_pinned():
    # skew-symmetry and the iterate rewrite of the s3 suite at level 5, on
    # three algebras with twelve seeded corrupted constants each
    cfg = cli.SuiteConfig(level=5)
    reps = []
    for seed in range(3):
        V = build_heisenberg(5)
        for corruption in seeded_corruptions(seed, 12, 5):
            V.corrupt(*corruption)
        reps += cli._skew_reports(V, cfg)
        reps += [r for r in cli.s3_suite(cfg, lambda level: V)
                 if r.identity == "iterate-skew-rewrite"]
    assert failing_digest(reps) == (20, "937258877df0270816cb90d152a6d9bc"
                                        "d6992177d078157b2a1e49c2bd5ad61a")


class TestSkewSymmetry:
    def test_vacuum_pair(self, V):
        assert axioms.check_skew_symmetry(V, V.vacuum, V.vacuum, 4).passed

    def test_examples(self, V):
        assert axioms.check_skew_symmetry(V, B((1,)), V.omega, 6).passed
        assert axioms.check_skew_symmetry(V, V.omega, V.omega, 6).passed

    def test_all_pairs_in_budget(self, V):
        for lu in V.basis_upto(3):
            for lv in V.basis_upto(3):
                rep = axioms.check_skew_symmetry(V, B(lu), B(lv), 4)
                assert rep.passed, (lu, lv)


class TestCommutators:
    def test_vacuum(self, V):
        for rep in axioms.check_commutators(V, [V.vacuum],
                                            Window.of(x=(-7, 7))):
            assert rep.passed

    def test_oscillator_and_conformal(self, V):
        reps = axioms.check_commutators(V, [B((1,)), V.omega, B((2, 1))],
                                        Window.of(x=(-7, 7)))
        assert len(reps) == 9
        for rep in reps:
            assert not rep.failed

    def test_a_corrupted_constant_fails_the_brackets(self):
        # negative control: a(0) a(-2)|0> corrupted to read a(-1)|0> breaks
        # all three formulas at v = [1] and L(1)'s at v = [2]
        from voacalc import cli
        V = build_heisenberg(4)
        cfg = cli.SuiteConfig(level=4)
        assert not any(r.failed for r in cli._commutator_reports(V, cfg))
        V.corrupt((1,), 0, (2,), (1,), 1)
        failed = [(r.identity, r.params, len(r.diffs))
                  for r in cli._commutator_reports(V, cfg) if r.failed]
        assert failed == [("bracket-L(-1)", "v=[1];win=5", 2),
                          ("bracket-L(0)", "v=[1];win=5", 1),
                          ("bracket-L(1)", "v=[1];win=5", 2),
                          ("bracket-L(1)", "v=[2];win=5", 1)]


class TestConjugation:
    def test_all_identities_low_weight(self, V):
        for lab in V.basis_upto(3):
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

    def test_l0_conjugations_read_l0(self):
        # negative control: a corrupted constant of 2 omega makes L(0) read
        # 4 on [2,1]; both e^{xL(0)} identities read L(0) through the
        # algebra, so both must fail
        V = build_heisenberg(5)
        v = B((2, 1))
        names = ("conj-exp-L0-with-L(-1)", "conj-exp-L0-with-L(1)")
        reps = {r.identity: r for r in axioms.check_conjugation(V, v, 3)}
        assert all(reps[n].passed for n in names)
        V.corrupt((1, 1), 1, (2, 1), (2, 1), 2)
        assert V.virasoro(0, v) == v.scale(4)
        reps = {r.identity: r for r in axioms.check_conjugation(V, v, 3)}
        assert all(reps[n].failed for n in names)


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


# -- oracle for the three-term engine ---------------------------------------
#
# A naive evaluator: every product is recomputed from scratch at every
# window position, the keys of each position taken term by term in
# expansion order. Under the engine's contract, exactness is decided before
# any product is computed: a scan over the same keys skips at the first
# inner image above the level that the outer mode can see and that is truly
# nonzero. Full reports (status, note, ordered diffs) must agree with the
# engine's.


def _naive_product(outer, x, inner, y, z, iterate, kron, note, i, j):
    if y.weight() + z.weight() - j - 1 > inner.level:
        return {}
    img = inner.act(y, j, z)
    if not img:
        return {}
    return (outer.act(img, i, x) if iterate else outer.act(x, i, img)).coeff


def _naive_keys(win, weight, level):
    return [(a, b, c) for a in range(win.lo("x0"), win.hi("x0") + 1)
            for b in range(win.lo("x1"), win.hi("x1") + 1)
            for c in range(win.lo("x2"), win.hi("x2") + 1)
            if 0 <= weight + a + b + c + 1 <= level]


def _naive_report(win, weight, level, terms):
    """terms(a, b, c) yields (side, term, i, j, coefficient) in key order;
    side 0 is the left-hand side."""
    keys = _naive_keys(win, weight, level)
    for pos in keys:
        for _, term, i, j, _ in terms(*pos):
            _, _, inner, y, z, _, kron, note = term
            iw = y.weight() + z.weight() - j - 1
            if iw > inner.level and (kron is None or i == kron) \
                    and inner.true_nonzero(y, j, z):
                return Status.SKIPPED, f"{note} weight {iw} at {pos}", []
    diffs = []
    for pos in keys:
        sides = ({}, {})
        for side, term, i, j, co in terms(*pos):
            acc = sides[side]
            for label, x in _naive_product(*term, i, j).items():
                acc[label] = acc.get(label, 0) + co * x
        lhs, rhs = sides
        for label in sorted(set(lhs) | set(rhs)):
            lc, rc = lhs.get(label, 0), rhs.get(label, 0)
            if lc != rc:
                diffs.append((pos + (label,), lc, rc))
    return (Status.FAIL if diffs else Status.PASS), "", diffs


def _naive_three_term(p, q, t, win, acts):
    level = min(acts.out1.level, acts.out2.level, acts.out3.level)
    return _naive_report(win, p.weight() + q.weight() + t.weight(), level,
                         _naive_three_terms(p, q, t, acts))


def _naive_three_terms(p, q, t, acts):
    pw, qw, tw = p.weight(), q.weight(), t.weight()
    first = (acts.out1, p, acts.in1, q, t, False, acts.out1.kron(p),
             "product-inner")
    second = (acts.out2, q, acts.in2, p, t, False, acts.out2.kron(q),
              "product-inner")
    third = (acts.out3, t, acts.iterate, p, q, True, None, "iterate-inner")

    def terms(a, b, c):
        for k in range(qw + tw + c + 1):
            co = binom(-a - 1, k) * (-1) ** k
            if co:
                yield 0, first, -(a + b + k + 2), k - c - 1, co
        for k in range(pw + tw + b + 1):
            co = binom(-a - 1, k) * (-1) ** k
            if co:
                yield (0, second, -(a + c + k + 2), k - b - 1,
                       co * (-1) ** (a % 2))
        for k in range(pw + qw + a + 1):
            co = binom(b + k, k) * (-1) ** k
            if co:
                yield 1, third, -(b + c + k + 2), k - a - 1, co

    return terms


def _naive_translate_skew(V, u, v, w, win):
    wu, wv, ww = u.weight(), v.weight(), w.weight()
    term_a = (V, u, V, w, v, False, V.kron(u), "inner")
    term_b = (V, v, V, u, w, True, None, "iterate")
    term_c = (V, w, V, u, v, False, V.kron(w), "inner")

    def terms(a, b, c):
        # the two expansions of term a as a double sum over (k1, k2)
        for k1 in range(ww + wv + c + 1):
            c1 = binom(-a - 1, k1) * (-1) ** k1
            if not c1:
                continue
            for k2 in range(ww + wv + c - k1 + 1):
                r = -(a + b + k1 + k2 + 2)
                c2 = binom(-r - 1, k2) * (-1) ** k2
                if c2:
                    s = k1 + k2 - c - 1
                    yield 0, term_a, r, s, c1 * c2 * (-1) ** ((s + 1) % 2)
        sign = 1 if a % 2 else -1
        for k in range(wu + ww + b + 1):
            co = binom(-a - 1, k) * (-1) ** k
            if co:
                yield (0, term_b, -(a + c + k + 2), k - b - 1,
                       -sign * co * (-1) ** ((a + c + k + 1) % 2))
        for k in range(wu + wv + a + 1):
            co = binom(b + k, k) * (-1) ** k
            if co:
                yield (1, term_c, -(b + c + k + 2), k - a - 1,
                       co * (-1) ** ((b + c + k + 1) % 2))

    return _naive_report(win, wu + wv + ww, V.level, terms)


ORACLE_LEVEL = 4


@st.composite
def _oracle_cases(draw):
    """A homogeneous triple (weights up to the level, small integer
    combinations of basis vectors), a window with independent bounds per
    variable, and whether to corrupt one structure constant."""
    vecs = [_oracle_vector(draw, draw(st.sampled_from(ORACLE_WEIGHTS)))
            for _ in range(3)]
    return vecs, _oracle_window(draw), draw(st.booleans()), draw(
        st.integers(0, 1 << 20))


ORACLE_WEIGHTS = (0, 1, 1, 2, 2, 3, ORACLE_LEVEL)


def _oracle_vector(draw, wt):
    """A small combination of basis vectors of weight wt; a coefficient may
    be a Fraction, 1/2 or a Fraction equal to 1."""
    labels = draw(st.lists(st.sampled_from(partitions(wt)), min_size=1,
                           max_size=2, unique=True))
    vec = GradedVector()
    for lab in labels:
        vec = vec + B(lab).scale(draw(st.sampled_from(
            (1, -2, 3, Fraction(1, 2), Fraction(1)))))
    return vec


def _oracle_window(draw):
    bounds = {}
    for var in ("x0", "x1", "x2"):
        lo = draw(st.integers(-3, 1))
        bounds[var] = (lo, lo + draw(st.integers(0, 3)))
    return Window.of(**bounds)


def _corrupted_algebra(corrupt: bool, pick: int, warm):
    """A fresh algebra; with ``corrupt``, one structure constant that
    ``warm(V)`` reads is moved by +1."""
    V = build_heisenberg(ORACLE_LEVEL)
    if corrupt:
        warm(V)
        keys = sorted(k for k in V.touched_mode_keys() if V.mode_basis(*k))
        if keys:
            key = keys[pick % len(keys)]
            labels = sorted(V.mode_basis(*key))
            V.corrupt(*key, labels[pick % len(labels)], 1)
    return V


def _engine(rep):
    return rep.status, rep.note, rep.diffs


def _typed_report(report):
    """A (status, note, diffs) report with each diff's value types, as the
    oracles compare it: a Fraction equal to an int is not that int."""
    status, note, diffs = report
    return status, note, _typed(diffs)


class _Named(tuple):
    """The outer label of a one-pair list, carrying the list's name as
    ``op`` and ``vec``: the engine reads such a pair's row directly."""


def _recorded(actions, check, others=()):
    """check() and the images, products and loss tests it computed on each
    of the actions, in order and with repeats, as (action, op, n, vec,
    ceiling): the act calls, the engine's own calls of the pair loop
    ``fock.apply_pairs``, and its direct reads of the row of a one-pair
    list. A pair list is named by the vectors it was formed from, as pairs
    alone do not tell 6[3]_n [2,1] from [3]_n 6[2,1]; a one-pair list
    carries its name on its outer label, so a read is named by the list it
    came from. The pair loop's ceiling, and a direct read's, is the
    action's level, recorded as None, as for an act call naming none. A
    read nested in a recorded act, pair loop or row call is not recorded.
    The rows of ``others`` are wrapped too, unrecorded, so that no named
    label reaches a row unwrapped."""
    # formed: id(pairs) -> (pairs, op, vec), holding each list so that no
    # other list takes its id during the check
    calls, formed, depth = [], {}, 0

    def inside(fn, *args):
        nonlocal depth
        depth += 1
        try:
            return fn(*args)
        finally:
            depth -= 1

    def recording(action):
        act = action.act

        def record(op, n, vec, ceiling=None):
            calls.append((id(action), fmt_vec(op), n, fmt_vec(vec), ceiling))
            return inside(act, op, n, vec, ceiling)
        return record

    def reading(action):
        row = action.row

        def read(lu, n, lv):
            if type(lu) is _Named:
                if not depth and id(action) in ids:
                    calls.append((id(action), lu.op, n, lu.vec, None))
                lu = tuple(lu)
            return inside(row, lu, n, lv)
        read.__self__ = action
        return read

    actions = list(dict.fromkeys(actions))
    ids = set(map(id, actions))
    wrapped = list(dict.fromkeys([*actions, *others]))
    pairs, apply = axioms.label_pairs, axioms.apply_pairs

    def pairs_recorded(op, vec):
        out = pairs(op, vec)
        name = fmt_vec(GradedVector(op)), fmt_vec(GradedVector(vec))
        formed[id(out)] = (out, *name)
        if len(out) == 1:
            (lu, lv, base, c), = out
            named = _Named(lu)
            named.op, named.vec = name
            out[0] = (named, lv, base, c)
        return out

    def apply_recorded(row, got, n, cap):
        action = row.__self__
        if id(action) in ids:
            _, op, vec = formed[id(got)]
            calls.append((id(action), op, n, vec,
                          None if cap == action.level else cap))
        return inside(apply, row, got, n, cap)

    for action in actions:
        action.act = recording(action)
    for action in wrapped:
        action.row = reading(action)
    axioms.label_pairs, axioms.apply_pairs = pairs_recorded, apply_recorded
    try:
        return check(), calls
    finally:
        axioms.label_pairs, axioms.apply_pairs = pairs, apply
        for action in actions:
            del action.act
        for action in wrapped:
            del action.row


def _distinct(V, check, acts=None):
    """check() and the set of distinct images, products and loss tests it
    computed on V; the rows of the other actions in ``acts`` are wrapped,
    unrecorded."""
    out, calls = _recorded([V], check, vars(acts).values() if acts else ())
    return out, set(calls)


def _actions(V, slot, moved=None):
    """The actions of one slot kind. For the intertwiner, ``moved`` =
    (q, t, pick) adds 1 to one stored mode q_j t."""
    if slot == "algebra":
        return axioms.JacobiActions.uniform(V)
    if slot == "dual":
        Mp = contra.ContragredientModule(V)
        return axioms.JacobiActions(out1=Mp, in1=Mp, out2=Mp, in2=Mp,
                                    iterate=V, out3=Mp)
    I = fusion.intertwiner_from_algebra(V)
    if moved is not None:
        q, t, pick = moved
        keys = sorted(k for k in I.modes if k[0] in q.coeff
                      and k[2] in t.coeff)
        if keys:
            key = keys[pick % len(keys)]
            lab = min(I.modes[key])
            I.modes[key] = {**I.modes[key], lab: I.modes[key][lab] + 1}
    return axioms.JacobiActions(out1=I.m3, in1=I, out2=I,
                                in2=I.m2, iterate=I.m1, out3=I)


@pytest.mark.parametrize("slot", ["algebra", "dual", "intertwiner"])
@settings(max_examples=40, deadline=None)
@given(case=_oracle_cases())
def test_three_term_engine_matches_naive_evaluator(slot, case):
    (p, q, t), win, corrupt, pick = case
    if slot == "intertwiner":
        # the stored modes, not the algebra, carry the corruption
        acts = _actions(build_heisenberg(ORACLE_LEVEL), slot,
                        (q, t, pick) if corrupt else None)
    else:
        V = _corrupted_algebra(corrupt, pick, lambda V: _naive_three_term(
            p, q, t, win, _actions(V, slot)))
        acts = _actions(V, slot)
    if slot != "algebra":
        got = axioms.three_term_check(p, q, t, win, acts, "jacobi", "-")
        assert _typed_report(_engine(got)) == _typed_report(
            _naive_three_term(p, q, t, win, acts))
        return
    # the engine computes each product once, and no other products
    got, calls = _distinct(V, lambda: axioms.three_term_check(
        p, q, t, win, acts, "jacobi", "-"))
    assert (_typed_report(_engine(got)), calls) == _distinct(
        V, lambda: _typed_report(_naive_three_term(p, q, t, win, acts)))


@settings(max_examples=60, deadline=None)
@given(case=_oracle_cases())
def test_translate_skew_matches_naive_evaluator(case):
    (u, v, w), win, corrupt, pick = case
    V = _corrupted_algebra(corrupt, pick, lambda V: _naive_translate_skew(
        V, u, v, w, win))
    got, calls = _distinct(V, lambda: axioms.check_translate_skew(
        V, u, v, w, win))
    assert (_typed_report(_engine(got)), calls) == _distinct(
        V, lambda: _typed_report(_naive_translate_skew(V, u, v, w, win)))


# One fixed failing check per slot: (omega, [1], [1]) at level 6 on WIN2,
# omega bringing in the Fraction 1/2, with one structure constant (the
# algebra's, the dual's through its algebra, or a stored mode) moved by +1.
# Each case's diffs span several positions with several labels at some,
# and at a diffed coefficient one side's contributions cancel to 0.
FAILING_CASES = {"algebra": (((1,), -1, (1,)), (1, 1)),
                 "dual": (((1,), -1, ()), (1,)),
                 "intertwiner": (((1,), 1, (1,)), ())}


# The same check with p = 2 omega, whose coefficient is Fraction(1): an
# image or a product read off one label pair must take c's type, as the
# pair loop's c * m does, though Fraction(1) == 1.
@pytest.mark.parametrize("slot", FAILING_CASES)
def test_fraction_one_coefficient_matches_naive_evaluator(slot):
    V, acts = _failing_actions(slot)
    p, q, t = V.omega.scale(2), B((1,)), B((1,))
    assert [type(c) for c in p.coeff.values()] == [Fraction]
    got = _engine(axioms.three_term_check(p, q, t, WIN2, acts, "jacobi", "-"))
    want = _naive_three_term(p, q, t, WIN2, acts)
    assert got[:2] == want[:2] == (Status.FAIL, "")
    assert _typed(got[2]) == _typed(want[2])
    # the Fraction(1) reaches diffs of integral value
    assert any(type(x) is Fraction and x.denominator == 1
               for _, *vals in want[2] for x in vals)


def _zeroed_intertwiner(key, lab):
    """The algebra's self-type intertwiner at ORACLE_LEVEL with the stored
    coefficient of lab in mode key set to an explicit 0, and its actions."""
    I = fusion.intertwiner_from_algebra(build_heisenberg(ORACLE_LEVEL))
    I.modes[key] = {**I.modes[key], lab: 0}
    return I, axioms.JacobiActions(out1=I.m3, in1=I, out2=I, in2=I.m2,
                                   iterate=I.m1, out3=I)


def test_one_pair_images_are_the_pair_loops():
    # an image y_j z of one label pair is read off its row as the pair loop
    # sums it: c's type is kept, and a stored explicit 0 is dropped
    I, _ = _zeroed_intertwiner(((1,), -1, (1,)), (2,))
    x, z = B((2,)) + B((1, 1)).scale(Fraction(1, 2)), B((1,))
    for y, iterate, j in itertools.product(
            (B((1,)), B((1,)).scale(Fraction(1)), B((1,)).scale(-2)),
            (False, True), range(-3, 2)):
        term = axioms._Term(I, x, I, y, z, 2, iterate, None, "-")
        img = axioms.apply_pairs(I.row, axioms.label_pairs(y.coeff, z.coeff),
                                 j, I.level) if 0 <= 1 - j <= I.level else {}
        want = (axioms.label_pairs(img, x.coeff) if iterate
                else axioms.label_pairs(x.coeff, img))
        assert [(*pair, type(pair[3])) for pair in term.image_pairs(j)] \
            == [(*pair, type(pair[3])) for pair in want]


def test_explicit_zero_in_a_stored_row_matches_naive_evaluator():
    # a product read off one label pair drops the 0 the pair loop drops:
    # scattered, c * 0 = Fraction(0) would make an int diff a Fraction
    _, acts = _zeroed_intertwiner(((1, 1), 0, (1,)), (2,))
    p, q, t = B((1,)), B((1,)), B((1,)).scale(Fraction(1, 2))
    got = _engine(axioms.three_term_check(p, q, t, WIN2, acts, "jacobi", "-"))
    want = _naive_three_term(p, q, t, WIN2, acts)
    assert got[:2] == want[:2] == (Status.FAIL, "")
    assert _typed(got[2]) == _typed(want[2])


def _failing_actions(slot):
    V = build_heisenberg(6)
    key, lab = FAILING_CASES[slot]
    if slot != "intertwiner":
        V.corrupt(*key, lab, 1)
        return V, _actions(V, slot)
    acts = _actions(V, slot)
    modes = acts.in1.modes
    modes[key] = {**modes[key], lab: modes[key][lab] + 1}
    return V, acts


def _cancelled(win, weight, level, terms):
    """The (position + (label,), side) at which two or more nonzero
    contributions of the naive sweep sum to 0."""
    out = set()
    for pos in _naive_keys(win, weight, level):
        parts = ({}, {})
        for side, term, i, j, co in terms(*pos):
            for label, x in _naive_product(*term, i, j).items():
                if co * x:
                    parts[side].setdefault(label, []).append(co * x)
        out |= {(pos + (label,), side) for side in (0, 1)
                for label, xs in parts[side].items()
                if len(xs) > 1 and not sum(xs)}
    return out


def _typed(diffs):
    return [(where, type(lc), lc, type(rc), rc) for where, lc, rc in diffs]


@pytest.mark.parametrize("slot", ["algebra", "dual", "intertwiner"])
def test_failing_check_matches_naive_evaluator_exactly(slot):
    V, acts = _failing_actions(slot)
    p, q, t = V.omega, B((1,)), B((1,))
    got = _engine(axioms.three_term_check(p, q, t, WIN2, acts, "jacobi", "-"))
    want = _naive_three_term(p, q, t, WIN2, acts)
    assert got[:2] == want[:2] == (Status.FAIL, "")
    assert _typed(got[2]) == _typed(want[2])
    # the case reaches what the scatter and the diff assembly must get
    # right: many positions, several labels at one, Fraction coefficients
    # and a diffed coefficient whose side cancelled to 0
    diffs = want[2]
    labels_at = {}
    for where, _, _ in diffs:
        labels_at.setdefault(where[:3], []).append(where[3])
    assert len(labels_at) >= 3 and max(map(len, labels_at.values())) >= 2
    assert Fraction in {type(x) for _, *vals in diffs for x in vals}
    cancelled = _cancelled(WIN2, 4, 6, _naive_three_terms(p, q, t, acts))
    assert any((where, side) in cancelled and not (lc, rc)[side]
               for where, lc, rc in diffs for side in (0, 1))
    # negative control: the same diffs sorted by (label, position) differ
    assert sorted(diffs, key=lambda d: (d[0][3], d[0][:3])) != diffs


def test_mixed_weights_split_into_component_triples():
    # every suite hands the engine homogeneous triples; a mixed one is
    # checked as its homogeneous component triples, in weight order
    V = build_heisenberg(6)
    acts = axioms.JacobiActions.uniform(V)

    def parts(p, q, t, win):
        return [axioms.three_term_check(p.component(a), q.component(b),
                                        t.component(c), win, acts, "jacobi",
                                        "-")
                for a, b, c in itertools.product(
                    sorted(p.weights()), sorted(q.weights()),
                    sorted(t.weights()))]

    # the failing report is the merge of the components' diffs, in order
    V.corrupt(*FAILING_CASES["algebra"][0], FAILING_CASES["algebra"][1], 1)
    p, q, t = V.omega + B((1,)), B((1,)) + B((2,)), B((1,)) + V.vacuum
    comps = parts(p, q, t, WIN2)
    assert len(comps) == 8 and not any(r.status is Status.SKIPPED
                                       for r in comps)
    assert sum(r.failed for r in comps) > 1 and any(r.passed for r in comps)
    rep = axioms.three_term_check(p, q, t, WIN2, acts, "jacobi", "-")
    assert (rep.identity, rep.params) == ("jacobi", "-") and rep.failed
    assert rep.diffs == [d for r in comps for d in r.diffs]
    V.clear_corruptions()

    # one skipped component skips the whole check, with its report
    p, q, t = V.omega + B((1,)), B((1,)), V.omega
    first, second = parts(p, q, t, WIN3)
    assert first.passed and second.status is Status.SKIPPED
    assert axioms.three_term_check(p, q, t, WIN3, acts, "jacobi",
                                   "-") == second

    # a zero operand is refused as GradedVector.weight refuses it
    for zero in range(3):
        triple = [B((1,)), B((2,)), B((1,))]
        triple[zero] = GradedVector()
        with pytest.raises(ValueError) as err:
            axioms.three_term_check(*triple, WIN2, acts, "jacobi", "-")
        assert str(err.value) == "vector is not homogeneous: weights []"


def test_a_skipped_check_computes_no_product():
    # exactness is decided before any product is computed: this check is
    # skipped at its first lost inner image, so its only act calls are
    # loss tests, each with an explicit ceiling
    V = build_heisenberg(4)
    rep, calls = _recorded([V], lambda: axioms.check_jacobi(
        V, B((1,)), B((1,)), B((2,)), WIN2))
    assert rep.status is Status.SKIPPED
    assert rep.note == "product-inner weight 5 at (-2, -2, 2)"
    assert calls and all(ceiling is not None for *_, ceiling in calls)


def test_each_inner_image_is_loss_tested_once(monkeypatch):
    # the outer mode index does not change whether y_j z is lost, so one
    # check asks true_nonzero once per term and inner index j
    asked = []
    real = axioms.VOAAction.true_nonzero

    def recording(self, op, n, vec):
        asked.append((fmt_vec(op), n, fmt_vec(vec)))
        return real(self, op, n, vec)

    monkeypatch.setattr(axioms.VOAAction, "true_nonzero", recording)
    V = build_heisenberg(4)
    assert axioms.check_jacobi(V, V.vacuum, B((3,)), V.vacuum, WIN2).passed
    assert asked and len(asked) == len(set(asked))


@pytest.mark.parametrize("slot", ["algebra", "dual", "intertwiner"])
def test_one_check_never_repeats_an_apply_mode_call(slot):
    # each inner image y_j z and each product is computed once per check:
    # the calls of every action of the slot are kept as a list, so a
    # repeat shows. The triples are pairwise distinct and of positive
    # weight, so no two terms share an image or a product. A first,
    # unrecorded run warms the dual's memo, whose L(1) lowerings are algebra
    # calls of their own: that of [3] is the iterate image [1,1]_2 [3]
    nonvacuum = [B(lab) for wt in (1, 2, 3) for lab in partitions(wt)]
    for p, q, t in itertools.permutations(nonvacuum, 3):
        V = build_heisenberg(ORACLE_LEVEL)
        acts = _actions(V, slot)

        def check():
            return axioms.three_term_check(p, q, t, WIN2, acts, "jacobi", "-")

        check()
        got, calls = _recorded(vars(acts).values(), check)
        assert got.status is not Status.FAIL, (p, q, t)
        assert calls and len(calls) == len(set(calls)), (p, q, t)


def test_skip_note_names_the_first_product_the_vacuum_sees(monkeypatch):
    # p is a vacuum multiple, so it acts at outer index -1 only (kron = -1);
    # with the inner actions clipped below the outer ones, an image q_j t
    # above the inner level can reach the observed range. In the group of
    # the lost image the first product in plan order has i != -1, so the
    # loss test is ordered, and the note placed, by a later product
    outer, inner = (build_heisenberg(L) for L in (2, 1))
    acts = axioms.JacobiActions(out1=outer, in1=inner, out2=outer,
                                in2=inner, iterate=inner, out3=outer)
    p, q, t = B(()).scale(2), B((1, 1)), B((3,))
    assert outer.kron(p) == -1
    rows = axioms._expansion_rows(WIN2, 8, 8, -1)
    positions, groups = axioms._plan(axioms._jacobi_layout, 5, WIN2, 2, rows)
    first, *_ = groups[(0, 2)]   # q_2 t, of weight 2 above the inner level 1
    assert first[1] != -1 and positions[first[3]] != (-2, 0, -2)
    asked = []
    real = axioms.VOAAction.true_nonzero

    def recording(self, op, n, vec):
        asked.append((fmt_vec(op), n, fmt_vec(vec)))
        return real(self, op, n, vec)

    monkeypatch.setattr(axioms.VOAAction, "true_nonzero", recording)
    got = axioms.three_term_check(p, q, t, WIN2, acts, "jacobi", "-")
    engine_asked, asked[:] = asked[:], []
    assert _engine(got) == _naive_three_term(p, q, t, WIN2, acts)
    assert got.note == "product-inner weight 2 at (-2, 0, -2)"
    # the naive evaluator asks again at every product; the engine asks
    # once per image, in the order the naive evaluator first asks
    assert engine_asked == list(dict.fromkeys(asked))
    assert engine_asked == [("2*[]", 0, "[3]"), ("[1,1]", 2, "[3]")]


# -- plans kept across calls --------------------------------------------------
#
# A plan depends on its key (layout, total weight, window, observable
# level, expansion rows) only, so consecutive checks of one weight
# signature share it, whatever their vectors, actions or structure
# constants.


def _plan_hits(check):
    """check() and the numbers of cached plans it reused and built."""
    caches = axioms._PLANS.values()
    before = [c.cache_info() for c in caches]
    out = check()
    after = [c.cache_info() for c in caches]
    return (out, sum(a.hits - b.hits for a, b in zip(after, before)),
            sum(a.misses - b.misses for a, b in zip(after, before)))


@pytest.mark.parametrize("slot", ["dual", "intertwiner"])
def test_plan_warmed_by_the_algebra_serves_other_actions(slot):
    p, q, t = B((1,)), B((1,)), B((1,))
    V = build_heisenberg(ORACLE_LEVEL)
    assert axioms.three_term_check(p, q, t, WIN2, _actions(V, "algebra"),
                                   "jacobi", "-").passed
    # a moved stored mode makes the intertwiner's values differ from the
    # algebra's as well
    acts = _actions(V, slot, (q, t, 0) if slot == "intertwiner" else None)
    got, hits, built = _plan_hits(lambda: axioms.three_term_check(
        p, q, t, WIN2, acts, "jacobi", "-"))
    assert (hits, built) == (1, 0)
    assert _engine(got) == _naive_three_term(p, q, t, WIN2, acts)
    assert got.failed == (slot == "intertwiner")


RUN_KINDS = ("algebra", "dual", "intertwiner", "translate-skew")


@st.composite
def _oracle_runs(draw):
    """2-4 cases of one weight signature and window, their kinds taken in
    turn from RUN_KINDS; each case has its own vectors and corruption."""
    weights = [draw(st.sampled_from(ORACLE_WEIGHTS)) for _ in range(3)]
    win = _oracle_window(draw)
    start = draw(st.integers(0, len(RUN_KINDS) - 1))
    cases = []
    for n in range(draw(st.integers(2, 4))):
        kind = RUN_KINDS[(start + n) % len(RUN_KINDS)]
        cases.append((kind, [_oracle_vector(draw, wt) for wt in weights],
                      draw(st.booleans()), draw(st.integers(0, 1 << 20))))
    return win, cases


def _run_case(kind, vecs, win, corrupt, pick):
    """The engine's and the naive evaluator's report of one case, each with
    the set of distinct images, products and loss tests it computed, and
    whether the engine built a plan."""
    p, q, t = vecs
    if kind == "translate-skew":
        V = _corrupted_algebra(corrupt, pick, lambda V: _naive_translate_skew(
            V, p, q, t, win))
        (got, hits, built), calls = _distinct(V, lambda: _plan_hits(
            lambda: axioms.check_translate_skew(V, p, q, t, win)))
        return (_typed_report(_engine(got)), calls), _distinct(
            V, lambda: _typed_report(
                _naive_translate_skew(V, p, q, t, win))), built
    if kind == "intertwiner":
        V = build_heisenberg(ORACLE_LEVEL)
        moved = (q, t, pick) if corrupt else None
    else:
        V = _corrupted_algebra(corrupt, pick, lambda V: _naive_three_term(
            p, q, t, win, _actions(V, kind)))
        moved = None
    # fresh actions for each evaluator, built before recording, so that a
    # dual's memo warmed by one does not hide the other's calls
    acts, naive_acts = _actions(V, kind, moved), _actions(V, kind, moved)
    (got, hits, built), calls = _distinct(V, lambda: _plan_hits(
        lambda: axioms.three_term_check(p, q, t, win, acts, "jacobi", "-")),
        acts)
    return (_typed_report(_engine(got)), calls), _distinct(
        V, lambda: _typed_report(_naive_three_term(p, q, t, win,
                                                   naive_acts))), built


@settings(max_examples=40, deadline=None)
@given(run=_oracle_runs())
def test_runs_of_one_signature_match_naive_evaluator(run):
    win, cases = run
    for cache in axioms._PLANS.values():
        cache.cache_clear()
    layouts = set()
    for kind, vecs, corrupt, pick in cases:
        got, want, built = _run_case(kind, vecs, win, corrupt, pick)
        assert got == want, kind
        # the three slot kinds share the three-term plan
        layout = kind == "translate-skew"
        assert built == (layout not in layouts)
        layouts.add(layout)


# -- plans by total weight ----------------------------------------------------
#
# A plan is built from the total weight W of the triple. A check reads its
# products with j < wt y + wt z for their term, since past that the inner
# image y_j z has negative weight. The reference below builds the plan of
# one weight signature, with each term cut at wt y + wt z and the rows at
# the signature's own lengths.


def _signature_jacobi_layout(pos, weights, prod, iterate):
    (a, b, c), (pw, qw, tw) = pos, weights
    row, it = prod[a], iterate[b]
    return ((0, 0, c + 1, row, min(qw + tw + c + 1, len(row)), 1),
            (1, 0, b + 1, row, min(pw + tw + b + 1, len(row)),
             -1 if a % 2 else 1),
            (2, 1, a + 1, it, min(pw + qw + a + 1, len(it)), 1))


def _signature_translate_skew_layout(pos, weights, prod, iterate):
    (a, b, c), (wu, wv, ww) = pos, weights
    row, it, sign = prod[a], iterate[b], -1 if c % 2 else 1
    n = ww + wv + c + 1
    return ((0, 0, c + 1, it, min(n, -a - b - 1) if a < 0 and b < 0 else n,
             sign),
            (1, 0, b + 1, row, min(wu + ww + b + 1, len(row)), -sign),
            (2, 1, a + 1, it, min(wu + wv + a + 1, len(it)),
             sign if b % 2 else -sign))


def _signature_plan(layout, weights, win, level, rows):
    prod, iterate, W = dict(rows[0]), dict(rows[1]), sum(weights)
    positions = [(a, b, c) for a in range(win.lo("x0"), win.hi("x0") + 1)
                 for b in range(win.lo("x1"), win.hi("x1") + 1)
                 for c in range(max(win.lo("x2"), -(W + a + b + 1)),
                                min(win.hi("x2"), level - W - a - b - 1) + 1)]
    products, feeds, index = [], [], {}
    for p, pos in enumerate(positions):
        diag = -(sum(pos) + 3)
        for term, side, off, row, n, sign in layout(pos, weights, prod,
                                                    iterate):
            known = index.setdefault((term, diag), {})
            for k in range(n):
                at = known.get(k - off)
                if at is None:
                    at = known[k - off] = len(products)
                    products.append((term, side, diag - k + off, k - off, p))
                    feeds.append([])
                if k < len(row):
                    feeds[at] += (p, sign * row[k])
    return positions, products, feeds


def _layout_cases(weights, win):
    """Per layout: the signature reference, its rows, the engine's rows
    for the total weight, and the yz weights of the three terms."""
    pw, qw, tw = weights
    W, hi = sum(weights), win.hi
    yield (axioms._jacobi_layout, _signature_jacobi_layout,
           axioms._expansion_rows(
               win, max(qw + tw + hi("x2"), pw + tw + hi("x1")) + 1,
               pw + qw + hi("x0") + 1, -1),
           axioms._expansion_rows(win, W + max(hi("x1"), hi("x2")) + 1,
                                  W + hi("x0") + 1, -1),
           (qw + tw, pw + tw, pw + qw))
    wu, wv, ww = weights
    yield (axioms._translate_skew_layout, _signature_translate_skew_layout,
           axioms._expansion_rows(
               win, wu + ww + hi("x1") + 1,
               max(wu + wv + hi("x0"), ww + wv + hi("x2")) + 1, 1),
           axioms._expansion_rows(win, W + hi("x1") + 1,
                                  W + max(hi("x0"), hi("x2")) + 1, 1),
           (ww + wv, wu + ww, wu + wv))


def test_total_weight_plan_read_by_a_signature_is_its_plan():
    shaped = fusion.shaped_jacobi_window(1, 2, 0, 5, 3)
    assert shaped.hi("x0") != shaped.hi("x1")
    windows = (WIN2, WIN3, shaped)
    weight_triples = [t for t in itertools.product(range(9), repeat=3)
                      if sum(t) <= 8]
    plan, compared = functools.lru_cache(None)(axioms._plan), 0
    for win, level, weights in itertools.product(windows, range(4, 9),
                                                 weight_triples):
        for layout, reference, sig_rows, rows, yz in _layout_cases(weights,
                                                                   win):
            want = _signature_plan(reference, weights, win, level, sig_rows)
            positions, groups = plan(layout, sum(weights), win, level, rows)
            # the groups flattened back into plan order by plan index
            flat = sorted((n, (term, side, i, j, p), feed)
                          for (term, j), entries in groups.items()
                          for n, i, side, p, feed in entries)
            assert [n for n, _, _ in flat] == list(range(len(flat)))
            assert list(groups) == list(dict.fromkeys(
                (prod[0], prod[3]) for _, prod, _ in flat))
            read = [(prod, feed) for _, prod, feed in flat
                    if prod[3] < yz[prod[0]]]
            assert positions == want[0], (layout, weights, win, level)
            assert read == list(zip(want[1], want[2])), \
                (layout, weights, win, level)
            compared += bool(read)
    assert compared > 1000


def test_jacobi_l7_builds_one_plan_per_total_weight(monkeypatch):
    # every plan key (layout, W, window, level) is built once; keyed by the
    # weight signature, the same pass made 189 builds of 172 signatures
    from voacalc import cli
    builds, keys = [], set()
    for layout, real in list(axioms._PLANS.items()):
        def counting(*args):
            builds.append(args)
            return axioms._plan(*args)
        cached = functools.lru_cache(real.cache_parameters()["maxsize"])(
            counting)

        def calling(*args, cached=cached):
            keys.add(args[:4])
            return cached(*args)
        monkeypatch.setitem(axioms._PLANS, layout, calling)
    reports = cli.run_suites(["jacobi", "s3"], cli.SuiteConfig(
        level=7, window=3, s3_window=2)).reports
    assert not any(r.failed for r in reports)
    assert len(builds) == len(set(builds)) <= len(keys)


def test_one_pair_products_always_keep_their_pair(monkeypatch):
    # the pair loop keeps a pair (lu, lv, base, c) at outer index i when
    # i <= base <= i + cap; a one-pair product list skips that test, since
    # every plan position has final weight base - i in 0..level, and level
    # is the least outer cap: checked over every plan of a level-5 run
    real, seen = axioms._evaluate, []

    def checking(layout, W, win, level, rows, terms, identity, params):
        positions, groups = axioms._PLANS[layout](layout, W, win, level, rows)
        assert all(0 <= W + sum(p) + 1 <= level for p in positions)
        assert all(level <= t.outer.level for t in terms)
        for (term, j), entries in groups.items():
            t = terms[term]
            pairs = t.image_pairs(j)
            if len(pairs) == 1:
                (_, _, base, _), = pairs
                for _, i, _, p, _ in entries:
                    assert base - i == W + sum(positions[p]) + 1
                    assert i <= base <= i + t.outer.level
                    seen.append(identity)
        return real(layout, W, win, level, rows, terms, identity, params)

    monkeypatch.setattr(axioms, "_evaluate", checking)
    reports = cli.run_suites(["jacobi", "s3", "fusion"],
                             cli.SuiteConfig(level=5)).reports
    assert not any(r.failed for r in reports)
    assert {"jacobi", "translate-skew-rewrite",
            "intertwiner-jacobi"} <= set(seen)


def _naive_commutators(V, v, win):
    """The bracket formulas as ``check_commutators`` states them, every
    image through ``act`` and ``virasoro`` and summed as vectors: the
    reference the row-based check is compared against."""
    wv = v.weight()
    vac = V.is_vacuum_multiple(v)
    lost_raise_v = (not vac and wv + 1 > V.level
                    and V.true_nonzero(V.twice_omega, 0, v))
    modes = (-1, 0, 1)
    l_v = {} if lost_raise_v else {i: V.virasoro(i, v) for i in modes}
    diffs = {i: [] for i in modes}
    checked = dict.fromkeys(modes, 0)
    skipped = dict.fromkeys(modes, 0)
    for lw in V.basis_upto():
        w, ww = B(lw), sum(lw)
        lost_raise_w = (not vac and ww + 1 > V.level
                        and V.true_nonzero(V.twice_omega, 0, w))
        for i in modes:
            lost = lost_raise_v or (i == -1 and lost_raise_w)
            l_w = None if lost else V.virasoro(i, w)
            for n in range(-win.hi("x") - 1, -win.lo("x")):
                if not 0 <= wv + ww - n - 1 - i <= V.level:
                    continue
                if lost or (i == 1 and wv + ww - n - 1 > V.level
                            and V.true_nonzero(v, n, w)):
                    skipped[i] += 1
                    continue
                checked[i] += 1
                lhs = V.virasoro(i, V.act(v, n, w)) - V.act(v, n, l_w)
                rhs = GradedVector()
                for j in range(i + 2):
                    rhs = rhs + V.act(l_v[i - j], n + j, w).scale(
                        binom(i + 1, j))
                diff_labels(diffs[i], (fmt_label(lw), n), lhs.coeff,
                            rhs.coeff)
    out = []
    for i in modes:
        if checked[i] == 0:
            out.append((Status.SKIPPED, "no assertable modes", "[]"))
        else:
            note = f"{skipped[i]} mode positions skipped" if skipped[i] else ""
            out.append((Status.FAIL if diffs[i] else Status.PASS, note,
                        repr(diffs[i])))
    return out


def _naive_per_v(V, vs, win):
    """The naive evaluator run once per vector of ``vs``, in order: the
    per-v loop the one-call ``check_commutators`` is compared against."""
    return [rep for v in vs for rep in _naive_commutators(V, v, win)]


@st.composite
def _commutator_cases(draw):
    """One to three homogeneous vectors (each a basis vector, or a
    combination of two with Fraction coefficients), a window, and whether
    to corrupt one structure constant."""
    vs = []
    for _ in range(draw(st.integers(1, 3))):
        wt = draw(st.integers(0, ORACLE_LEVEL))
        labels = draw(st.lists(st.sampled_from(partitions(wt)), min_size=1,
                               max_size=2, unique=True))
        v = GradedVector()
        for lab in labels:
            v = v + B(lab).scale(draw(st.sampled_from(
                (1, -2, Fraction(1, 2), Fraction(-3, 4)))))
        vs.append(v)
    lo = draw(st.integers(-ORACLE_LEVEL - 2, 1))
    win = Window.of(x=(lo, lo + draw(st.integers(0, 2 * ORACLE_LEVEL + 2))))
    return vs, win, draw(st.booleans()), draw(st.integers(0, 1 << 20))


@settings(max_examples=60, deadline=None)
@given(case=_commutator_cases())
def test_commutators_match_naive_evaluator(case):
    # status, note and the ordered diffs, through repr, so that an int
    # coefficient turning into an equal Fraction fails too
    vs, win, corrupt, pick = case
    V = _corrupted_algebra(corrupt, pick,
                           lambda V: _naive_per_v(V, vs, win))
    got = [(r.status, r.note, repr(r.diffs))
           for r in axioms.check_commutators(V, vs, win)]
    assert got == _naive_per_v(V, vs, win)


def test_commutators_match_naive_evaluator_on_every_basis_vector():
    # every basis vector in one call, as the suite checks them, against
    # the per-v loop, on the suite's window, at levels 4-6: on a clean
    # algebra, on one with a constant that v = [1] and [2] read corrupted
    # (it fails some records, and some diffs hold Fraction coefficients),
    # and on one whose L(-1) on the top-weight w = [level] is zeroed, so
    # that the lost-raise test of w, which every v shares, flips
    for level in (4, 5, 6):
        win = Window.of(x=(-level - 1, level + 1))
        basis = [B(lv) for lv in build_heisenberg(level).basis_upto()]
        top = (level,)
        kinds, failed, notes = set(), 0, {}
        for corrupt in ("clean", "constant", "raise"):
            V = build_heisenberg(level)
            if corrupt == "constant":
                V.corrupt((1, 1), 1, (2,), (2,), 1)
            elif corrupt == "raise":
                for label, c in list(V.mode_basis((1, 1), 0, top).items()):
                    V.corrupt((1, 1), 0, top, label, -c)
                assert not V.true_nonzero(V.twice_omega, 0, B(top))
            reps = axioms.check_commutators(V, basis, win)
            assert [(r.identity, r.params) for r in reps] == [
                (f"bracket-L({i})", f"v={fmt_vec(v)};win={level + 1}")
                for v in basis for i in (-1, 0, 1)]
            assert [(r.status, r.note, repr(r.diffs)) for r in reps] == \
                _naive_per_v(V, basis, win), (level, corrupt)
            failed += sum(r.failed for r in reps)
            kinds |= {type(x) for r in reps for _, *xs in r.diffs
                      for x in xs}
            notes[corrupt] = [r.note for r in reps]
        assert failed and Fraction in kinds, level
        assert notes["raise"] != notes["clean"], level
