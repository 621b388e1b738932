"""Acceptance criteria, one test per criterion, each printing a summary
line. Every tolerance here is exact rational equality; nothing is
deferred to calibration."""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from voacalc import axioms, cli, contragredient as contra, fusion, moduli
from voacalc.exact import QQi
from voacalc.fock import GradedVector, build_heisenberg, partitions
from voacalc.reports import Status
from voacalc.series import Window, check_delta_identity, random_laurent_polynomial


def B(label):
    return GradedVector.basis(label)


def report(n, text):
    print(f"ACCEPTANCE {n}: {text}: PASS")


def test_criterion_1_delta_suite():
    t0 = time.time()
    rng = random.Random(20240)
    win = Window.of(x=(-4, 4))
    for _ in range(25):
        f = random_laurent_polynomial(rng)
        assert check_delta_identity("fundamental", f, win).passed
    win3 = Window.symmetric(("x0", "x1", "x2"), 4)
    assert check_delta_identity("two-term", None, win3).passed
    assert check_delta_identity("three-term", None, win3).passed
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"delta identities exact on [-4,4], {elapsed:.2f}s")


def test_criterion_2_voa_suite():
    V = build_heisenberg(6)
    assert [V.dim(n) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]

    for lab in V.basis_upto():
        v = B(lab)
        ys = V.vertex_series(v, V.vacuum, Window.of(x=(-14, 14)))
        assert all(e[0] >= 0 for e in ys.coeff)
        assert ys.coefficient((0,)) == v
        if sum(lab) + 1 <= 6:
            got = ys.coefficient((1,)) or GradedVector()
            assert got == V.virasoro(-1, v)

    skew_checked = 0
    for lu in V.basis_upto():
        for lv in V.basis_upto():
            rep = axioms.check_skew_symmetry(V, B(lu), B(lv), 6)
            assert not rep.failed
            if rep.status is not Status.SKIPPED:
                skew_checked += 1
    assert skew_checked > 0

    for rep in axioms.check_commutators(
            V, [B(lv) for lv in V.basis_upto()], Window.of(x=(-7, 7))):
        assert not rep.failed

    c = V.central_charge
    assert c == 1
    for m in range(-4, 5):
        for n in range(-4, 5):
            for w in range(5):
                for lab in V.basis(w):
                    vec = B(lab)
                    top = 14
                    lhs = V.virasoro(m, V.virasoro(n, vec, top), top) \
                        - V.virasoro(n, V.virasoro(m, vec, top), top)
                    rhs = V.virasoro(m + n, vec, top).scale(Fraction(m - n))
                    if m + n == 0:
                        rhs = rhs + vec.scale(c * Fraction(m ** 3 - m, 12))
                    assert lhs.clip(6) == rhs.clip(6)
    report(2, "creation, skew, brackets, Virasoro c=1, dims p(0..6)")


def _all_triples(max_total):
    for total in range(max_total + 1):
        for w1 in range(total + 1):
            for w2 in range(total - w1 + 1):
                for l1 in partitions(w1):
                    for l2 in partitions(w2):
                        for l3 in partitions(total - w1 - w2):
                            yield l1, l2, l3


def test_criterion_3_jacobi_suite():
    V = build_heisenberg(6)
    win = Window.symmetric(("x0", "x1", "x2"), 3)
    non_skipped = 0
    for l1, l2, l3 in _all_triples(6):
        rep = axioms.check_jacobi(V, B(l1), B(l2), B(l3), win)
        assert not rep.failed, (l1, l2, l3, rep.diffs[:2])
        if rep.status is not Status.SKIPPED:
            non_skipped += 1
            if sum(l1) + sum(l2) + sum(l3) <= 5:
                assert rep.passed
    assert non_skipped >= 200

    # mutation testing: ten seeded single-constant corruptions, ten failures
    Vm = build_heisenberg(6)
    u, v, w = B((1,)), B((1,)), Vm.vacuum
    base = axioms.check_jacobi(Vm, u, v, w, win)
    assert base.passed
    keys = [k for k in Vm.touched_mode_keys() if Vm.mode_basis(*k)]
    rng = random.Random(77)
    failures = 0
    for key in rng.sample(keys, 10):
        lab = sorted(Vm.mode_basis(*key))[0]
        Vm.corrupt(*key, lab, 1)
        rep = axioms.check_jacobi(Vm, u, v, w, win)
        Vm.clear_corruptions()
        if rep.failed:
            failures += 1
    assert failures == 10
    report(3, f"jacobi exact on {non_skipped} in-budget triples, "
              "10/10 mutations detected")


def test_criterion_4_s3_suite():
    V = build_heisenberg(6)
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    kept = 0
    for l1, l2, l3 in _all_triples(6):
        if kept >= 50:
            break
        u, v, w = B(l1), B(l2), B(l3)
        reps = [axioms.check_iterate_skew(V, u, v, w, win),
                axioms.check_translate_skew(V, u, v, w, win)]
        for perm in ((1, 0, 2), (0, 2, 1)):
            reps.extend(axioms.s3_transform_check(V, u, v, w, perm, win))
        if any(r.status is Status.SKIPPED for r in reps):
            continue
        kept += 1
        for r in reps:
            assert r.passed, (l1, l2, l3, r.identity, r.diffs[:2])
    assert kept == 50
    report(4, "both rewrite steps and permuted identities exact on "
              "50 in-budget triples")


def test_criterion_5_contragredient_suite():
    V = build_heisenberg(6)
    Mp = contra.ContragredientModule(V)

    for rep in contra.check_defining_relation(Mp):
        assert rep.passed

    for n in range(-6, 7):
        for mu in V.basis_upto():
            lhs = Mp.virasoro(n, B(mu))
            for nu in V.basis_upto():
                want = V.act(V.omega, -n + 1, B(nu),
                             ceiling=sum(mu)).coeff.get(mu, 0)
                assert lhs.coeff.get(nu, 0) == want

    assert contra.check_double_contragredient(Mp).passed

    form = contra.build_invariant_form(Mp, Fraction(1))
    assert form.pair(V.vacuum, V.vacuum) == 1
    assert form.symmetric
    assert form.nondegenerate()
    for lu in V.basis_upto():
        for lv in V.basis_upto():
            if sum(lu) != sum(lv):
                assert form.pair(B(lu), B(lv)) == 0
    assert form.pair(V.omega, V.omega) == Fraction(1, 2)
    report(5, "dual relation, adjointness, double dual, invariant form "
              "((w,w)=1/2) exact at level 6")


def test_criterion_6_direct_sum_suite():
    V = build_heisenberg(4)
    form = contra.build_invariant_form(contra.ContragredientModule(V))
    ds = contra.DirectSumMap(V, V, form, form)

    from test_direct_sum import independent_pairing_rhs, independent_skew_block

    for w1l in V.basis_upto():
        for vl in V.basis_upto():
            for n in range(-6, 6):
                got = ds.w_on_v(w1l, n, vl, ds.level)
                assert got == independent_skew_block(V, B(w1l), n,
                                                     B(vl)).coeff

    for w1l in V.basis_upto():
        for w2l in V.basis_upto():
            u = contra.in_module(B(w1l))
            x = contra.in_module(B(w2l))
            for n in range(-5, 5):
                _, res_w = contra.summands(ds.act(u, n, x))
                assert res_w.is_zero()
                for l3 in V.basis_upto():
                    assert form.pair(B(l3), res_w) == 0

    checked = 0
    for w1l in V.basis_upto():
        for w2l in V.basis_upto():
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
                    assert lhs == rhs
                    checked += 1
    assert checked > 100
    report(6, f"combined map formulas exact at level 4 "
              f"({checked} pairing checks)")


def test_criterion_7_fusion_suite():
    from importlib import resources
    base = resources.files("voacalc") / "fixtures"
    for name in ("one_label.fus", "ising.fus"):
        T = fusion.load_fusion_tensor(base / name)
        symmetry = fusion.check_s3_symmetry(T)
        assert symmetry.passed
        A = fusion.build_verlinde(T, symmetry)
        assert fusion.check_commutativity(A).passed
        assert fusion.check_associativity(A).passed
        assert A.has_unit

    V = build_heisenberg(2)
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    Mp = contra.ContragredientModule(V)
    cases = [("self", fusion.intertwiner_from_algebra(V)),
             ("module", fusion.intertwiner_from_module(V, Mp))]
    mutations = 0
    for tag, I in cases:
        for rep in fusion.check_intertwiner([I], win)[0]:
            assert rep.passed, (tag, rep.identity)
        for key in sorted(I.modes):
            for lab in sorted(I.modes[key]):
                saved = I.modes[key]
                I.modes[key] = dict(saved)
                I.modes[key][lab] += 1
                reps = fusion.check_intertwiner([I], win)[0]
                I.modes[key] = saved
                assert any(r.failed for r in reps), (tag, key, lab)
                mutations += 1
    report(7, f"fixtures and canonical intertwiners pass; all {mutations} "
              "single-entry mutations rejected")


def test_criterion_8_moduli_suite():
    M = 8
    rng = random.Random(8)
    ident = moduli.identity_element(M)
    for _ in range(20):
        Q = moduli.random_supported_element(rng, M)
        for i in range(1, Q.arity + 1):
            assert moduli.sew(Q, i, ident).element == Q
        assert moduli.sew(ident, 1, Q).element == Q

    a, b = Fraction(9, 4), Fraction(-2, 7)
    got = moduli.sew(moduli.scaling_element(a, M), 1,
                     moduli.scaling_element(b, M)).element
    assert got == moduli.scaling_element(a * b, M)

    scaling_only = [
        moduli.ModuliElement(
            2, M, (QQi(16),), (QQi(0),) * M,
            (moduli.LocalCoordinate(QQi(2), (QQi(0),) * M),
             moduli.LocalCoordinate(QQi(1), (QQi(0),) * M))),
        moduli.ModuliElement(
            2, M, (QQi(Fraction(1, 2)),), (QQi(0),) * M,
            (moduli.LocalCoordinate(QQi(1), (QQi(0),) * M),
             moduli.LocalCoordinate(QQi(Fraction(1, 3)), (QQi(0),) * M))),
        moduli.scaling_element(Fraction(5, 4), M),
        ident,
    ]
    reps = {r.identity: r for r in moduli.check_operad_axioms(scaling_only)}
    assert reps["operad-associativity"].passed
    note = reps["operad-associativity"].note
    for regime in ("low=", "nested=", "high="):
        count = int(note.split(regime)[1].split(",")[0])
        assert count > 0, regime

    V = build_heisenberg(6)
    aa = B((1,))
    vp = B((1,))
    P2 = moduli.two_puncture_element(2, M)
    P1 = moduli.two_puncture_element(1, M)
    rep = moduli.check_sewing_axiom(V, P2, 1, ident, [aa, aa],
                                    B(()), (4, 8, 12))
    assert rep.passed and rep.note == "exact-zero"
    rep = moduli.check_sewing_axiom(V, P2, 1, P1, [aa, aa, aa], vp,
                                    (4, 8, 12))
    assert rep.passed and rep.note.startswith("shrinking")
    report(8, "identity axiom, scaling composition, three regimes, and "
              "shrinking sewing differences at z=(2,1)")


def test_criterion_9_determinism():
    import io

    def run(jobs):
        cfg = cli.SuiteConfig(jobs=jobs)
        run_rep = cli.run_suites(list(cli.SUITES), cfg)
        buf = io.StringIO()
        cli.emit(run_rep, "structured", buf)
        return run_rep, buf.getvalue()

    rep1, out1 = run(1)
    rep8, out8 = run(8)
    assert rep1.failed == rep8.failed == 0
    assert out1 == out8
    assert len(out1.splitlines()) == 1269
    assert hashlib.sha256(out1.encode()).hexdigest() == \
        "f16bcb4510632fcd36a7150dfe8775a9704cc2ebb233719be966559a8fdb0d11"
    report(9, f"structured reports byte-identical for jobs 1 and 8 "
              f"({len(out1.splitlines())} records)")
