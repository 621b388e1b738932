from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voacalc.contragredient import ContragredientModule
from voacalc.exact import binom
from voacalc.fock import (_ZERO_ROW, GradedVector, build_heisenberg,
                          exp_chain, partitions)
from voacalc.series import Window


def brute_partitions(n):
    """Independent partition enumeration by direct filtering."""
    if n == 0:
        return {()}
    out = set()

    def go(rest, mx, acc):
        if rest == 0:
            out.add(tuple(acc))
            return
        for p in range(min(rest, mx), 0, -1):
            go(rest - p, p, acc + [p])

    go(n, n, [])
    return out


@pytest.fixture(scope="module")
def V6():
    return build_heisenberg(6)


def test_weight_dimensions(V6):
    assert [V6.dim(n) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    for n in range(7):
        assert set(V6.basis(n)) == brute_partitions(n)


def test_oscillator_commutator(V6):
    a = GradedVector.basis((1,))
    assert V6.act(a, 1, a) == V6.vacuum
    # alpha(0) annihilates the whole space
    assert V6.act(a, 0, a).is_zero()
    assert V6.act(a, 0, GradedVector.basis((2, 1))).is_zero()


def test_vacuum_modes(V6):
    v = GradedVector.basis((2, 1))
    for n in range(-4, 4):
        got = V6.act(V6.vacuum, n, v)
        assert got == (v if n == -1 else GradedVector())


def test_conformal_vector(V6):
    om = V6.omega
    assert V6.virasoro(2, om) == V6.vacuum.scale(Fraction(1, 2))
    assert V6.virasoro(1, om).is_zero()
    for n in range(3, 7):
        assert V6.virasoro(n, om).is_zero()
    assert V6.virasoro(0, om) == om.scale(2)


def test_grading_operator(V6):
    for lab in V6.basis_upto():
        v = GradedVector.basis(lab)
        assert V6.virasoro(0, v) == v.scale(sum(lab))


def test_translation_annihilates_vacuum(V6):
    assert V6.virasoro(-1, V6.vacuum).is_zero()


def test_creation_property(V6):
    for lab in V6.basis_upto(5):
        v = GradedVector.basis(lab)
        ys = V6.vertex_series(v, V6.vacuum, Window.of(x=(-14, 14)))
        assert all(e[0] >= 0 for e in ys.coeff)
        assert ys.coefficient((0,)) == v
        got = ys.coefficient((1,)) or GradedVector()
        assert got == V6.virasoro(-1, v)


def test_lower_truncation(V6):
    for lu in V6.basis_upto(4):
        for lv in V6.basis_upto(4):
            u, v = GradedVector.basis(lu), GradedVector.basis(lv)
            bound = sum(lu) + sum(lv)
            for n in range(bound, bound + 4):
                assert V6.act(u, n, v, ceiling=20).is_zero()


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=30, deadline=None)
def test_mode_weight_shift(seed):
    import random
    rng = random.Random(seed)
    V = build_heisenberg(6)
    labs = V.basis_upto(4)
    lu = rng.choice(labs)
    lv = rng.choice(labs)
    n = rng.randint(-6, 6)
    got = V.act(GradedVector.basis(lu), n, GradedVector.basis(lv),
                ceiling=20)
    want = sum(lu) + sum(lv) - n - 1
    for lab in got.coeff:
        assert sum(lab) == want


def test_bilinearity(V6):
    a = GradedVector.basis((1,))
    b = GradedVector.basis((2,))
    w = GradedVector.basis((1, 1))
    u = a.scale(Fraction(2, 3)) + b.scale(-1)
    got = V6.act(u, -1, w)
    want = V6.act(a, -1, w).scale(Fraction(2, 3)) \
        - V6.act(b, -1, w)
    assert got == want


def test_truncation_overflow_flag(V6):
    v = GradedVector.basis((6,))
    _, lost = V6.apply_mode_flagged(GradedVector.basis((1,)), -1, v)
    assert lost
    full, lost2 = V6.apply_mode_flagged(GradedVector.basis((1,)), -1, v,
                                        ceiling=7)
    assert not lost2 and full == GradedVector.basis((6, 1))


_labels_upto_4 = st.sampled_from(build_heisenberg(4).basis_upto())
_mixed_vectors = st.dictionaries(_labels_upto_4,
                                 st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=5).map(GradedVector)


@given(_mixed_vectors, _mixed_vectors, st.integers(-6, 6),
       st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_overflow_flag_matches_full_scan(u, v, n, cap):
    V = build_heisenberg(4)
    out, overflow = V.apply_mode_flagged(u, n, v, ceiling=cap)
    lost = any(V.mode_basis(lu, n, lv) for lu in u.coeff for lv in v.coeff
               if sum(lu) + sum(lv) - n - 1 > cap)
    assert overflow == lost
    full = V.act(u, n, v, ceiling=20)
    assert out == full.clip(cap)


def test_kept_probe_answer_yields_to_a_corruption():
    # (a(-2)|0>)_n = -n a(n-1) vanishes at n = 0, so this pair lies above
    # the ceiling with a true value of zero
    V = build_heisenberg(4)
    u, v = GradedVector.basis((2,)), GradedVector.basis((4,))
    key = ((2,), 0, (4,))
    assert build_heisenberg(4).mode_basis(*key) == {}
    assert V.apply_mode_flagged(u, 0, v) == (GradedVector(), False)
    # the flag reads the row through mode_basis, which memoises it
    assert V.touched_mode_keys() == [key] and V._modes[key] == {}
    V.corrupt(*key, (5,), 1)
    assert V.apply_mode_flagged(u, 0, v) == (GradedVector(), True)
    V.clear_corruptions()
    assert V.apply_mode_flagged(u, 0, v) == (GradedVector(), False)
    assert V._modes[key] == {}


_flag_calls = st.lists(
    st.tuples(_mixed_vectors, st.integers(-6, 6), _mixed_vectors,
              st.integers(0, 8)), min_size=2, max_size=6)


@given(_flag_calls, st.data())
@settings(max_examples=40, deadline=None)
def test_repeated_flags_match_fresh_algebras(calls, data):
    # one algebra answers the calls twice over, with corruptions of their
    # keys added and cleared in between; a fresh algebra with the same
    # corruptions answers each call once
    V = build_heisenberg(4)
    corruptions = []
    for u, n, v, cap in calls + calls:
        if data.draw(st.booleans()):
            lu, lv = data.draw(st.sampled_from(list(u.coeff))), \
                data.draw(st.sampled_from(list(v.coeff)))
            label = data.draw(_labels_upto_4)
            corruptions.append((lu, n, lv, label, 1))
            V.corrupt(*corruptions[-1])
        elif data.draw(st.booleans()):
            corruptions.clear()
            V.clear_corruptions()
        fresh = build_heisenberg(4)
        for c in corruptions:
            fresh.corrupt(*c)
        assert V.apply_mode_flagged(u, n, v, ceiling=cap) == \
            fresh.apply_mode_flagged(u, n, v, ceiling=cap)


@given(_mixed_vectors, st.sampled_from((-1, 0, 1)), st.integers(3, 6),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_exp_chain_is_the_exponential(v, n, level, on_dual):
    # entry k is k successive virasoro calls divided by k!, on the algebra
    # or on its dual; L(0) never reaches zero, so ``terms`` caps it
    V = build_heisenberg(level)
    space = ContragredientModule(V) if on_dual else V
    terms = 5 if n == 0 else None
    chain = exp_chain(space, n, v, terms=terms)
    assert chain and all(chain)
    x, fact = v, 1
    for k, entry in enumerate(chain):
        if k:
            x = space.virasoro(n, x)
            fact *= k
        assert entry == x.scale(Fraction(1, fact)), k
    # it ends exactly at the first zero
    assert len(chain) == terms or not space.virasoro(n, x)


def test_virasoro_bracket_extended(V6):
    c = V6.central_charge
    for m in range(-3, 4):
        for n in range(-3, 4):
            for lab in V6.basis_upto(3):
                v = GradedVector.basis(lab)
                top = 12
                lhs = V6.virasoro(m, V6.virasoro(n, v, top), top) \
                    - V6.virasoro(n, V6.virasoro(m, v, top), top)
                rhs = V6.virasoro(m + n, v, top).scale(Fraction(m - n))
                if m + n == 0:
                    rhs = rhs + v.scale(c * Fraction(m ** 3 - m, 12))
                assert lhs.clip(6) == rhs.clip(6), (m, n, lab)


def test_corruption_is_reversible(V6):
    V = build_heisenberg(4)
    a = GradedVector.basis((1,))
    clean = V.act(a, 1, a)
    V.corrupt((1,), 1, (1,), (), 5)
    assert V.act(a, 1, a) == V.vacuum.scale(6)
    V.clear_corruptions()
    assert V.act(a, 1, a) == clean


def test_vertex_series_matches_modes(V6):
    u = GradedVector.basis((2,))
    v = GradedVector.basis((1, 1))
    win = Window.of(x=(-10, 10))
    ys = V6.vertex_series(u, v, win)
    for n in V6.mode_range(u, v):
        want = V6.act(u, n, v)
        got = ys.coefficient((-n - 1,)) or GradedVector()
        assert got == want


# -- the Wick recursion against the assignment enumeration -----------------


def enumerated_mode(lu, n, lv):
    """mode_basis by enumerating every assignment of each factor of lu to
    an annihilator a(p), p a part of lv, or a creator a(m), m < 0 (the
    computation the Wick recursion replaced)."""
    target = sum(lu) + sum(lv) - n - 1
    if target < 0:
        return {}
    k = len(lu)
    if k == 0:
        return {lv: 1} if n == -1 else {}
    total = n + 1 - sum(lu)
    maxpart = max(lv) if lv else 0
    out = {}
    avail = {}
    for p in lv:
        avail[p] = avail.get(p, 0) + 1
    created = []
    coefs = [1] * (k + 1)

    def rec(i, remaining, created_wt):
        if i == k:
            if remaining != 0:
                return
            label = created[:]
            for p, cnt in avail.items():
                label.extend([p] * cnt)
            lab = tuple(sorted(label, reverse=True))
            out[lab] = out.get(lab, 0) + coefs[k]
            return
        ni = lu[i]
        rest = k - i - 1
        lo = remaining - rest * maxpart
        hi = remaining + rest * target
        base = coefs[i]
        for p in avail:
            cnt = avail[p]
            if cnt and lo <= p <= hi:
                coefs[i + 1] = base * binom(-p - 1, ni - 1) * p * cnt
                avail[p] = cnt - 1
                rec(i + 1, remaining - p, created_wt)
                avail[p] = cnt
        for m in range(max(-(target - created_wt), lo), min(-ni, hi) + 1):
            coefs[i + 1] = base * binom(-m - 1, ni - 1)
            created.append(-m)
            rec(i + 1, remaining - m, created_wt - m)
            created.pop()

    rec(0, total, 0)
    return {label: c for label, c in out.items() if c}


_short_labels = st.lists(st.integers(1, 5), max_size=7).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@given(_short_labels, _short_labels, st.data())
@settings(max_examples=80, deadline=None)
def test_wick_recursion_matches_enumeration(lu, lv, data):
    # n down to -24 and target weights up to 24, the range the omega
    # sewing check reaches; the enumeration is exponential in len(lu), so
    # a long lu gets targets up to 14
    top = sum(lu) + sum(lv)
    max_target = 24 if len(lu) <= 4 else 14
    n = data.draw(st.integers(max(-24, top - 1 - max_target), top),
                  label="n")
    V = build_heisenberg(6)
    assert V.mode_basis(lu, n, lv) == enumerated_mode(lu, n, lv)


def test_wick_recursion_matches_enumeration_exhaustively():
    V = build_heisenberg(4)
    labels = V.basis_upto()
    for lu in labels:
        for lv in labels:
            for n in range(-8, sum(lu) + sum(lv) + 1):
                assert V.mode_basis(lu, n, lv) == enumerated_mode(lu, n, lv)


def test_corruption_stays_at_its_key():
    # peeling a(-2) or a(-1) reaches `sub` through the creator a(-2), the
    # annihilator a(2) and the annihilator a(1), in that order
    sub = ((1, 1), -3, (2, 1))
    through = [((2, 1, 1), -3, (2, 1)), ((2, 1, 1), 1, (2, 2, 1)),
               ((1, 1, 1), -1, (2, 1, 1))]
    clean = build_heisenberg(6)
    # a wrong memoised value at `sub` reaches each of them
    poisoned = build_heisenberg(6)
    poisoned._modes[sub] = {}
    for key in through:
        assert poisoned.mode_basis(*key) != clean.mode_basis(*key), key
    keys = [(lu, n, lv) for lu in clean.basis_upto(4)
            for lv in clean.basis_upto(3)
            for n in range(-4, sum(lu) + sum(lv))] + through
    for asked_first in (False, True):
        V = build_heisenberg(6)
        if asked_first:
            # the recursion then reads the instance memo at `sub`
            V.mode_basis(*sub)
        label = min(clean.mode_basis(*sub))
        V.corrupt(*sub, label, 1)
        for key in keys:
            if key == sub:
                assert V.mode_basis(*key) != clean.mode_basis(*key)
            else:
                assert V.mode_basis(*key) == clean.mode_basis(*key), key


def _flag_reads(u, n, v, cap):
    """The above-ceiling pairs whose rows the loss flag of u_n v reads: in
    pair order, up to the first nonzero one."""
    clean = build_heisenberg(0)
    reads = []
    for lu in u.coeff:
        for lv in v.coeff:
            if sum(lu) + sum(lv) - n - 1 > cap:
                reads.append((lu, n, lv))
                if clean.mode_basis(lu, n, lv):
                    return reads
    return reads


def test_only_public_keys_are_memoised():
    V = build_heisenberg(6)
    key = ((3, 2, 1, 1), -4, (2, 1, 1))
    assert V.mode_basis(*key)
    assert V.touched_mode_keys() == [key]
    # apply_mode_flagged asks for each below-ceiling pair, and its loss flag
    # for the above-ceiling pairs up to the first nonzero one
    u = GradedVector({(2, 1): 1, (1,): 3})
    v = GradedVector({(3, 1): 1, (1, 1): -2})
    out, lost = V.apply_mode_flagged(u, -2, v, ceiling=6)
    assert lost and out
    asked = {(lu, -2, lv) for lu in u.coeff for lv in v.coeff
             if 0 <= sum(lu) + sum(lv) + 1 <= 6}
    assert set(V.touched_mode_keys()) == \
        asked | {key} | set(_flag_reads(u, -2, v, 6))


# -- one Wick subkey memo per algebra ------------------------------------------
# (the two tests named for a scratch date from a memo kept per call)

_labels_upto_10 = st.sampled_from(build_heisenberg(10).basis_upto())
_vectors_upto_10 = st.dictionaries(_labels_upto_10,
                                   st.integers(-3, 3).filter(bool),
                                   min_size=1, max_size=3).map(GradedVector)


def _pair_sum(V, u, n, v, cap):
    """u_n v clipped at cap, from one ``mode_basis`` call per pair."""
    acc = GradedVector()
    for lu, cu in u.coeff.items():
        for lv, cv in v.coeff.items():
            if 0 <= sum(lu) + sum(lv) - n - 1 <= cap:
                acc = acc + GradedVector(V.mode_basis(lu, n, lv)).scale(cu * cv)
    return acc


@given(_vectors_upto_10, _vectors_upto_10, st.integers(5, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_shared_scratch_matches_separate_pairs(u, v, cap, data):
    # level 4 and ceilings above it; every target stays at most 16
    top = max(map(sum, u.coeff)) + max(map(sum, v.coeff))
    n = data.draw(st.integers(top - 17, top), label="n")
    V = build_heisenberg(4)
    assert V.act(u, n, v, ceiling=cap) == \
        _pair_sum(build_heisenberg(4), u, n, v, cap)
    assert set(V.touched_mode_keys()) == {
        (lu, n, lv) for lu in u.coeff for lv in v.coeff
        if 0 <= sum(lu) + sum(lv) - n - 1 <= cap} | \
        set(_flag_reads(u, n, v, cap))


@given(st.sampled_from([l for l in build_heisenberg(10).basis_upto()
                        if len(l) >= 3]),
       _labels_upto_10, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_corruption_does_not_leak_through_the_scratch(lu, lv, tail_first,
                                                      data):
    # peeling the creator a(-k), k = lu[0], from (lu, n, lv) reads the
    # subkey (lu[1:], n, lv) when the target is at least k; that subkey is
    # also a pair of the same call, and it is corrupted
    k, tail = lu[0], lu[1:]
    top = sum(lu) + sum(lv) - 1
    n = data.draw(st.integers(top - 16, top - k), label="n")
    order = (tail, lu) if tail_first else (lu, tail)
    u = GradedVector(dict(zip(order, (2, 3))))
    v = GradedVector.basis(lv)
    label = data.draw(st.sampled_from(partitions(top - n - k)), label="label")
    V = build_heisenberg(4)
    V.corrupt(tail, n, lv, label, 1)
    want = _pair_sum(build_heisenberg(4), u, n, v, 16) + \
        GradedVector({label: u.coeff[tail]})
    assert V.act(u, n, v, ceiling=16) == want


def test_no_wick_subkey_is_computed_twice(monkeypatch):
    # a loop over mode indices and ceilings with a many-part operand, as
    # the sewing check runs: the subkeys of one call are those of the next
    from voacalc import fock

    computed, depth = [], [0]
    real = fock._wick

    def spy(lu, n, lv, target, *memos):
        # a top-level key (depth 0) is asked for, not a subkey
        if depth[0] and len(lu) > 1 and \
                not any((lu, n, lv) in m for m in memos):
            computed.append((lu, n, lv))
        depth[0] += 1
        try:
            return real(lu, n, lv, target, *memos)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fock, "_wick", spy)
    V = build_heisenberg(6)
    u = GradedVector({(4, 1, 1, 1): 1, (1, 1, 1): 2})
    v = GradedVector({(2, 1): 1, (1, 1, 1): -1})
    for cap in (6, 12):
        for t in range(-8, 8):
            V.act(u, t, v, ceiling=cap)
    assert len(computed) > 20
    assert len(computed) == len(set(computed))


def test_a_probed_corruption_stays_out_of_the_memos():
    # ((1, 1, 1), -3, (1,)) lies above level 4 and the loss flag reads it
    # while corrupted; asked for afterwards, as the subkey that peeling the
    # creator a(-2) from `sup` reads, and then directly, it is clean
    key, sup = ((1, 1, 1), -3, (1,)), ((2, 1, 1, 1), -3, (1,))
    clean = build_heisenberg(4)
    V = build_heisenberg(4)
    V.corrupt(*key, min(clean.mode_basis(*key)), 1)
    assert V.apply_mode_flagged(GradedVector.basis(key[0]), key[1],
                                GradedVector.basis(key[2]))[1]
    V.clear_corruptions()
    assert V.mode_basis(*sup) == clean.mode_basis(*sup)
    assert V.mode_basis(*key) == clean.mode_basis(*key)


def test_subkeys_hold_no_asked_or_probed_key():
    V = build_heisenberg(4)
    u = GradedVector({(2, 1, 1): 1, (1, 1, 1): 3})
    v = GradedVector({(3, 1): 1, (1, 1): -2})
    for t in range(-6, 4):
        V.apply_mode_flagged(u, t, v)
    assert V._subkeys
    assert not V._subkeys.keys() & V._modes.keys()
    # the loss flag reads a kept subkey through mode_basis, which moves it
    # to ``_modes``
    key = max(V._subkeys, key=lambda k: (bool(V._subkeys[k]), k))
    lu, n, lv = key
    clean = build_heisenberg(4).mode_basis(*key)
    assert clean and V._subkeys[key] == clean
    cap = sum(lu) + sum(lv) - n - 2
    assert V.apply_mode_flagged(GradedVector.basis(lu), n,
                                GradedVector.basis(lv), cap)[1]
    assert key in V._modes and key not in V._subkeys
    assert V._modes[key] == clean and V.mode_basis(*key) == clean
    assert not V._subkeys.keys() & V._modes.keys()


def test_zero_rows_are_one_shared_read_only_mapping():
    V = build_heisenberg(4)
    u = GradedVector({(2, 1, 1): 1, (1, 1, 1): 3})
    v = GradedVector({(3, 1): 1, (1, 1): -2})
    for t in range(-6, 4):
        V.act(u, t, v)
    zeros = [k for k, row in V._subkeys.items() if not row]
    assert zeros and all(V._subkeys[k] is _ZERO_ROW for k in zeros)
    # asked for, a zero subkey moves to ``_modes`` as the shared row, and
    # so does a key whose image weight is negative
    for key in (zeros[0], ((1,), 5, (1,))):
        assert V.mode_basis(*key) is _ZERO_ROW
        assert V._modes[key] is _ZERO_ROW
    with pytest.raises(TypeError):
        _ZERO_ROW[()] = 1
    # a corruption on a zero key returns a fresh row of its own
    key = zeros[0]
    V.corrupt(*key, (1,), 1)
    got = V.mode_basis(*key)
    assert got == {(1,): 1} and got is not _ZERO_ROW
    assert not _ZERO_ROW and V._modes[key] is _ZERO_ROW
    V.clear_corruptions()
    assert V.mode_basis(*key) is _ZERO_ROW


# -- no float reaches a verification path ------------------------------------


def _floats(x):
    """Every float inside a (possibly nested) diff value."""
    if isinstance(x, float):
        yield x
    elif isinstance(x, (list, tuple, set)):
        for y in x:
            yield from _floats(y)
    elif isinstance(x, dict):
        for k, y in x.items():
            yield from _floats(k)
            yield from _floats(y)


def test_apply_mode_coefficients_are_exact():
    V = build_heisenberg(5)
    labels = V.basis_upto()
    for lu in labels:
        u = GradedVector.basis(lu)
        for lv in labels:
            v = GradedVector.basis(lv)
            for n in V.mode_range(u, v):
                for c in V.act(u, n, v).coeff.values():
                    assert isinstance(c, int), (lu, n, lv, c)


def test_no_float_in_any_suite(monkeypatch):
    from collections import Counter

    from voacalc import cli
    from voacalc.fock import HeisenbergVOA

    # the algebra's act, and the rows that the checks which apply one
    # basis label's mode to another read without it
    kinds: Counter = Counter()
    rows: Counter = Counter()
    real = HeisenbergVOA.apply_mode_flagged
    real_row = HeisenbergVOA.mode_basis

    def spy(self, u, n, v, ceiling=None):
        out, overflow = real(self, u, n, v, ceiling)
        for vec in (u, v, out):
            kinds.update(type(c).__name__ for c in vec.coeff.values())
        return out, overflow

    def row_spy(self, lu, n, lv):
        out = real_row(self, lu, n, lv)
        rows.update(type(c).__name__ for c in out.values())
        return out

    monkeypatch.setattr(HeisenbergVOA, "apply_mode_flagged", spy)
    monkeypatch.setattr(HeisenbergVOA, "mode_basis", row_spy)
    run = cli.run_suites(list(cli.SUITES), cli.SuiteConfig(level=4))
    for seen in (kinds, rows):
        assert seen["float"] == 0, seen
        assert seen["int"] > seen["Fraction"], seen
    for rep in run.reports:
        for d in rep.diffs:
            assert not list(_floats(d)), (rep.identity, d)
