import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voacalc import series
from voacalc.series import (FormalSeries, Window, check_delta_identity,
                            delta_expansion, random_laurent_polynomial)


def poly(terms, lo, hi, var="x"):
    return FormalSeries((var,), {(e,): Fraction(c) for e, c in terms.items()},
                        Window.of(**{var: (lo, hi)}))


def test_fundamental_delta_multiplication():
    # f(x) delta(x) = f(1) delta(x)
    f = poly({2: 3, -1: -1}, -1, 2)
    rep = check_delta_identity("fundamental", f, Window.of(x=(-6, 6)))
    assert rep.passed


def test_delta_expansion_single_coefficients():
    w = Window.symmetric(("x0", "x1", "x2"), 3)
    d = delta_expansion("(x1-x2)/x0", w)
    assert d.coefficient((-1, 0, 0)) == 1
    assert d.coefficient((-2, 1, 0)) == 1
    assert d.coefficient((-2, 0, 1)) == -1


def _binom(n, k):
    # the generalized binomial by its falling product, not exact.binom
    out = Fraction(1)
    for i in range(k):
        out = out * (n - i) / (i + 1)
    return out


# x_p^-1 delta((x_a + s x_b)/(d x_p)) = sum_n d^n (x_a + s x_b)^n x_p^(-n-1)
# as (x_p, x_a, x_b, s, d), read off each pattern's name
RAW_PATTERNS = {
    "(x2+x0)/x1": ("x1", "x2", "x0", 1, 1),
    "(x1-x0)/x2": ("x2", "x1", "x0", -1, 1),
    "(x1-x2)/x0": ("x0", "x1", "x2", -1, 1),
    "(x2-x1)/-x0": ("x0", "x2", "x1", -1, -1),
}


RAW_WINDOWS = (
    dict(x0=(-3, 3), x1=(-3, 3), x2=(-3, 3)),
    dict(x0=(-4, 2), x1=(-1, 5), x2=(0, 3)),
    dict(x0=(1, 4), x1=(-5, -2), x2=(-2, 2)),
    dict(x0=(-2, 5), x1=(2, 6), x2=(-6, -1)),
)


def test_delta_expansion_matches_raw_loops():
    # an independent expansion of all four patterns: every exponent triple
    # of the window, with the coefficient d^n binom(n, k) s^k of
    # x_p^(-n-1) x_a^(n-k) x_b^k
    for (pattern, (pref, top, sub, s, d)), bounds in itertools.product(
            RAW_PATTERNS.items(), RAW_WINDOWS):
        want = {}
        for e in itertools.product(*(range(lo, hi + 1)
                                     for lo, hi in bounds.values())):
            x = dict(zip(bounds, e))
            n, k = -x[pref] - 1, x[sub]
            if k >= 0 and x[top] == n - k:
                c = _binom(n, k) * Fraction(s) ** k * Fraction(d) ** n
                if c:
                    want[tuple(x[v] for v in ("x0", "x1", "x2"))] = c
        got = delta_expansion(pattern, Window.of(**bounds)).coeff
        assert got == want, (pattern, bounds)
        assert all(type(c) is Fraction for c in got.values())


def test_two_and_three_term_identities():
    w = Window.symmetric(("x0", "x1", "x2"), 4)
    assert check_delta_identity("two-term", None, w).passed
    assert check_delta_identity("three-term", None, w).passed


def test_three_term_negative_control():
    # flipping the middle sign breaks the identity
    w = Window.symmetric(("x0", "x1", "x2"), 3)
    lhs = delta_expansion("(x1-x2)/x0", w) + delta_expansion("(x2-x1)/-x0", w)
    rhs = delta_expansion("(x1-x0)/x2", w)
    assert lhs.diff(rhs)


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=25, deadline=None)
def test_fundamental_identity_random(seed):
    import random
    rng = random.Random(seed)
    f = random_laurent_polynomial(rng)
    rep = check_delta_identity("fundamental", f, Window.of(x=(-6, 6)))
    assert rep.passed


def test_short_delta_window_fails_fundamental(monkeypatch):
    # negative control: an all-ones factor one short at its top drops the
    # lowest term of f from the top coefficient of the product
    win = Window.of(x=(-6, 6))
    f = poly({2: 3, -1: -1}, -1, 2)
    real = series.delta_series

    def short(var, w):
        if w == win:
            return real(var, w)
        return real(var, Window.of(**{var: (w.lo(var), w.hi(var) - 1)}))

    assert check_delta_identity("fundamental", f, win).passed
    monkeypatch.setattr(series, "delta_series", short)
    rep = check_delta_identity("fundamental", f, win)
    assert rep.failed
    assert rep.diffs == [((6,), 3, 2)]
