from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from voacalc.series import (FormalSeries, IllDefinedProduct, Support, Window,
                            WindowViolation, check_delta_identity,
                            delta_expansion, delta_series,
                            random_laurent_polynomial, series_multiply)


def poly(terms, lo, hi, var="x"):
    return FormalSeries((var,), {(e,): Fraction(c) for e, c in terms.items()},
                        Window.of(**{var: (lo, hi)}), Support.FINITE)


def test_polynomial_product():
    w = Window.of(x=(-2, 2))
    a = poly({0: 1, 1: 1}, -2, 2)
    b = poly({0: 1, 1: -1}, -2, 2)
    got = series_multiply(a, b, w)
    assert got.coeff == {(0,): 1, (2,): -1}


def test_fundamental_delta_multiplication():
    # f(x) delta(x) = f(1) delta(x)
    f = poly({2: 3, -1: -1}, -1, 2)
    rep = check_delta_identity("fundamental", f, Window.of(x=(-6, 6)))
    assert rep.passed


def test_delta_times_delta_rejected():
    w = Window.of(x=(-3, 3))
    d = delta_series("x", w)
    with pytest.raises(IllDefinedProduct):
        series_multiply(d, d, w)


def test_product_window_violation():
    # the delta window is too small to cover what the target needs
    f = poly({3: 1}, 0, 3)
    d = delta_series("x", Window.of(x=(-2, 2)))
    with pytest.raises(WindowViolation):
        series_multiply(f, d, Window.of(x=(-2, 2)))


def test_lower_truncated_product():
    # the geometric series sum_k x^k, known on 0..10 and unbounded above,
    # times 1 - x is 1; the product may not ask past the known region
    g = FormalSeries(("x",), {(e,): 1 for e in range(11)},
                     Window.of(x=(0, 10)), Support.LOWER)
    f = poly({0: 1, 1: -1}, 0, 1)
    got = series_multiply(g, f, Window.of(x=(-4, 10)))
    assert got.coeff == {(0,): 1}
    assert got.support["x"] is Support.LOWER
    with pytest.raises(WindowViolation):
        series_multiply(g, f, Window.of(x=(-4, 11)))


def test_delta_expansion_single_coefficients():
    w = Window.symmetric(("x0", "x1", "x2"), 3)
    d = delta_expansion("(x1-x2)/x0", w)
    assert d.coefficient((-1, 0, 0)) == 1
    assert d.coefficient((-2, 1, 0)) == 1
    assert d.coefficient((-2, 0, 1)) == -1


def test_delta_expansion_matches_raw_loops():
    # independent expansion of both sides of the two-term identity
    from voacalc.exact import binom
    w = Window.symmetric(("x0", "x1", "x2"), 3)
    lhs = {}
    for a in range(-3, 4):
        for b in range(-3, 4):
            n = -b - 1
            k = a
            c = n - k
            if not (-3 <= c <= 3) or k < 0:
                continue
            v = binom(n, k)
            if v:
                lhs[(a, b, c)] = Fraction(v)
    got = delta_expansion("(x2+x0)/x1", w)
    assert got.coeff == lhs


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


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=20, deadline=None)
def test_multiply_commutative_associative(seed):
    import random
    rng = random.Random(seed)
    w = Window.of(x=(-12, 12))
    target = Window.of(x=(-4, 4))
    ps = [random_laurent_polynomial(rng, max_degree=3, max_terms=3)
          for _ in range(3)]
    a, b, c = ps
    assert series_multiply(a, b, target) == series_multiply(b, a, target)
    left = series_multiply(series_multiply(a, b, w), c, target)
    right = series_multiply(a, series_multiply(b, c, w), target)
    assert left == right


def test_restrict_support_bookkeeping():
    # (x1 - x2)^3, a polynomial
    b = FormalSeries(("x1", "x2"), {(3, 0): 1, (2, 1): -3, (1, 2): 3,
                                    (0, 3): -1},
                     Window.of(x1=(0, 3), x2=(0, 3)), Support.FINITE)
    # restriction that clips degrades the claim
    w = Window.of(x1=(-2, 2), x2=(-2, 2))
    clipped = b.restrict(w)
    assert clipped.support["x1"] is not Support.FINITE
