import dataclasses
import importlib.util
import itertools
import operator
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from voacalc.exact import QQi, derived_once, gauss_solve, int_first

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_exact_det_of_integer_matrix_is_fraction():
    det, _ = gauss_solve([[2, 1], [1, 1]], [])
    assert isinstance(det, Fraction) and det == 1
    det, _ = gauss_solve([[3, 1, 0], [1, 3, 1], [0, 1, 3]], [])
    assert isinstance(det, Fraction) and det == 21


def test_gauss_solve_of_integer_system_is_fraction():
    _, (sol,) = gauss_solve([[2, 1], [1, 1]], [[1, 0]])
    assert all(isinstance(x, Fraction) for x in sol)
    assert sol == [1, -1]
    _, (sol,) = gauss_solve([[3, 0], [0, 3]], [[1, 2]])
    assert all(isinstance(x, Fraction) for x in sol)
    assert sol == [Fraction(1, 3), Fraction(2, 3)]


def test_gauss_solve_gaussian_rationals():
    _, (sol,) = gauss_solve([[QQi(0, 1), QQi(1)], [QQi(1), QQi(1)]],
                            [[QQi(1), QQi(2)]])
    # i x + y = 1, x + y = 2
    x, y = sol
    assert QQi(0, 1) * x + y == 1 and x + y == 2


def leibniz_det(rows):
    """The determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


exact_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def exact_systems(draw):
    n = draw(st.integers(1, 4))
    rows = [[draw(exact_entries) for _ in range(n)] for _ in range(n)]
    columns = [[draw(exact_entries) for _ in range(n)]
               for _ in range(draw(st.integers(0, 2)))]
    return rows, columns


@given(exact_systems())
@settings(max_examples=200, deadline=None)
def test_gauss_solve_determinant_and_solutions(system):
    rows, columns = system
    det, sols = gauss_solve(rows, columns)
    assert det == leibniz_det(rows)
    if det == 0:
        assert sols is None
        return
    assert len(sols) == len(columns)
    for b, x in zip(columns, sols):
        assert [sum(r[j] * x[j] for j in range(len(r))) for r in rows] == b


def test_gauss_solve_singular_matrix():
    assert gauss_solve([[1, 2], [2, 4]], [[1, 0]]) == (0, None)
    assert gauss_solve([[0, 0, 1], [0, 1, 0], [0, 2, 0]], []) == (0, None)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.builds(QQi, exact_entries, exact_entries),
                      min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.builds(QQi, exact_entries, exact_entries),
             min_size=n, max_size=n))))
@settings(max_examples=100, deadline=None)
def test_gauss_solve_gaussian_rational_systems(system):
    rows, b = system
    det, sols = gauss_solve(rows, [b])
    assert det == leibniz_det(rows)
    if sols is not None:
        x = sols[0]
        assert [sum((r[j] * x[j] for j in range(len(r))), QQi(0))
                for r in rows] == b


# -- QQi against the two-Fraction representation it replaced ----------------


class OldQQi:
    """The former QQi: a + b*i with two Fraction components."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def promote(x):
        return x if isinstance(x, OldQQi) else OldQQi(x)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return OldQQi(self.re / n, -self.im / n)

    def __eq__(self, other):
        o = OldQQi.promote(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __neg__(self):
        return OldQQi(-self.re, -self.im)

    def __add__(self, other):
        o = OldQQi.promote(other)
        return OldQQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = OldQQi.promote(other)
        return OldQQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return OldQQi.promote(other) - self

    def __mul__(self, other):
        o = OldQQi.promote(other)
        return OldQQi(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * OldQQi.promote(other).inverse()

    def __rtruediv__(self, other):
        return OldQQi.promote(other) * self.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = OldQQi(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    # the fused kernels of QQi, as the compositions they replace

    def dist2_pair(self, other):
        n = (self - other).norm2()
        return n.numerator, n.denominator

    def plus_quotient(self, q, a):
        return self + q / a

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re},{self.im})"


_ints = st.integers(-40, 40)
_fracs = st.builds(Fraction, _ints, st.integers(1, 12))
_qqis = st.tuples(_fracs, _fracs)  # (re, im) of a Gaussian rational
# an operand: ("q", (re, im)), or a plain int or Fraction
_operands = st.one_of(st.tuples(st.just("q"), _qqis),
                      st.tuples(st.just("i"), _ints),
                      st.tuples(st.just("f"), _fracs))


def _new(operand):
    kind, x = operand
    return QQi(*x) if kind == "q" else x


def _old(operand):
    kind, x = operand
    return OldQQi(*x) if kind == "q" else x


def _check(new, old):
    """new is a QQi in normal form with the oracle's value and repr."""
    assert isinstance(new, QQi)
    a, b, d = new._a, new._b, new._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (new.re, new.im) == (old.re, old.im)
    assert repr(new) == repr(old)
    assert QQi.parse(repr(new)) == new


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def _dist2_pair(x, y, _):
    return x.dist2_pair(y)


def _plus_quotient(x, y, z):
    return x.plus_quotient(y, z)


_half_3i, _zero = ("q", (Fraction(1, 2), 3)), ("q", (0, 0))


@given(_operands, _operands, _operands,
       st.sampled_from([operator.add, operator.sub, operator.mul,
                        operator.truediv, _dist2_pair, _plus_quotient]))
@example(_half_3i, _zero, _zero, operator.truediv)
@example(_half_3i, ("i", 0), _zero, operator.truediv)
@example(("i", 1), _zero, _zero, operator.truediv)
@example(_half_3i, _half_3i, _zero, _plus_quotient)
@example(_half_3i, _half_3i, ("i", 0), _plus_quotient)
@settings(max_examples=600, deadline=None)
def test_qqi_arithmetic_matches_two_fraction_oracle(x, y, z, op):
    # two QQi operands take the operators' QQi-to-QQi paths; the fused
    # kernels take QQi operands only, so theirs are promoted; the examples
    # divide by zero on every division path
    if op in (_dist2_pair, _plus_quotient):
        new = _outcome(op, *map(QQi.promote, map(_new, (x, y, z))))
        old = _outcome(op, *map(OldQQi.promote, map(_old, (x, y, z))))
    else:
        if "q" not in (x[0], y[0]):
            x = ("q", (x[1], 0))
        new = _outcome(op, _new(x), _new(y))
        old = _outcome(op, _old(x), _old(y))
    if old is ZeroDivisionError:
        assert new is ZeroDivisionError
    elif op is _dist2_pair:
        # an unreduced pair, equal in value to the reduced modulus squared
        (n, d), (m, e) = new, old
        assert type(n) is int and type(d) is int and d > 0
        assert n * e == m * d
    else:
        _check(new, old)


@given(_qqis, st.integers(-6, 6))
@settings(max_examples=200, deadline=None)
def test_qqi_unary_operations_match_oracle(x, n):
    new, old = QQi(*x), OldQQi(*x)
    got = _outcome(pow, new, n)
    want = _outcome(pow, old, n)
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        _check(got, want)
    if old.norm2():
        _check(new.inverse(), old.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            new.inverse()
    _check(-new, -old)
    assert isinstance(new.norm2(), Fraction) and new.norm2() == old.norm2()
    assert bool(new) == bool(old.re or old.im)
    _check(QQi.promote(new), old)


@given(_qqis, _qqis, _fracs)
@settings(max_examples=300, deadline=None)
def test_qqi_equality_and_hash(x, y, f):
    new, old = QQi(*x), OldQQi(*x)
    assert (new == QQi(*y)) == (old == OldQQi(*y))
    assert (new == f) == (old == f) == (f == new)
    real = QQi(f)
    assert real == f and f == real and hash(real) == hash(f)
    if f.denominator == 1:
        n = f.numerator
        assert real == n and n == real and hash(real) == hash(n)
    if new == QQi(*y):
        assert hash(new) == hash(QQi(*y))
    assert not new == 0.5 and new != 0.5
    with pytest.raises(TypeError):
        new + 0.5


@pytest.mark.parametrize("num", [1, -1, 7, -(2 ** 70)])
@pytest.mark.parametrize("den", [3, sys.hash_info.modulus,
                                 5 * sys.hash_info.modulus, 2 ** 64 + 1])
def test_qqi_hash_is_fraction_hash_at_any_denominator(num, den):
    # QQi inverts the denominator modulo the hash modulus itself; a
    # multiple of the modulus has no inverse and hashes as infinity
    f = Fraction(num, den)
    assert hash(QQi(f)) == hash(f)


def test_qqi_repr_strings_are_unchanged():
    assert repr(QQi(3)) == "3"
    assert repr(QQi(Fraction(1, 2))) == "1/2"
    assert repr(QQi(Fraction(1, 2), Fraction(1, 3))) == "(1/2,1/3)"
    assert repr(QQi(Fraction(-4, 6), 2)) == "(-2/3,2)"


def test_qqi_is_read_only():
    q = QQi(1, 2)
    with pytest.raises(AttributeError):
        q.re = Fraction(3)
    with pytest.raises(AttributeError):
        q.other = 1
    # the private slots too: a QQi is a dict key and a shared constant
    with pytest.raises(AttributeError):
        q._a = 3
    with pytest.raises(AttributeError):
        del q._d
    assert q == QQi(1, 2) and hash(q) == hash(QQi(1, 2))


def test_every_traced_operator_is_a_qqi_method():
    # the benchmark's tracer wraps these names on the class
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.QQI_OPS:
        assert callable(QQi.__dict__.get(name)), name


def test_int_first():
    three = int_first(Fraction(6, 2))
    assert type(three) is int and three == 3
    assert int_first(Fraction(7, 2)) == Fraction(7, 2)
    assert int_first(5) == 5 and int_first(QQi(2)) == QQi(2)


def test_derived_once_computes_on_first_read_of_a_frozen_instance():
    calls = []

    @dataclasses.dataclass(frozen=True)
    class Box:
        items: tuple

        @derived_once
        def empty(self):
            calls.append(self)
            return not any(self.items)

    b = Box((0, 0))
    assert calls == []
    assert b.empty and b.empty and calls == [b]
    assert not Box((0, 1)).empty and len(calls) == 2
    # the flag is no field: equality and hashing read ``items`` alone
    assert b == Box((0, 0)) and hash(b) == hash(Box((0, 0)))
    assert isinstance(Box.empty, derived_once)
