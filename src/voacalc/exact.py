"""Exact scalar arithmetic: generalized binomials, Gaussian rationals, and
one dense elimination over an exact field, which gives a square system's
determinant and its solutions together.

Everything in this package computes with exact numbers; no floats appear
anywhere in the verification paths. Exact values are int-first: an
integral result is kept as an ``int`` (``int_first``).

A Gaussian rational ``QQi`` is three Python ints (a, b, d) standing for
(a + b*i)/d, kept in the normal form d > 0, gcd(a, b, d) = 1. Each
operation does its work on ints and reduces once, with a single
three-argument gcd, where two ``Fraction`` components paid a gcd and an
object per component operation. The normal form is unique, so equality
compares the triples.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, gcd, lcm


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for any integer n and k >= 0.

    For n < 0 this is the coefficient appearing in the binomial series,
    C(n, k) = (-1)^k C(k - n - 1, k).
    """
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(k - n - 1, k)


def int_first(x):
    """An integral ``Fraction`` as its ``int``; anything else unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class derived_once:
    """A method read as an attribute, computed on first read and set on
    the instance, frozen dataclasses included. ``functools.cached_property``
    would build each instance a ``__dict__``, which costs memory."""

    def __init__(self, fn):
        self.fn = fn

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.fn.__name__, value)
        return value


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


_new = object.__new__
_HASH_P, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _qqi(a: int, b: int, d: int) -> "QQi":
    """(a + b i)/d from ints already in normal form."""
    q = _new(QQi)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def _reduced(a: int, b: int, d: int) -> "QQi":
    """(a + b i)/d from ints with d > 0, brought to normal form."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _qqi(a, b, d)


def _parts(x) -> tuple[int, int, int]:
    """The normal-form triple of a QQi, int or Fraction operand."""
    if isinstance(x, QQi):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> "QQi":
    """(a + b i)/d + (c + e i)/f for normal-form triples."""
    if d == f:
        return _reduced(a + c, b + e, d)
    return _reduced(a * f + c * d, b * f + e * d, d * f)


def _quotient(a: int, b: int, d: int, c: int, e: int, f: int) -> "QQi":
    """((a + b i)/d) / ((c + e i)/f) for normal-form triples."""
    n = c * c + e * e
    if not n:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * n)


class QQi:
    """Gaussian rational (a + b*i)/d held as three Python ints.

    Normal form: d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1) and two
    equal values have equal triples. Each operation builds its result
    from integer products and normalises with one gcd; an ``int``
    addend needs none and an ``int`` factor only gcd(factor, d).

    Supports field arithmetic, integer powers (negative allowed), exact
    modulus-squared comparison, and hashing. Plain ints and Fractions
    promote automatically in mixed expressions, compare equal to the
    real QQi of the same value and hash like it; anything else (a float
    above all) raises ``TypeError``. ``re`` and ``im`` are read-only
    ``Fraction`` views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        d = lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    def __delattr__(self, name):
        raise AttributeError("QQi is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def promote(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        return _qqi(*_parts(x))

    def norm2_pair(self) -> tuple[int, int]:
        """The modulus squared as the integer pair (a^2 + b^2, d^2)."""
        a, b, d = self._a, self._b, self._d
        return a * a + b * b, d * d

    def norm2(self) -> Fraction:
        return Fraction(*self.norm2_pair())

    def inverse(self) -> "QQi":
        return _quotient(1, 0, 1, self._a, self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if isinstance(other, QQi):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        if d == 1:
            return hash(a)
        # hash(Fraction(a, d)), from the ints as Fraction computes it
        h = abs(a) * pow(d, -1, _HASH_P) % _HASH_P if d % _HASH_P else _HASH_INF
        return hash(h if a >= 0 else -h)

    def __neg__(self):
        return _qqi(-self._a, -self._b, self._d)

    def __add__(self, other):
        if type(other) is int:
            # adding a multiple of d keeps gcd(a, b, d) = 1
            return _qqi(self._a + other * self._d, self._b, self._d)
        return _sum(self._a, self._b, self._d, *_parts(other))

    __radd__ = __add__

    def __sub__(self, other):
        c, e, f = _parts(other)
        return _sum(self._a, self._b, self._d, -c, -e, f)

    def __rsub__(self, other):
        return _sum(*_parts(other), -self._a, -self._b, self._d)

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is int:
            # gcd(a, b, d) = 1, so only other and d can share a factor
            g = gcd(other, d)
            if g != 1:
                other //= g
                d //= g
            return _qqi(a * other, b * other, d)
        c, e, f = _parts(other)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _quotient(self._a, self._b, self._d, *_parts(other))

    def __rtruediv__(self, other):
        return _quotient(*_parts(other), self._a, self._b, self._d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("QQi powers must be integers")
        q = self if n >= 0 else self.inverse()
        a, b, d = q._a, q._b, q._d
        n = abs(n)
        x, y = 1, 0
        for _ in range(n):
            x, y = x * a - y * b, x * b + y * a
        return _reduced(x, y, d ** n)

    def __repr__(self):
        if not self._b:
            return str(self._a) if self._d == 1 else f"{self._a}/{self._d}"
        return f"({self.re},{self.im})"

    @staticmethod
    def parse(token: str) -> "QQi":
        """Parse `a/b` or `(re,im)` with Fraction components."""
        token = token.strip()
        if token.startswith("("):
            if not token.endswith(")"):
                raise ValueError(f"malformed complex literal {token!r}")
            re_s, _, im_s = token[1:-1].partition(",")
            return QQi(Fraction(re_s.strip()), Fraction(im_s.strip()))
        return QQi(Fraction(token))


# the slots are written only in ``__init__`` and ``_qqi``, past ``__setattr__``
_set_a, _set_b, _set_d = QQi._a.__set__, QQi._b.__set__, QQi._d.__set__


def gauss_solve(rows: list[list], columns: list[list]) -> tuple:
    """Solve a square exact linear system for each right-hand column by
    one Gauss-Jordan elimination that tracks the determinant.

    Returns (determinant, solution columns), or (0, None) when the matrix
    is singular. Entries may be ints, Fractions or QQi; column entries
    likewise. Pivots are inverted exactly, so integer input gives a
    Fraction determinant and Fraction solutions.
    """
    n = len(rows)
    a = [list(r) + [c[i] for c in columns] for i, r in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = (a[col][col].inverse() if isinstance(a[col][col], QQi)
               else Fraction(1) / a[col][col])
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, [[a[i][n + k] for i in range(n)] for k in range(len(columns))]
