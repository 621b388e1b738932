"""Exact scalar arithmetic: generalized binomials, Gaussian rationals, and
dense linear solving over an exact field.

Everything in this package computes with exact numbers; no floats appear
anywhere in the verification paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


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


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class QQi:
    """Gaussian rational a + b*i with exact Fraction components.

    Supports field arithmetic, integer powers (negative allowed), exact
    modulus-squared comparison, and hashing. Plain ints and Fractions
    promote automatically in mixed expressions.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    @staticmethod
    def promote(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        return QQi(_frac(x))

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def conj(self) -> "QQi":
        return QQi(self.re, -self.im)

    def inverse(self) -> "QQi":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return QQi(self.re / n, -self.im / n)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        try:
            o = QQi.promote(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __add__(self, other):
        o = QQi.promote(other)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = QQi.promote(other)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QQi.promote(other) - self

    def __mul__(self, other):
        o = QQi.promote(other)
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * QQi.promote(other).inverse()

    def __rtruediv__(self, other):
        return QQi.promote(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("QQi powers must be integers")
        base = self if n >= 0 else self.inverse()
        out = QQi(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
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


def gauss_solve(rows: list[list[Fraction]], rhs: list) -> list | None:
    """Solve a square exact linear system by Gaussian elimination.

    Returns the solution vector, or None when the matrix is singular.
    Entries may be ints, Fractions or QQi; rhs entries likewise. Pivots
    are inverted exactly, so integer input gives Fraction output.
    """
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = (a[col][col].inverse() if isinstance(a[col][col], QQi)
               else Fraction(1) / a[col][col])
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def exact_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix of ints or Fractions, by Gaussian
    elimination with exact arithmetic; always a Fraction."""
    n = len(rows)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det
