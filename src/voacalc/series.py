"""Sparse multivariate formal Laurent series with exact coefficients, and
the delta-function expansion.

A series stores finitely many coefficients on a finite exponent window;
storing a term outside the window is an error. Coefficients may be exact
rationals or any vector type with addition and scalar multiplication
(series of vectors arise as vertex-operator generating functions).

``delta_rows`` is the one place that computes the delta rows
binom(-a-1, k) s^k. The three-term engine of ``axioms`` reads them for
every jacobi, S3 and intertwiner verdict, and ``delta_expansion`` maps
them to the exponent triples of the ``delta-two-term`` and
``delta-three-term`` records, so those records check the rows the
verdicts use. The ``delta-fundamental`` product is a finite convolution
whose all-ones factor covers every exponent the window can reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Iterable

from .exact import binom


@dataclass(frozen=True)
class Window:
    """Per-variable inclusive exponent bounds."""

    bounds: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        for name, lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"window for {name} has lo > hi")

    @staticmethod
    def of(**kw: tuple[int, int]) -> "Window":
        return Window(tuple((k, lo, hi) for k, (lo, hi) in kw.items()))

    @staticmethod
    def symmetric(variables: Iterable[str], n: int) -> "Window":
        return Window(tuple((v, -n, n) for v in variables))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.bounds)

    def lo(self, var: str) -> int:
        for name, lo, _ in self.bounds:
            if name == var:
                return lo
        raise KeyError(var)

    def hi(self, var: str) -> int:
        for name, _, hi in self.bounds:
            if name == var:
                return hi
        raise KeyError(var)

    def contains(self, variables: tuple[str, ...], exps: tuple[int, ...]) -> bool:
        return all(self.lo(v) <= e <= self.hi(v)
                   for v, e in zip(variables, exps))


class FormalSeries:
    """Sparse Laurent series over named variables, restricted to a window.

    ``coeff`` maps exponent tuples (aligned with ``variables``) to nonzero
    coefficients; zero coefficients are never stored, so equality of two
    series on equal variable tuples is equality of the maps.
    """

    __slots__ = ("variables", "coeff", "window")

    def __init__(self, variables, coeff, window: Window):
        self.variables = tuple(variables)
        self.window = window
        clean = {}
        for exps, c in coeff.items():
            if not c:
                continue
            if not window.contains(self.variables, exps):
                raise ValueError(f"stored exponent {exps} outside window")
            clean[exps] = c
        self.coeff = clean

    @staticmethod
    def laurent_polynomial(coeff: dict) -> "FormalSeries":
        """The finite series in x with coefficients {(e,): c}, on the
        window its nonzero terms span (x^0 alone when there are none)."""
        exps = [e for (e,), c in coeff.items() if c] or [0]
        return FormalSeries(("x",), coeff, Window.of(x=(min(exps), max(exps))))

    def coefficient(self, exps: tuple[int, ...]):
        return self.coeff.get(tuple(exps), 0)

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.variables == other.variables and self.coeff == other.coeff

    def diff(self, other: "FormalSeries") -> list:
        """Exponents where the two series differ, with both coefficients."""
        if self.variables != other.variables:
            raise ValueError("variable mismatch")
        out = []
        for e in sorted(set(self.coeff) | set(other.coeff)):
            a = self.coeff.get(e, 0)
            b = other.coeff.get(e, 0)
            if a != b:
                out.append((e, a, b))
        return out

    def _combine(self, other: "FormalSeries", sign: int) -> "FormalSeries":
        if self.variables != other.variables:
            raise ValueError("variable mismatch in series addition")
        if self.window != other.window:
            raise ValueError("window mismatch in series addition")
        coeff = dict(self.coeff)
        for e, c in other.coeff.items():
            coeff[e] = coeff.get(e, 0) + (c if sign > 0 else -c)
        return FormalSeries(self.variables, coeff, self.window)

    def __add__(self, other):
        return self._combine(other, +1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c) -> "FormalSeries":
        return FormalSeries(self.variables,
                            {e: c * v for e, v in self.coeff.items()},
                            self.window)


def delta_rows(lo: int, hi: int, length: int, sign: int) -> tuple:
    """The delta-function expansion rows, as pairs (a, row) for a in
    lo..hi: row[k] = binom(-a-1, k) sign^k for k < length, the coefficient
    of x^(-a-1-k) y^k in (x + sign y)^(-a-1). As binom(n, k) = 0 exactly
    when 0 <= n < k, the nonzero entries are a prefix, and a row ends
    before its first 0."""
    return tuple((a, tuple(takewhile(bool, (binom(-a - 1, k) * sign ** k
                                            for k in range(length)))))
                 for a in range(lo, hi + 1))


# The four delta substitution patterns used by the three-variable identities.
# Each entry (x_p, x_a, (x_b, s), d) expands
# x_p^-1 delta((x_a + s x_b)/(d x_p)) = sum over n of
# d^n (x_a + s x_b)^n x_p^(-n-1), with x_b subordinate (nonnegative powers).
DELTA_PATTERNS = {
    "(x2+x0)/x1": ("x1", "x2", ("x0", 1), 1),
    "(x1-x0)/x2": ("x2", "x1", ("x0", -1), 1),
    "(x1-x2)/x0": ("x0", "x1", ("x2", -1), 1),
    "(x2-x1)/-x0": ("x0", "x2", ("x1", -1), -1),
}

DELTA_VARIABLES = ("x0", "x1", "x2")


def delta_expansion(pattern: str, window: Window) -> FormalSeries:
    """Three-variable delta-substitution series for one of the standard
    patterns, restricted to a finite window over (x0, x1, x2): the
    ``delta_rows`` of the prefactor's exponents, times d^n."""
    if pattern not in DELTA_PATTERNS:
        raise KeyError(f"unknown delta pattern {pattern!r}")
    pref, top, (sub, sign), d = DELTA_PATTERNS[pattern]
    axis = {v: i for i, v in enumerate(DELTA_VARIABLES)}
    coeff = {}
    for ep, row in delta_rows(window.lo(pref), window.hi(pref),
                              window.hi(sub) + 1, sign):
        n = -ep - 1
        dn = d if n % 2 else 1
        for k in range(max(0, window.lo(sub), n - window.hi(top)),
                       min(len(row), n - window.lo(top) + 1)):
            e = [0, 0, 0]
            e[axis[pref]], e[axis[top]], e[axis[sub]] = ep, n - k, k
            coeff[tuple(e)] = Fraction(dn * row[k])
    return FormalSeries(DELTA_VARIABLES, coeff, window)


def delta_series(var: str, window: Window) -> FormalSeries:
    """The one-variable series with every coefficient 1 on the window."""
    coeff = {(e,): Fraction(1)
             for e in range(window.lo(var), window.hi(var) + 1)}
    return FormalSeries((var,), coeff, window)


def check_delta_identity(kind: str, f: FormalSeries | None,
                         window: Window):
    """Verify one of the substitution identities coefficientwise on the
    window, returning a VerificationReport.

    ``fundamental`` multiplies a Laurent polynomial into the plain delta
    series by a finite convolution and compares against f(1) delta;
    ``two-term`` and ``three-term`` compare the standard three-variable
    expansions. Failures are report content, not exceptions.
    """
    from .reports import VerificationReport

    if kind == "fundamental":
        if f is None:
            raise ValueError("fundamental identity needs a Laurent polynomial")
        # the all-ones factor covers every exponent f can carry into the window
        (var,) = f.variables
        lo, hi = window.lo(var), window.hi(var)
        exps = [e for (e,) in f.coeff] or [0]
        ones = delta_series(var, Window.of(**{var: (lo - max(exps),
                                                    hi - min(exps))}))
        conv: dict = {}
        for (e,), c in f.coeff.items():
            for (o,), one in ones.coeff.items():
                if lo <= e + o <= hi:
                    conv[(e + o,)] = conv.get((e + o,), 0) + c * one
        lhs = FormalSeries((var,), conv, window)
        rhs = delta_series(var, window).scale(sum(f.coeff.values()))
        return VerificationReport.from_diffs("delta-fundamental",
                                             f"terms={len(f.coeff)}",
                                             lhs.diff(rhs))
    if kind == "two-term":
        lhs = delta_expansion("(x2+x0)/x1", window)
        rhs = delta_expansion("(x1-x0)/x2", window)
        return VerificationReport.from_diffs(
            "delta-two-term", f"win={window.hi('x0')}", lhs.diff(rhs))
    if kind == "three-term":
        lhs = delta_expansion("(x1-x2)/x0", window) \
            - delta_expansion("(x2-x1)/-x0", window)
        rhs = delta_expansion("(x1-x0)/x2", window)
        return VerificationReport.from_diffs(
            "delta-three-term", f"win={window.hi('x0')}", lhs.diff(rhs))
    raise ValueError(f"unknown delta identity {kind!r}")


def random_laurent_polynomial(rng) -> FormalSeries:
    """Seeded random Laurent polynomial in x with small exact
    coefficients: up to 6 terms, of degrees in -6..6."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = rng.randint(-6, 6)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if c:
            terms[(e,)] = terms.get((e,), Fraction(0)) + c
    if not any(terms.values()):
        terms = {(0,): Fraction(1)}
    return FormalSeries.laurent_polynomial(terms)
