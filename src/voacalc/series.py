"""Sparse multivariate formal Laurent series with exact coefficients.

A series stores the coefficients of the true (usually infinite) object
restricted to a finite exponent window, together with a per-variable
support descriptor recording how the true object extends past the window:

* ``FINITE``  -- every nonzero coefficient lies inside the window; the
  stored map is the whole truth.
* ``LOWER``   -- nothing below the window's lower bound; above it the
  true series may continue indefinitely.
* ``UPPER``   -- the mirror image: nothing above the upper bound.
* ``DOUBLY``  -- unknown outside the window in both directions.

Products are only formed where the convolution at every requested
exponent is a provably finite, fully known sum; anything else raises
instead of silently truncating. This is what makes a coefficientwise
"identity holds on this window" verdict trustworthy.

Coefficients may be exact rationals or any vector type supporting
addition and scalar multiplication (series of vectors arise as
vertex-operator generating functions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exact import binom


class IllDefinedProduct(Exception):
    """Raised when support descriptors allow an infinite convolution sum."""


class WindowViolation(Exception):
    """Raised when a requested window needs coefficients outside the
    provably known region of some factor."""


class Support(enum.Enum):
    FINITE = "finite"
    LOWER = "lower-truncated"
    UPPER = "upper-truncated"
    DOUBLY = "doubly-infinite"

    @property
    def bounded_below(self) -> bool:
        return self in (Support.FINITE, Support.LOWER)

    @property
    def bounded_above(self) -> bool:
        return self in (Support.FINITE, Support.UPPER)


def _kind_from_bounds(below: bool, above: bool) -> Support:
    if below and above:
        return Support.FINITE
    if below:
        return Support.LOWER
    if above:
        return Support.UPPER
    return Support.DOUBLY


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
        for v, e in zip(variables, exps):
            if not (self.lo(v) <= e <= self.hi(v)):
                return False
        return True


class FormalSeries:
    """Sparse Laurent series over named variables, restricted to a window.

    ``coeff`` maps exponent tuples (aligned with ``variables``) to nonzero
    coefficients; zero coefficients are never stored, so equality of two
    series on equal variable tuples is equality of the maps.
    """

    __slots__ = ("variables", "coeff", "window", "support")

    def __init__(self, variables, coeff, window: Window, support):
        self.variables = tuple(variables)
        self.window = window
        if isinstance(support, Support):
            support = {v: support for v in self.variables}
        self.support = dict(support)
        for v in self.variables:
            if v not in self.support:
                raise ValueError(f"missing support descriptor for {v}")
        clean = {}
        for exps, c in coeff.items():
            if not c:
                continue
            if not window.contains(self.variables, exps):
                raise WindowViolation(f"stored exponent {exps} outside window")
            clean[exps] = c
        self.coeff = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(variables, window: Window) -> "FormalSeries":
        return FormalSeries(variables, {}, window, Support.FINITE)

    @staticmethod
    def laurent_polynomial(coeff: dict) -> "FormalSeries":
        """The finite series in x with coefficients {(e,): c}, on the
        window its nonzero terms span (x^0 alone when there are none)."""
        exps = [e for (e,), c in coeff.items() if c] or [0]
        window = Window.of(x=(min(exps), max(exps)))
        return FormalSeries(("x",), coeff, window, Support.FINITE)

    # -- bookkeeping ----------------------------------------------------

    def _axis(self, var: str) -> int:
        return self.variables.index(var)

    def stored_range(self, var: str) -> tuple[int, int] | None:
        """(min, max) stored exponent in var, or None when no terms."""
        if not self.coeff:
            return None
        i = self._axis(var)
        es = [e[i] for e in self.coeff]
        return min(es), max(es)

    def known_lower_bound(self, var: str) -> int | None:
        """A proven lower bound for the true support in var, if any."""
        if not self.support[var].bounded_below:
            return None
        r = self.stored_range(var)
        if r is not None:
            return r[0]
        # nothing stored: support, if any, sits above the window
        return self.window.hi(var) + 1

    def known_upper_bound(self, var: str) -> int | None:
        if not self.support[var].bounded_above:
            return None
        r = self.stored_range(var)
        if r is not None:
            return r[1]
        return self.window.lo(var) - 1

    def is_zero(self) -> bool:
        return not self.coeff

    def coefficient(self, exps: tuple[int, ...]):
        return self.coeff.get(tuple(exps), 0)

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.variables == other.variables and self.coeff == other.coeff

    def __hash__(self):
        raise TypeError("FormalSeries is not hashable")

    def __repr__(self):
        n = len(self.coeff)
        return f"FormalSeries({'.'.join(self.variables)}, {n} terms)"

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

    # -- linear structure -------------------------------------------------

    def _combine(self, other: "FormalSeries", sign: int) -> "FormalSeries":
        if self.variables != other.variables:
            raise ValueError("variable mismatch in series addition")
        if self.window != other.window:
            raise ValueError("window mismatch in series addition")
        coeff = dict(self.coeff)
        for e, c in other.coeff.items():
            s = coeff.get(e, 0) + (c if sign > 0 else -c)
            if s:
                coeff[e] = s
            else:
                coeff.pop(e, None)
        support = {
            v: _kind_from_bounds(
                self.support[v].bounded_below and other.support[v].bounded_below,
                self.support[v].bounded_above and other.support[v].bounded_above,
            )
            for v in self.variables
        }
        return FormalSeries(self.variables, coeff, self.window, support)

    def __add__(self, other):
        return self._combine(other, +1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "FormalSeries":
        if not c:
            return FormalSeries(self.variables, {}, self.window, self.support)
        return FormalSeries(
            self.variables,
            {e: c * v for e, v in self.coeff.items()},
            self.window,
            self.support,
        )

    def restrict(self, window: Window) -> "FormalSeries":
        """Restrict to a window, degrading support claims in any direction
        where nonzero terms get clipped.

        Growing the window is only allowed in directions where the current
        descriptor proves the extension region is zero-free.
        """
        for v in self.variables:
            if window.lo(v) < self.window.lo(v) and not self.support[v].bounded_below:
                raise WindowViolation(f"{v}: cannot extend into unknown region below")
            if window.hi(v) > self.window.hi(v) and not self.support[v].bounded_above:
                raise WindowViolation(f"{v}: cannot extend into unknown region above")
        coeff = {}
        clipped_low = {v: False for v in self.variables}
        clipped_high = {v: False for v in self.variables}
        for e, c in self.coeff.items():
            inside = True
            for v, ev in zip(self.variables, e):
                if ev < window.lo(v):
                    clipped_low[v] = True
                    inside = False
                elif ev > window.hi(v):
                    clipped_high[v] = True
                    inside = False
            if inside:
                coeff[e] = c
        support = {}
        for v in self.variables:
            k = self.support[v]
            support[v] = _kind_from_bounds(
                k.bounded_below and not clipped_low[v],
                k.bounded_above and not clipped_high[v],
            )
        return FormalSeries(self.variables, coeff, window, support)


def series_multiply(a: FormalSeries, b: FormalSeries, window: Window) -> FormalSeries:
    """Product of two series restricted to ``window``.

    Raises IllDefinedProduct when the support descriptors permit an
    infinite convolution sum for some exponent, and WindowViolation when
    the requested window needs contributions outside the provably known
    regions of the factors.
    """
    if a.variables != b.variables:
        raise ValueError("variable mismatch in series product")
    variables = a.variables

    if a.is_zero() and all(a.support[v] is Support.FINITE for v in variables):
        return FormalSeries.zero(variables, window)
    if b.is_zero() and all(b.support[v] is Support.FINITE for v in variables):
        return FormalSeries.zero(variables, window)

    for v in variables:
        ka, kb = a.support[v], b.support[v]
        if (not ka.bounded_above and not kb.bounded_below) or (
                not ka.bounded_below and not kb.bounded_above):
            raise IllDefinedProduct(
                f"infinite convolution sum in variable {v}: "
                f"{ka.value} times {kb.value}")

    # completeness: unknown-region terms of one factor must not be able to
    # land in the window when paired with possibly-nonzero terms of the other
    for v in variables:
        for f, g in ((a, b), (b, a)):
            if not f.support[v].bounded_above:
                lb = g.known_lower_bound(v)
                if lb is None:
                    raise IllDefinedProduct(f"unbounded pairing in {v}")
                if window.hi(v) > f.window.hi(v) + lb:
                    raise WindowViolation(
                        f"{v}: window top {window.hi(v)} needs factor terms "
                        f"above {f.window.hi(v)}")
            if not f.support[v].bounded_below:
                ub = g.known_upper_bound(v)
                if ub is None:
                    raise IllDefinedProduct(f"unbounded pairing in {v}")
                if window.lo(v) < f.window.lo(v) + ub:
                    raise WindowViolation(
                        f"{v}: window bottom {window.lo(v)} needs factor "
                        f"terms below {f.window.lo(v)}")

    coeff = {}
    nvars = len(variables)
    lows = tuple(window.lo(v) for v in variables)
    highs = tuple(window.hi(v) for v in variables)
    for ea, ca in a.coeff.items():
        for eb, cb in b.coeff.items():
            e = tuple(ea[i] + eb[i] for i in range(nvars))
            ok = True
            for i in range(nvars):
                if not (lows[i] <= e[i] <= highs[i]):
                    ok = False
                    break
            if not ok:
                continue
            s = coeff.get(e)
            term = ca * cb
            coeff[e] = term if s is None else s + term
    coeff = {e: c for e, c in coeff.items() if c}

    support = {}
    for v in variables:
        below = a.support[v].bounded_below and b.support[v].bounded_below
        above = a.support[v].bounded_above and b.support[v].bounded_above
        if below:
            la, lb_ = a.known_lower_bound(v), b.known_lower_bound(v)
            below = la is not None and lb_ is not None and la + lb_ >= window.lo(v)
        if above:
            ua, ub = a.known_upper_bound(v), b.known_upper_bound(v)
            above = ua is not None and ub is not None and ua + ub <= window.hi(v)
        support[v] = _kind_from_bounds(bool(below), bool(above))
    return FormalSeries(variables, coeff, window, support)


# The four delta substitution patterns used by the three-variable identities.
# Each entry (x_p, (x_a, s_a), (x_b, s_b), d) expands
# x_p^-1 d^n (s_a x_a + s_b x_b)^n / x_p^n over n, with x_b subordinate
# (nonnegative powers).
DELTA_PATTERNS = {
    "(x2+x0)/x1": ("x1", ("x2", 1), ("x0", 1), 1),
    "(x1-x0)/x2": ("x2", ("x1", 1), ("x0", -1), 1),
    "(x1-x2)/x0": ("x0", ("x1", 1), ("x2", -1), 1),
    "(x2-x1)/-x0": ("x0", ("x2", 1), ("x1", -1), -1),
}

DELTA_VARIABLES = ("x0", "x1", "x2")


def delta_expansion(pattern: str, window: Window) -> FormalSeries:
    """Three-variable delta-substitution series for one of the standard
    patterns, restricted to a finite window over (x0, x1, x2)."""
    if pattern not in DELTA_PATTERNS:
        raise KeyError(f"unknown delta pattern {pattern!r}")
    pref, (va, sa), (vb, sb), dsign = DELTA_PATTERNS[pattern]
    variables = DELTA_VARIABLES
    axis = {v: i for i, v in enumerate(variables)}
    coeff = {}
    for ep in range(window.lo(pref), window.hi(pref) + 1):
        n = -ep - 1
        k_lo = max(0, window.lo(vb), n - window.hi(va))
        k_hi = min(window.hi(vb), n - window.lo(va))
        for k in range(k_lo, k_hi + 1):
            c = binom(n, k) * (sa ** ((n - k) % 2)) * (sb ** (k % 2)) \
                * (dsign ** (n % 2))
            if not c:
                continue
            e = [0, 0, 0]
            e[axis[pref]] = ep
            e[axis[va]] = n - k
            e[axis[vb]] = k
            coeff[tuple(e)] = Fraction(c)
    support = {
        pref: Support.DOUBLY,
        va: Support.DOUBLY,
        vb: Support.LOWER if window.lo(vb) <= 0 else Support.DOUBLY,
    }
    return FormalSeries(variables, coeff, window, support)


def delta_series(var: str, window: Window) -> FormalSeries:
    """The one-variable series with every coefficient 1 on the window."""
    coeff = {(e,): Fraction(1)
             for e in range(window.lo(var), window.hi(var) + 1)}
    return FormalSeries((var,), coeff, window, Support.DOUBLY)


def check_delta_identity(kind: str, f: FormalSeries | None,
                         window: Window):
    """Verify one of the substitution identities coefficientwise on the
    window, returning a VerificationReport.

    ``fundamental`` multiplies a Laurent polynomial into the plain delta
    series and compares against the polynomial evaluated at one;
    ``two-term`` and ``three-term`` compare the standard three-variable
    expansions. Failures are report content, not exceptions.
    """
    from .reports import VerificationReport

    if kind == "fundamental":
        if f is None:
            raise ValueError("fundamental identity needs a Laurent polynomial")
        if any(k is not Support.FINITE for k in f.support.values()):
            raise ValueError("fundamental identity needs finite support")
        (var,) = f.variables
        rng = f.stored_range(var)
        lo, hi = rng if rng else (0, 0)
        big = Window.of(**{var: (window.lo(var) - hi, window.hi(var) - lo)})
        lhs = series_multiply(f, delta_series(var, big), window)
        f_at_one = sum(f.coeff.values())
        rhs = delta_series(var, window).scale(f_at_one)
        diffs = lhs.diff(rhs)
        return VerificationReport.from_diffs("delta-fundamental",
                                             f"terms={len(f.coeff)}", diffs)
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


def random_laurent_polynomial(rng, max_degree: int = 6,
                              max_terms: int = 6) -> FormalSeries:
    """Seeded random Laurent polynomial in x with small exact
    coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = rng.randint(-max_degree, max_degree)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if c:
            terms[(e,)] = terms.get((e,), Fraction(0)) + c
    if not any(terms.values()):
        terms = {(0,): Fraction(1)}
    return FormalSeries.laurent_polynomial(terms)
