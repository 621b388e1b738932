"""Rank-one free boson Fock space, truncated by weight, with exact modes.

The graded space has one basis state per integer partition: the partition
(n_1 >= ... >= n_k) stands for the state built by applying the creation
operators a(-n_1)...a(-n_k) to the vacuum, where the oscillators satisfy
[a(m), a(n)] = m delta_{m+n,0} and a(0) acts as zero. The vertex operator
of a basis state is the normal-ordered product of derived currents

    Y(a(-n_1)...a(-n_k)|0>, x) = : prod_i d^(n_i-1) a(x) / (n_i-1)! :

with a(x) = sum_m a(m) x^(-m-1). The conformal vector is half the square
of the current, giving central charge 1.

Mode coefficients of basis states on basis states are integers; they are
computed exactly (independent of the truncation level) and memoized. The
declared level only controls where results get clipped, so callers that
need exact intermediate values above the level can pass an explicit
ceiling.

Vector coefficients are exact: ``int`` first, since basis vectors carry
the integer 1 and every structure constant is an integer, and ``Fraction``
or ``QQi`` only once a genuine fraction (the 1/2 of the conformal vector,
the 1/j! of an exponential) or a Gaussian rational enters. They are never
``float``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .series import FormalSeries, Support, Window


@lru_cache(maxsize=None)
def partitions(weight: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``weight`` as descending tuples."""
    if weight < 0:
        return ()
    if weight == 0:
        return ((),)

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(weight, weight))


def partitions_upto(maxweight: int) -> list[tuple[int, ...]]:
    out = []
    for w in range(maxweight + 1):
        out.extend(partitions(w))
    return out


class GradedVector:
    """Finite linear combination of partition-labelled basis states.

    Coefficients are exact: ``int`` until a division brings in a
    ``Fraction``, or ``QQi`` where moduli evaluations need Gaussian
    rationals; never ``float``. Zero coefficients are never stored.
    """

    __slots__ = ("coeff",)

    def __init__(self, coeff=None):
        if coeff is None:
            self.coeff = {}
        else:
            self.coeff = {k: v for k, v in coeff.items() if v}

    @staticmethod
    def basis(label) -> "GradedVector":
        return GradedVector({tuple(label): 1})

    def is_zero(self) -> bool:
        return not self.coeff

    def __bool__(self):
        return bool(self.coeff)

    def __eq__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return self.coeff == other.coeff

    def __hash__(self):
        raise TypeError("GradedVector is not hashable")

    def __add__(self, other):
        out = dict(self.coeff)
        for k, v in other.coeff.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = GradedVector.__new__(GradedVector)
        r.coeff = out
        return r

    def __sub__(self, other):
        out = dict(self.coeff)
        for k, v in other.coeff.items():
            s = out.get(k, 0) - v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = GradedVector.__new__(GradedVector)
        r.coeff = out
        return r

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "GradedVector":
        if not c:
            return GradedVector()
        r = GradedVector.__new__(GradedVector)
        r.coeff = {k: c * v for k, v in self.coeff.items()}
        return r

    def weights(self) -> set[int]:
        return {sum(k) for k in self.coeff}

    def weight(self) -> int:
        """Weight of a homogeneous vector (raises if mixed or zero)."""
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError(f"vector is not homogeneous: weights {sorted(ws)}")
        return ws.pop()

    def component(self, weight: int) -> "GradedVector":
        return GradedVector({k: v for k, v in self.coeff.items()
                             if sum(k) == weight})

    def clip(self, ceiling: int) -> tuple["GradedVector", bool]:
        """Drop components above ``ceiling``; report whether any were."""
        kept, dropped = {}, False
        for k, v in self.coeff.items():
            if sum(k) <= ceiling:
                kept[k] = v
            else:
                dropped = True
        if not dropped:
            return self, False
        r = GradedVector.__new__(GradedVector)
        r.coeff = kept
        return r, True

    def __repr__(self):
        if not self.coeff:
            return "0"
        parts = [f"{v}*{list(k)}" for k, v in sorted(self.coeff.items())]
        return " + ".join(parts)


class HeisenbergVOA:
    """Truncated free boson vertex operator algebra.

    ``level`` is the declared weight ceiling: the basis consists of
    partitions of weight <= level, and mode applications clip above it
    (flagging the loss) unless an explicit higher ceiling is given.
    """

    def __init__(self, level: int):
        if level < 0:
            raise ValueError("level must be nonnegative")
        self.level = level
        self.central_charge = Fraction(1)
        self.vacuum = GradedVector.basis(())
        self.omega = GradedVector.basis((1, 1)).scale(Fraction(1, 2))
        self._modes: dict = {}
        self._corruptions: dict = {}

    # -- basis bookkeeping ------------------------------------------------

    def dim(self, weight: int) -> int:
        if weight < 0 or weight > self.level:
            return 0
        return len(partitions(weight))

    def basis(self, weight: int) -> tuple[tuple[int, ...], ...]:
        return partitions(weight)

    def basis_upto(self, maxweight: int | None = None) -> list[tuple[int, ...]]:
        return partitions_upto(self.level if maxweight is None else maxweight)

    def is_vacuum_multiple(self, u: GradedVector) -> bool:
        return set(u.coeff) == {()}

    # -- exact mode coefficients -------------------------------------------

    def mode_basis(self, lu: tuple[int, ...], n: int,
                   lv: tuple[int, ...]) -> dict:
        """Exact action of the n-th mode of basis state lu on basis state lv,
        as a map partition -> integer coefficient (untruncated)."""
        key = (lu, n, lv)
        out = self._modes.get(key)
        if out is None:
            out = self._compute_mode(lu, n, lv)
            self._modes[key] = out
        if self._corruptions:
            delta = self._corruptions.get(key)
            if delta:
                out = dict(out)
                for label, d in delta.items():
                    s = out.get(label, 0) + d
                    if s:
                        out[label] = s
                    else:
                        out.pop(label, None)
        return out

    def _compute_mode(self, lu, n, lv) -> dict:
        target = sum(lu) + sum(lv) - n - 1
        if target < 0:
            return {}
        k = len(lu)
        if k == 0:
            return {lv: 1} if n == -1 else {}

        from .exact import binom

        total = n + 1 - sum(lu)
        maxpart = max(lv) if lv else 0
        out: dict = {}
        avail: dict[int, int] = {}
        for p in lv:
            avail[p] = avail.get(p, 0) + 1
        created: list[int] = []

        # each factor consumes one oscillator index: an annihilator must
        # match an available part (normal ordering applies them jointly,
        # which the incremental multiplicity factor reproduces), while a
        # creator must clear the derivative order for a nonzero binomial
        def rec(i: int, remaining: int, created_wt: int):
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
            m_hi = min(-ni, hi)
            m_lo = max(-(target - created_wt), lo)
            for m in range(m_lo, m_hi + 1):
                coefs[i + 1] = base * binom(-m - 1, ni - 1)
                created.append(-m)
                rec(i + 1, remaining - m, created_wt - m)
                created.pop()

        coefs = [1] * (k + 1)
        rec(0, total, 0)
        return {label: c for label, c in out.items() if c}

    # -- public operations --------------------------------------------------

    def apply_mode_flagged(self, u: GradedVector, n: int, v: GradedVector,
                           ceiling: int | None = None
                           ) -> tuple[GradedVector, bool]:
        """u_n v clipped at the ceiling (default the declared level), with a
        flag reporting whether clipping dropped anything."""
        cap = self.level if ceiling is None else ceiling
        acc: dict = {}
        overflow = False
        for lu, cu in u.coeff.items():
            for lv, cv in v.coeff.items():
                target = sum(lu) + sum(lv) - n - 1
                if target < 0:
                    continue
                if target > cap:
                    # a nonzero true value here would be lost entirely;
                    # once one is found the flag is settled
                    if not overflow and self.mode_basis(lu, n, lv):
                        overflow = True
                    continue
                c = cu * cv
                for label, m in self.mode_basis(lu, n, lv).items():
                    s = acc.get(label, 0) + c * m
                    if s:
                        acc[label] = s
                    else:
                        acc.pop(label, None)
        r = GradedVector.__new__(GradedVector)
        r.coeff = acc
        return r, overflow

    def apply_mode(self, u: GradedVector, n: int, v: GradedVector,
                   ceiling: int | None = None) -> GradedVector:
        return self.apply_mode_flagged(u, n, v, ceiling)[0]

    def mode_range(self, u: GradedVector, v: GradedVector,
                   ceiling: int | None = None) -> range:
        """Mode indices n for which u_n v can be nonzero below the ceiling.

        Both vectors may mix weights; the range covers every component pair.
        """
        cap = self.level if ceiling is None else ceiling
        if u.is_zero() or v.is_zero():
            return range(0)
        wu = [sum(l) for l in u.coeff]
        wv = [sum(l) for l in v.coeff]
        return range(min(wu) + min(wv) - 1 - cap, max(wu) + max(wv))

    def vertex_series(self, u: GradedVector, v: GradedVector,
                      window: Window, var: str = "x") -> FormalSeries:
        """Y(u, x) v as a vector-valued series on the window."""
        coeff = {}
        lo_n, hi_n = None, None
        for n in self.mode_range(u, v):
            val = self.apply_mode(u, n, v)
            if val:
                coeff[(-n - 1,)] = val
                lo_n = n if lo_n is None else min(lo_n, n)
                hi_n = n if hi_n is None else max(hi_n, n)
        if lo_n is None:
            full = FormalSeries((var,), {}, Window.of(**{var: (0, 0)}),
                                Support.FINITE)
        else:
            full_win = Window.of(**{var: (-hi_n - 1, -lo_n - 1)})
            full = FormalSeries((var,), coeff, full_win, Support.FINITE)
        return full.restrict(window)

    def virasoro(self, n: int, v: GradedVector,
                 ceiling: int | None = None) -> GradedVector:
        """L(n) v, the (n+1)-st mode of the conformal vector."""
        return self.apply_mode(self.omega, n + 1, v, ceiling)

    def exp_virasoro(self, n: int, v: GradedVector, power: int,
                     ceiling: int | None = None) -> GradedVector:
        """L(n)^power v / power! as an exact vector."""
        out = v
        for j in range(1, power + 1):
            out = self.virasoro(n, out, ceiling).scale(Fraction(1, j))
            if out.is_zero():
                break
        return out

    # -- verification aids ---------------------------------------------------

    def corrupt(self, lu, n, lv, label, delta: int) -> None:
        """Additively corrupt one memoized structure constant (for negative
        controls and mutation testing)."""
        key = (tuple(lu), n, tuple(lv))
        self._corruptions.setdefault(key, {})
        self._corruptions[key][tuple(label)] = \
            self._corruptions[key].get(tuple(label), 0) + delta

    def clear_corruptions(self) -> None:
        self._corruptions.clear()

    def touched_mode_keys(self) -> list:
        return list(self._modes)


def build_heisenberg(level: int) -> HeisenbergVOA:
    """Construct the truncated free boson algebra at the given level."""
    return HeisenbergVOA(level)

