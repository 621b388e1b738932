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
computed exactly (independent of the truncation level). The declared level
only controls where results get clipped, so callers that need exact
intermediate values above the level can pass an explicit ceiling.

A coefficient follows from Wick's theorem for the free field,

    Y(a(-k)w, x) = : d^(k-1)a(x)/(k-1)! Y(w, x) :,

by peeling one oscillator at a time (``_wick``): the creators of the
first factor go to the left of the remaining state's mode, its
annihilators to the right, and a single oscillator keeps only the mode
a(n-k+1). What is memoised where:

* Every memo is per algebra, and a run of ``voacalc`` builds one algebra
  per level, which all of its suites read (``cli.run_suites``), so a
  structure constant is computed once per run.
* ``HeisenbergVOA._modes`` holds exactly the keys asked for through
  ``mode_basis``, the loss flag's reads included; ``touched_mode_keys``
  lists them.
* The subkeys of a computation (the keys of two or more oscillators that
  the recursion reads) are kept in ``HeisenbergVOA._subkeys``, one memo
  per algebra, so that each is computed once: the pairs of one call
  share tails, and so do the calls of a loop over mode indices or
  ceilings, as in the sewing check. A key asked for through
  ``mode_basis`` moves to ``_modes`` and lives only there.
* A corruption (``corrupt``) is applied where ``mode_basis`` returns, so
  it changes its own key only; both memos hold clean values, which is
  all the recursion reads.
* Both memos keep every zero row as one shared read-only mapping,
  ``_ZERO_ROW``; a corruption on its key returns a fresh dict.

Vector coefficients are exact: ``int`` first, since basis vectors carry
the integer 1 and every structure constant is an integer, and ``Fraction``
or ``QQi`` only once a genuine fraction or a Gaussian rational enters.
The Virasoro modes act with the integer vector a(-1)^2|0> and halve, and
an exponential divides by k at its k-th step, both exactly (``divide``),
so a coefficient that is integral stays an ``int``. They are never
``float``.

``VOAAction`` is the base of every action (see ``axioms``); the algebra
is one, acting on itself with ``row`` = ``mode_basis``. ``apply_pairs`` is
the one bilinear mode loop over rows: it sums c row(lu, n, lv) over the
label pairs of two vectors (``label_pairs``), keeping a pair when its
image weight lies in 0..ceiling, as the algebra's ``act`` does.
``RowAction.act``, the action of the spaces whose modes are given on basis
labels (the contragredient module, the stored intertwiner modes and the
direct-sum map), forms the pairs at each call and runs it. The three-term
engine, the bracket formulas, the skew-symmetry and iterate-skew checks,
the dual-derivative and dual-Virasoro checks, ``conj_operator``, the
direct-sum pairings and the intertwiner-derivative check form them once
and run it at every mode index that shares them. A check that applies one
basis label's mode to another reads ``row`` and tests the image weight
itself. The algebra's ``act`` runs ``apply_mode_flagged``, which runs the
same loop and also reports whether a pair above the ceiling has a nonzero
row; ``act`` drops that flag.
``accumulate`` and ``divided`` are the int-first sum and exact division
of bare coefficient maps.

``exp_chain`` is the one place that computes L(n)^k v / k!: the chain
[v, L(n)v, L(n)^2 v/2!, ...] of e^{xL(n)} v, ending before its first zero
entry. Skew-symmetry, the contragredient conjugation and the sl(2)
conjugation checks all read entries of such chains.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import exact
from .reports import fmt_vec
from .series import FormalSeries, Window


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


# every zero row the memos keep: one shared mapping, which nobody can change
_ZERO_ROW = MappingProxyType({})


def _insert(label: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The descending label with one more part m."""
    i = 0
    for p in label:
        if p < m:
            break
        i += 1
    return label[:i] + (m,) + label[i:]


def _wick(lu, n, lv, target, subkeys, modes) -> dict:
    """mode_basis(lu, n, lv) for nonempty lu and target weight >= 0, by
    peeling the first oscillator a(-k) of lu.

    Y(a(-k)w, x) = :d^(k-1)a(x)/(k-1)! Y(w, x):, whose x^(-n-1)
    coefficient puts the creators a(-m), m >= k, to the left of w's mode
    n+m-k with weight binom(m-1, k-1), and the annihilators a(p) to its
    right with weight binom(-p-1, k-1); a(p) takes one part p out of lv
    with factor p times the multiplicity of p. Keys with two or more
    oscillators are looked up in ``subkeys``, then ``modes``, and stored in
    ``subkeys``, the key itself included.
    """
    binom = exact.binom
    k = lu[0]
    if len(lu) == 1:
        # only a(n-k+1) survives
        m = n - k + 1
        if m < 0:
            if -m < k:
                return {}
            return {_insert(lv, -m): binom(-m - 1, k - 1)}
        cnt = lv.count(m) if m else 0
        if not cnt:
            return {}
        i = lv.index(m)
        return {lv[:i] + lv[i + 1:]: binom(-m - 1, k - 1) * m * cnt}
    key = (lu, n, lv)
    out = subkeys.get(key)
    if out is None:
        out = modes.get(key)
    if out is not None:
        return out
    rest = lu[1:]
    acc: dict = {}
    for m in range(k, target + 1):
        c = binom(m - 1, k - 1)
        for lab, x in _wick(rest, n + m - k, lv, target - m,
                            subkeys, modes).items():
            lab = _insert(lab, m)
            acc[lab] = acc.get(lab, 0) + c * x
    prev = 0
    for i, p in enumerate(lv):
        if p == prev:
            continue
        prev = p
        c = binom(-p - 1, k - 1) * p * lv.count(p)
        for lab, x in _wick(rest, n - p - k, lv[:i] + lv[i + 1:], target,
                            subkeys, modes).items():
            acc[lab] = acc.get(lab, 0) + c * x
    out = subkeys[key] = {lab: x for lab, x in acc.items() if x} or _ZERO_ROW
    return out


def accumulate(acc: dict, terms, c) -> None:
    """acc += c terms, coefficientwise and int-first, dropping zeros."""
    for label, x in terms.items():
        s = acc.get(label, 0) + c * x
        if s:
            acc[label] = s
        else:
            acc.pop(label, None)


def divided(coeff: dict, d: int) -> dict:
    """The coefficients divided exactly by a nonzero integer; an ``int``
    stays an ``int`` when d divides it."""
    out = {}
    for k, v in coeff.items():
        if type(v) is int:
            q, r = divmod(v, d)
            out[k] = Fraction(v, d) if r else q
        else:
            out[k] = v / d
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
        r = GradedVector.__new__(GradedVector)
        r.coeff = dict(self.coeff)
        accumulate(r.coeff, other.coeff, 1)
        return r

    def __sub__(self, other):
        r = GradedVector.__new__(GradedVector)
        r.coeff = dict(self.coeff)
        accumulate(r.coeff, other.coeff, -1)
        return r

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "GradedVector":
        if not c:
            return GradedVector()
        r = GradedVector.__new__(GradedVector)
        r.coeff = {k: c * v for k, v in self.coeff.items()}
        return r

    def divide(self, d: int) -> "GradedVector":
        """The vector divided exactly by a nonzero integer (``divided``)."""
        r = GradedVector.__new__(GradedVector)
        r.coeff = divided(self.coeff, d)
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

    def clip(self, ceiling: int) -> "GradedVector":
        """Drop components above ``ceiling``."""
        kept = {k: v for k, v in self.coeff.items() if sum(k) <= ceiling}
        if len(kept) == len(self.coeff):
            return self
        r = GradedVector.__new__(GradedVector)
        r.coeff = kept
        return r

    def __repr__(self):
        return fmt_vec(self)


class VOAAction:
    """The action protocol's shared methods. A subclass supplies ``level``,
    ``V``, ``row``, ``act`` and ``basis(weight)``, its labels by weight."""

    def true_nonzero(self, op: GradedVector, n: int, vec: GradedVector) -> bool:
        """Whether op_n vec is nonzero before any clipping: the action with
        a ceiling at or above every weight the mode can reach."""
        top = sum(max(x.weights(), default=0) for x in (op, vec)) + abs(n) + 1
        return bool(self.act(op, n, vec, ceiling=top))

    def kron(self, op: GradedVector) -> int | None:
        """Mode index n0 when op acts as delta_{n,n0} times a scalar."""
        return -1 if self.V.is_vacuum_multiple(op) else None

    def virasoro(self, n: int, vec: GradedVector,
                 ceiling: int | None = None) -> GradedVector:
        """L(n) vec, the (n+1)-st mode of the conformal vector, as half the
        mode of the integer vector a(-1)^2|0>."""
        return self.act(self.V.twice_omega, n + 1, vec, ceiling).divide(2)

    def basis_upto(self, maxweight: int | None = None) -> list:
        top = self.level if maxweight is None else maxweight
        return [lab for w in range(top + 1) for lab in self.basis(w)]


def label_pairs(op: dict, vec: dict) -> list:
    """The label pairs (lu, lv, wt lu + wt lv - 1, cu cv) of every op_n vec,
    op's labels outermost."""
    return [(lu, lv, sum(lu) + sum(lv) - 1, cu * cv)
            for lu, cu in op.items() for lv, cv in vec.items()]


def apply_pairs(row, pairs: list, n: int, cap: int) -> dict:
    """op_n vec from its label pairs: the sum of c row(lu, n, lv) over the
    pairs whose image weight lies in 0..cap, int-first, dropping zeros."""
    acc: dict = {}
    top = n + cap
    for lu, lv, base, c in pairs:
        if n <= base <= top:
            for label, m in row(lu, n, lv).items():
                s = acc.get(label, 0) + c * m
                if s:
                    acc[label] = s
                else:
                    acc.pop(label, None)
    return acc


class RowAction(VOAAction):
    """The mode action of a space given by its basis rows: ``row(lu, n,
    lv)`` is (lu)_n lv as {label: coefficient}, and ``act`` extends it
    bilinearly. Like the algebra's ``act``, it keeps the pairs whose image
    weight lies in 0..ceiling, by default the space's ``level``."""

    def act(self, op: GradedVector, n: int, vec: GradedVector,
            ceiling: int | None = None) -> GradedVector:
        r = GradedVector.__new__(GradedVector)
        r.coeff = apply_pairs(self.row, label_pairs(op.coeff, vec.coeff), n,
                              self.level if ceiling is None else ceiling)
        return r


class HeisenbergVOA(VOAAction):
    """Truncated free boson vertex operator algebra, acting on itself.

    ``level`` is the declared weight ceiling: the basis consists of
    partitions of weight <= level, and mode applications clip above it
    unless an explicit higher ceiling is given.
    """

    def __init__(self, level: int):
        if level < 0:
            raise ValueError("level must be nonnegative")
        self.level = level
        self.central_charge = Fraction(1)
        self.vacuum = GradedVector.basis(())
        self.omega = GradedVector.basis((1, 1)).scale(Fraction(1, 2))
        # a(-1)^2|0> = 2 omega, the integer vector the Virasoro modes use
        self.twice_omega = GradedVector.basis((1, 1))
        self._modes: dict = {}
        self._subkeys: dict = {}  # Wick subkeys nobody asked for, clean
        self._corruptions: dict = {}

    # -- basis bookkeeping ------------------------------------------------

    def dim(self, weight: int) -> int:
        if weight < 0 or weight > self.level:
            return 0
        return len(self.basis(weight))

    def basis(self, weight: int) -> tuple[tuple[int, ...], ...]:
        return partitions(weight)

    def is_vacuum_multiple(self, u: GradedVector) -> bool:
        return set(u.coeff) == {()}

    # -- exact mode coefficients -------------------------------------------

    def mode_basis(self, lu: tuple[int, ...], n: int,
                   lv: tuple[int, ...]) -> dict:
        """Exact action of the n-th mode of basis state lu on basis state lv,
        as a map partition -> integer coefficient (untruncated), memoised
        in ``_modes``; the key is not left in ``_subkeys``."""
        key = (lu, n, lv)
        out = self._modes.get(key)
        if out is None:
            out = self._modes[key] = self._compute_mode(lu, n, lv) or _ZERO_ROW
            self._subkeys.pop(key, None)
        if self._corruptions:
            delta = self._corruptions.get(key)
            if delta:
                out = dict(out)
                accumulate(out, delta, 1)
        return out

    @property
    def V(self) -> "HeisenbergVOA":
        return self

    def row(self, lu: tuple, n: int, lv: tuple) -> dict:
        return self.mode_basis(lu, n, lv)

    def _compute_mode(self, lu, n, lv) -> dict:
        target = sum(lu) + sum(lv) - n - 1
        if target < 0:
            return {}
        if not lu:
            return {lv: 1} if n == -1 else {}
        return _wick(lu, n, lv, target, self._subkeys, self._modes)

    # -- public operations --------------------------------------------------

    def apply_mode_flagged(self, u: GradedVector, n: int, v: GradedVector,
                           ceiling: int | None = None
                           ) -> tuple[GradedVector, bool]:
        """u_n v clipped at the ceiling (default the declared level), with a
        flag reporting whether clipping dropped anything: whether a pair
        above the ceiling has a nonzero row, read through ``mode_basis``
        up to the first such pair."""
        cap = self.level if ceiling is None else ceiling
        pairs = label_pairs(u.coeff, v.coeff)
        r = GradedVector.__new__(GradedVector)
        r.coeff = apply_pairs(self.mode_basis, pairs, n, cap)
        return r, any(self.mode_basis(lu, n, lv)
                      for lu, lv, base, _ in pairs if base - n > cap)

    def act(self, u: GradedVector, n: int, v: GradedVector,
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
                      window: Window) -> FormalSeries:
        """Y(u, x) v as a vector-valued series in x on the window."""
        coeff = {(-n - 1,): self.act(u, n, v)
                 for n in self.mode_range(u, v)
                 if window.lo("x") <= -n - 1 <= window.hi("x")}
        return FormalSeries(("x",), coeff, window)

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


def exp_chain(space, n: int, v: GradedVector, ceiling: int | None = None,
              terms: int | None = None) -> list[GradedVector]:
    """The chain [v, L(n)v, L(n)^2 v/2!, ...] of e^{xL(n)} v: entry k is
    L(n)^k v / k!, each step clipped at the ceiling. It ends before the
    first zero entry, or after ``terms`` (at least 1) entries. ``space``
    is any ``VOAAction``: the algebra, or an action on a module."""
    out = [v] if v else []
    while out and len(out) != terms:
        v = space.virasoro(n, v, ceiling).divide(len(out))
        if not v:
            break
        out.append(v)
    return out


def build_heisenberg(level: int) -> HeisenbergVOA:
    """Construct the truncated free boson algebra at the given level."""
    return HeisenbergVOA(level)

