"""Fusion-rule tensors, the Verlinde algebra, and a generic checker for
intertwining-operator data.

Fusion tensors arrive as fixture files rather than being computed from
module categories; the machinery here verifies their permutation
symmetry, each S3 orbit of positions once, builds the algebra they span,
and checks commutativity, unit behavior, and associativity on every
label, associativity by whole sides. Intertwiner data is checked against
lower truncation, the three-term identity, and the derivative property;
``check_intertwiner`` takes several intertwiners at once and visits
their three-term triples by weight signature, so they share plans.
The stored modes are an action like any other: ``IntertwinerData`` is a
``fock.RowAction`` whose rows are its stored entries, so the three-term
engine takes it beside the modules themselves (the algebra or a
contragredient module).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import inf
from typing import Sequence

# through the module, so that a wrapper installed on axioms sees every call
from . import axioms
from .exact import int_first
from .fock import GradedVector, RowAction
from .reports import (FixtureError, VerificationReport, diff_labels,
                      fmt_label, load_fixture)
from .series import Window


class SymmetryViolation(Exception):
    """Tensor fails the permutation symmetry required for the algebra."""


@dataclass(frozen=True)
class FusionTensor:
    """Nonnegative-integer tensor N^k_{ij} over a finite label set with a
    contragredient involution on labels. The first label is the algebra."""

    labels: tuple[str, ...]
    dual: tuple[tuple[str, str], ...]
    entries: tuple[tuple[tuple[str, str, str], int], ...]

    def __post_init__(self):
        d = self._dual_map
        for i in self.labels:
            j = d.get(i, i)
            if d.get(j, j) != i:
                raise ValueError(f"dual map is not an involution at {i}")
        for (i, j, k), n in self.entries:
            for lab in (i, j, k):
                if lab not in self.labels:
                    raise ValueError(f"unknown label {lab}")
            if n < 0:
                raise ValueError("fusion multiplicities must be nonnegative")

    @property
    def algebra_label(self) -> str:
        return self.labels[0]

    # lookup maps built once per tensor; equality and hashing still go by
    # the three fields alone
    @cached_property
    def _dual_map(self) -> dict[str, str]:
        return dict(self.dual)

    @cached_property
    def _entry_map(self) -> dict[tuple[str, str, str], int]:
        return dict(self.entries)

    def dual_of(self, i: str) -> str:
        return self._dual_map.get(i, i)

    def n(self, i: str, j: str, k: str) -> int:
        """N^k_{ij}, defaulting to zero for unlisted triples."""
        return self._entry_map.get((i, j, k), 0)


def parse_fusion_tensor(text: str, name: str = "<fusion>") -> FusionTensor:
    """Parse the fixture format: a ``labels:`` header, ``dual:`` pair
    lines, then one ``i j k N`` line per nonzero entry."""
    labels: tuple[str, ...] | None = None
    dual: list[tuple[str, str]] = []
    entries: list[tuple[tuple[str, str, str], int]] = []
    seen: dict[tuple[str, str, str], int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("labels:"):
            labels = tuple(line[len("labels:"):].split())
            if not labels:
                raise FixtureError(f"{name}:{ln}: empty label list")
            twice = [x for x in labels if labels.count(x) > 1]
            if twice:
                raise FixtureError(f"{name}:{ln}: label {twice[0]!r} listed twice")
            continue
        if line.startswith("dual:"):
            for tok in line[len("dual:"):].split():
                pair = tok.replace("->", "→").split("→")
                if len(pair) != 2:
                    raise FixtureError(f"{name}:{ln}: malformed dual pair {tok!r}")
                dual.append((pair[0], pair[1]))
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FixtureError(f"{name}:{ln}: expected 'i j k N', got {line!r}")
        i, j, k, ns = parts
        try:
            n = int(ns)
        except ValueError:
            raise FixtureError(f"{name}:{ln}: multiplicity {ns!r} is not an integer")
        if (i, j, k) in seen:
            raise FixtureError(f"{name}:{ln}: triple {i} {j} {k} already "
                               f"listed at line {seen[(i, j, k)]}")
        seen[(i, j, k)] = ln
        entries.append(((i, j, k), n))
    if labels is None:
        raise FixtureError(f"{name}: missing 'labels:' header")
    try:
        return FusionTensor(labels, tuple(dual), tuple(entries))
    except ValueError as e:
        raise FixtureError(f"{name}: {e}")


def load_fusion_tensor(path) -> FusionTensor:
    return load_fixture(path, parse_fusion_tensor)


def check_s3_symmetry(T: FusionTensor) -> VerificationReport:
    """Invariance of the lowered tensor N_{ijk} = N^{k'}_{ij}, k' the dual
    of k, under all six slot permutations; both it and the upper-index
    tensor are read from tables indexed by label position, and each S3
    orbit of positions (t0 <= t1 <= t2 against its permutations) is
    tested once. Only an asymmetric lowered table is listed in full.

    Also notes whether the naive upper-index reading would have judged
    symmetry differently, since the two only agree through the involution.
    """
    labels, L = T.labels, len(T.labels)
    n = T._entry_map.get
    cells = list(product(labels, repeat=3))
    upper = [n(cell, 0) for cell in cells]
    lowered = [n((i, j, T.dual_of(k)), 0) for i, j, k in cells]
    reps, others = [], []   # an orbit's flat position, once per permutation
    for t in combinations_with_replacement(range(L), 3):
        for p in set(permutations(t)):
            reps.append((t[0] * L + t[1]) * L + t[2])
            others.append((p[0] * L + p[1]) * L + p[2])

    def symmetric(table):
        return [table[i] for i in reps] == [table[i] for i in others]

    def asymmetries(table):
        for t in product(range(L), repeat=3):
            base = table[(t[0] * L + t[1]) * L + t[2]]
            for p in permutations(t):
                other = table[(p[0] * L + p[1]) * L + p[2]]
                if other != base:
                    yield ((*(labels[x] for x in t), "perm",
                            tuple(labels[x] for x in p)), base, other)

    diffs = [] if symmetric(lowered) else list(asymmetries(lowered))
    note = ""
    if symmetric(upper) != (not diffs):
        note = "upper-index and involution readings disagree"
    return VerificationReport.from_diffs("fusion-s3-symmetry",
                                         f"labels={len(T.labels)}", diffs, note)


def check_positivity(T: FusionTensor) -> VerificationReport:
    """The algebra label must fuse with itself and act on every label."""
    V = T.algebra_label
    diffs = []
    if T.n(V, V, V) < 1:
        diffs.append((("selffusion", V), T.n(V, V, V), ">=1"))
    for i in T.labels:
        if T.n(V, i, i) < 1:
            diffs.append((("action", i), T.n(V, i, i), ">=1"))
        if T.n(i, V, i) < 1:
            diffs.append((("right-action", i), T.n(i, V, i), ">=1"))
    return VerificationReport.from_diffs("fusion-positivity",
                                         f"labels={len(T.labels)}", diffs)


@dataclass
class VerlindeAlgebra:
    """The algebra spanned by module classes with the fusion tensor as
    structure constants."""

    tensor: FusionTensor
    # entries where the algebra label fails to act as a two-sided unit,
    # as ((side, i, j), N, expected)
    unit_defects: list = field(init=False)

    def __post_init__(self):
        T = self.tensor
        V = T.algebra_label
        self.unit_defects = []
        for i, j in product(T.labels, repeat=2):
            want = 1 if i == j else 0
            for side, got in (("left", T.n(V, i, j)), ("right", T.n(i, V, j))):
                if got != want:
                    self.unit_defects.append(((side, i, j), got, want))

    @property
    def has_unit(self) -> bool:
        return not self.unit_defects

    def product(self, i: str, j: str) -> dict[str, int]:
        return {k: self.tensor.n(i, j, k) for k in self.tensor.labels
                if self.tensor.n(i, j, k)}

    def multiply(self, x: dict[str, Fraction],
                 y: dict[str, Fraction]) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, n in self.product(i, j).items():
                    s = out.get(k, Fraction(0)) + ci * cj * n
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out


def build_verlinde(T: FusionTensor,
                   symmetry: VerificationReport) -> VerlindeAlgebra:
    """The Verlinde algebra of T, refused unless ``symmetry``, T's
    ``check_s3_symmetry`` report, passed."""
    if not symmetry.passed:
        raise SymmetryViolation(f"{len(symmetry.diffs)} symmetry violations")
    return VerlindeAlgebra(T)


def check_commutativity(A: VerlindeAlgebra) -> VerificationReport:
    diffs = []
    for i, j in product(A.tensor.labels, repeat=2):
        if A.product(i, j) != A.product(j, i):
            diffs.append(((i, j), str(A.product(i, j)), str(A.product(j, i))))
    return VerificationReport.from_diffs(
        "verlinde-commutativity", f"labels={len(A.tensor.labels)}", diffs)


def check_associativity(A: VerlindeAlgebra) -> VerificationReport:
    """sum_k N_ij^k N_kl^m = sum_k N_jl^k N_ik^m for every quadruple
    (i, j, l, m), both sides summed over the nonzero N_ij^k of each pair
    (i, j) only, the list of (i, j) read once for every l. Every summand
    is positive and no zero is stored, so the two sides of (i, j, l) are
    compared whole; the labels m are walked only when they differ."""
    T = A.tensor
    nonzero: dict = {}
    for (i, j, k), n in T._entry_map.items():
        if n:
            nonzero.setdefault((i, j), []).append((k, n))

    diffs = []
    for i, j in product(T.labels, repeat=2):
        ij = nonzero.get((i, j), ())
        for l in T.labels:
            lhs: dict = {}
            for k, a in ij:
                for m, b in nonzero.get((k, l), ()):
                    lhs[m] = lhs.get(m, 0) + a * b
            rhs: dict = {}
            for k, a in nonzero.get((j, l), ()):
                for m, b in nonzero.get((i, k), ()):
                    rhs[m] = rhs.get(m, 0) + a * b
            if lhs == rhs:
                continue
            for m in T.labels:
                if lhs.get(m, 0) != rhs.get(m, 0):
                    diffs.append(((i, j, l, m), lhs.get(m, 0),
                                  rhs.get(m, 0)))
    return VerificationReport.from_diffs(
        "verlinde-associativity", f"labels={len(T.labels)}", diffs)


def check_unit(A: VerlindeAlgebra) -> VerificationReport:
    """The algebra label is a two-sided unit: N^j_{Vi} = N^j_{iV} = delta_ij."""
    return VerificationReport.from_diffs(
        "verlinde-unit", f"labels={len(A.tensor.labels)}", A.unit_defects,
        note="two-sided unit" if A.has_unit else "no exact unit")


# -- intertwining operators ----------------------------------------------


@dataclass(eq=False)
class IntertwinerData(RowAction):
    """Mode maps of a candidate intertwining operator of a fixed type, as
    an ``axioms.VOAAction``: a row is the stored entry, and ``act`` is the
    shared ``fock.RowAction.act``, clipped at the output module's level.
    True loss is the output module's, and no stored operator acts as a
    delta. Like every action, it is equal only to itself.

    Modes are stored at integer offsets j; the true mode index is j plus
    the declared rational shift, which must be shared by every entry.
    ``modes`` maps (w1 label, j, w2 label) to a dict of w3 labels with
    exact coefficients.
    """

    V: object                      # the acting algebra
    m1: object                     # module structure on the first slot
    m2: object                     # module structure on the second slot
    m3: object                     # module structure on the output
    shift: Fraction
    modes: dict

    def __post_init__(self):
        self.level = self.m3.level
        self.basis = self.m2.basis

    def row(self, l1: tuple, j: int, l2: tuple) -> dict:
        return self.modes.get((l1, j, l2), {})

    def true_nonzero(self, op, j, vec) -> bool:
        return self.m3.true_nonzero(op, j, vec)

    def kron(self, op) -> int | None:
        return None


def intertwiner_from_algebra(V) -> IntertwinerData:
    """The vertex operator of the algebra acting on itself, as the
    canonical intertwiner of self-type."""
    return _intertwiner_from_action(V, V, V, V)


def intertwiner_from_module(V, M) -> IntertwinerData:
    """The action of the algebra on a module, as the canonical intertwiner
    of module type (first slot the algebra)."""
    return _intertwiner_from_action(V, V, M, M)


def _intertwiner_from_action(V, m1, m2, m3) -> IntertwinerData:
    modes: dict = {}
    for l1 in m1.basis_upto():
        for l2 in m2.basis_upto():
            # the j with image weight in 0..level, the rows m3's act keeps
            for j in range(sum(l1) + sum(l2) - 1 - m3.level,
                           sum(l1) + sum(l2)):
                val = {lab: c for lab, c in m3.row(l1, j, l2).items() if c}
                if val:
                    modes[(l1, j, l2)] = val
    return IntertwinerData(V, m1, m2, m3, Fraction(0), modes)


@lru_cache(maxsize=None)   # one window per weight signature
def shaped_jacobi_window(pw: int, qw: int, tw: int, level: int,
                         width: int) -> Window | None:
    """The largest symmetric-bottom window on which every inner mode of
    the three-term identity provably stays below the level, so nothing
    needs skipping. Returns None when the triple has no such positions."""
    a_hi = min(width, level - pw - qw)
    b_hi = min(width, level - pw - tw)
    c_hi = min(width, level - qw - tw)
    if a_hi < -width or b_hi < -width or c_hi < -width:
        return None
    return Window.of(x0=(-width, a_hi), x1=(-width, b_hi),
                     x2=(-width, c_hi))


def check_intertwiner(Is: Sequence[IntertwinerData],
                      win: Window) -> list[list[VerificationReport]]:
    """Lower truncation, derivative property, and the three-term identity
    for stored intertwiner data: one report list per intertwiner, in order.

    The identity runs over all basis triples up to the level, each on a
    window shaped so every intermediate stays below the level; this leaves
    no skipped instances, and every stored mode entry is pinned by some
    examined coefficient. The triples (v, w1, w2) of every intertwiner
    are visited grouped by weight signature, shaped window and level (a
    refinement of the engine's plan key: total weight, window, level),
    then by intertwiner, then in basis order, so each evaluation plan of
    the three-term engine is built once per call. A failure reports the
    intertwiner's first failing triple in basis order.
    """
    out, acts, levels = [], [], []
    groups: dict = {}   # signature key -> [(intertwiner, index, triple)]
    for x, I in enumerate(Is):
        reports = []
        # lower truncation: modes vanish once the offset exceeds the weight sum
        diffs = []
        for (l1, j, l2), entry in I.modes.items():
            if j >= sum(l1) + sum(l2) and any(entry.values()):
                diffs.append(((l1, j, l2), "nonzero", "zero"))
        reports.append(VerificationReport.from_diffs(
            "intertwiner-truncation", f"shift={I.shift}", diffs))

        # derivative: modes of the shifted operator against the raised vector
        diffs = []
        level = min(I.m1.level, I.m2.level, I.m3.level)
        levels.append(level)
        lo, h = -(2 * level + 2), int_first(I.shift)
        coeffs = [-(j + h + 1) for j in range(lo, I.m1.level + I.m2.level)]
        for l1 in I.m1.basis_upto(I.m1.level - 1):
            dw1 = I.m1.virasoro(-1, GradedVector.basis(l1)).coeff
            for l2 in I.m2.basis_upto():
                # the mode of w1 is one row, kept when its image weight
                # lies in 0..level; that of L(-1)w1 runs over their pairs
                pairs = axioms.label_pairs(dw1, {l2: 1})
                top = sum(l1) + sum(l2) - 1
                for j, c in zip(range(lo, top + 2), coeffs):
                    lhs = ({lab: c * x for lab, x in I.row(l1, j, l2).items()}
                           if c and j <= top <= j + I.level else {})
                    diff_labels(diffs, (l1, l2, j), lhs, axioms.apply_pairs(
                        I.row, pairs, j + 1, I.level))
        reports.append(VerificationReport.from_diffs(
            "intertwiner-derivative", f"shift={I.shift}", diffs))
        out.append(reports)

        # the three-term triples, grouped by signature key
        acts.append(axioms.JacobiActions(out1=I.m3, in1=I, out2=I, in2=I.m2,
                                         iterate=I.m1, out3=I))
        width = max(win.hi(v) for v in win.variables) + level + 1
        for at, triple in enumerate(product(I.V.basis_upto(min(level, 2)),
                                            I.m1.basis_upto(level),
                                            I.m2.basis_upto(level))):
            sig = tuple(map(sum, triple))
            shaped = shaped_jacobi_window(*sig, level, width)
            if shaped is not None:
                groups.setdefault((sig, shaped, I.m3.level), []).append(
                    (x, at, triple))

    # three-term identity on shaped windows, one signature key at a time
    fails = [(inf, None)] * len(Is)
    checked = [0] * len(Is)
    for (_, shaped, _), group in groups.items():
        for x, at, triple in group:
            rep = axioms.three_term_check(
                *map(GradedVector.basis, triple), shaped, acts[x],
                "intertwiner-jacobi", "")
            if rep.failed and at < fails[x][0]:
                # a kept report is named by its triple of basis labels
                rep.params = "v={};w1={};w2={}".format(*map(fmt_label, triple))
                fails[x] = at, rep
            checked[x] += 1
    for level, reports, (_, rep), n in zip(levels, out, fails, checked):
        params = f"wt<=({level})"
        if rep is None and n == 0:
            rep = VerificationReport.skipped("intertwiner-jacobi", params,
                                             "no in-budget window")
        elif rep is None:
            rep = VerificationReport.from_diffs(
                "intertwiner-jacobi", params, [], note=f"{n} instances")
        reports.append(rep)
    return out
