"""Genus-zero moduli elements, the sewing partial operation, permutation
actions, and the bridge from geometry to algebra.

An element of arity n describes a sphere with n positively oriented
punctures plus one at infinity: the punctures sit at the given positions
with the last one pinned at zero, infinity carries a scale-one local
coordinate, and every local coordinate is encoded by a scale together
with the coefficient sequence of the exponential-flow parametrization

    exp(sum_j A_j x^{j+1} d/dx) . (a_0 x).

Sewing is implemented on the subclass whose coordinates at the two sewn
punctures extend to global fractional-linear maps (sequence part zero);
this covers the identity, scaling, standard two-puncture, and cap
elements. Results are renormalized to the canonical representative
(infinity at scale one, last puncture at zero) by an exact translation,
whose effect on the coordinate at infinity is recomputed by series
composition. The central-extension slot is an opaque exact scalar,
int-first like every value in the package (default ``1``), multiplied
through sewing.

The evaluation map sends an element with standard coordinates and
strictly decreasing puncture moduli to the matrix element of a product
of vertex operators at exact points; scales act per slot through the
grading. All arithmetic is over Gaussian rationals. Each insertion is
computed by output weight (``_insertion``), and a pairing with v'
computes only the weights v' reads: ``nu_evaluate`` and the sewing check
restrict the outermost insertion to them; inner states stay whole up to
the cutoff.

One function is memoised: ``_translated_inf``, the infinity flow data
after a translation, in a bounded module-level ``lru_cache``. It is safe
because the function is pure and its arguments (a tuple of ``QQi``, a
``QQi`` shift, an int order) and its tuple result are exact and
immutable; the operad checks repeat a handful of distinct translations
hundreds of times. ``LocalCoordinate.is_linear`` and
``ModuliElement.standard_at_infinity`` (zero flow data) are derived once
per object, on first read (``exact.derived_once``). Positions are
compared, not hashed: there are a handful, and a non-integral ``QQi``
hashes like a ``Fraction``, at the cost of a modular inverse.

``check_operad_axioms`` keeps a table of Q_a o_i Q_b by sample indices
(a, i, b), sewn on first use: every left factor, inner and equivariance
sewing is read from it. Associativity's low instance (i1, i2) of (Q1, Q2,
Q3) and high instance (i2, l + i1 - 1) of (Q1, Q3, Q2), l the arity of
Q3, compare the same two sewings with sides swapped, so the first to run
leaves its verdict to the other. No other sewn element is kept (a memo of
every sewing cost 11% of peak memory); every sewing goes through ``sew``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import QQi, derived_once, int_first
from .fock import GradedVector, HeisenbergVOA
from .reports import FixtureError, VerificationReport, load_fixture

ZERO = QQi(0)
ONE = QQi(1)


class UnsupportedSewing(Exception):
    """A sewn puncture's coordinate does not extend to a global map."""


class SewingUndefined(Exception):
    """No admissible sewing radius, or an undefined translation."""


class DomainViolation(Exception):
    """Evaluation outside the series-convergence chamber or with
    non-standard coordinates."""


# -- truncated power series over Gaussian rationals -------------------------


class PSeries:
    """Power series sum c_k x^k truncated above x^order."""

    __slots__ = ("c", "order")

    def __init__(self, coeffs, order: int):
        self.order = order
        self.c = [QQi.promote(x) for x in coeffs[:order + 1]]
        self.c += [ZERO] * (order + 1 - len(self.c))

    @staticmethod
    def x(order: int) -> "PSeries":
        return PSeries([ZERO, ONE], order)

    def __add__(self, other: "PSeries") -> "PSeries":
        return PSeries([a + b for a, b in zip(self.c, other.c)], self.order)

    def scale(self, k) -> "PSeries":
        k = QQi.promote(k)
        return PSeries([k * a for a in self.c], self.order)

    def mul(self, other: "PSeries") -> "PSeries":
        out = [ZERO] * (self.order + 1)
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(other.c):
                if i + j > self.order:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return PSeries(out, self.order)

    def compose(self, inner: "PSeries") -> "PSeries":
        """self(inner(x)) for inner with zero constant term."""
        if inner.c[0]:
            raise ValueError("composition needs a zero constant term")
        out = PSeries([self.c[self.order]], self.order)
        for k in range(self.order - 1, -1, -1):
            out = out.mul(inner)
            out.c[0] = out.c[0] + self.c[k]
        return out

    def derivative(self) -> "PSeries":
        out = [ZERO] * (self.order + 1)
        for k in range(1, self.order + 1):
            out[k - 1] = self.c[k] * k
        return PSeries(out, self.order)

    def is_zero(self) -> bool:
        return not any(self.c)

    def __eq__(self, other):
        return self.c == other.c

    def __repr__(self):
        return "PSeries(" + ", ".join(map(str, self.c)) + ")"


@dataclass(frozen=True)
class LocalCoordinate:
    """Scale plus exponential-flow coefficients of one local coordinate."""

    scale: QQi
    taylor: tuple[QQi, ...]

    def __post_init__(self):
        if not self.scale:
            raise ValueError("coordinate scale must be nonzero")

    @derived_once
    def is_linear(self) -> bool:
        return not any(self.taylor)


def coordinate_series(scale, taylor, order: int) -> PSeries:
    """The power series of the coordinate with the given scale and flow
    coefficients, to degree ``order``: the exponential of the flow field
    applied to scale * x."""
    f = PSeries.x(order).scale(scale)
    total = f
    term = f
    for k in range(1, order + 1):
        # apply the derivation sum_j A_j x^{j+1} d/dx once, divide by k
        d = term.derivative()
        nxt = PSeries([], order)
        for j, aj in enumerate(taylor, start=1):
            if not aj:
                continue
            mono = PSeries([ZERO] * (j + 1) + [aj], order)
            nxt = nxt + mono.mul(d)
        term = nxt.scale(Fraction(1, k))
        if term.is_zero():
            break
        total = total + term
    return total


def extract_coordinate_data(series: PSeries,
                            ncoeffs: int) -> tuple[QQi, tuple[QQi, ...]]:
    """Invert ``coordinate_series``: recover (scale, flow coefficients)
    from a power series with nonzero linear term."""
    a0 = series.c[1]
    if not a0:
        raise ValueError("series has vanishing linear coefficient")
    taylor: list[QQi] = []
    for j in range(1, ncoeffs + 1):
        if j + 1 > series.order:
            taylor.append(ZERO)
            continue
        # the flow raises degree, so degree j + 1 of the series built from
        # A_1..A_{j-1} is already exact when built to order j + 1
        current = coordinate_series(a0, tuple(taylor), j + 1)
        defect = series.c[j + 1] - current.c[j + 1]
        taylor.append(defect / a0)
    return a0, tuple(taylor)


# -- moduli elements ---------------------------------------------------------


@dataclass(frozen=True)
class ModuliElement:
    """A point of the arity-n moduli space in canonical position.

    ``z`` lists the positions of punctures 1..n-1 (puncture n sits at 0);
    ``inf_coord`` is the flow sequence at infinity (scale pinned to one);
    ``coords`` gives one LocalCoordinate per positive puncture. ``order``
    bounds all stored sequences. The extension slot is an opaque exact
    scalar, int-first, multiplied through sewing. Positions are checked
    in order, each against the earlier ones by comparison.
    """

    arity: int
    order: int
    z: tuple[QQi, ...]
    inf_coord: tuple[QQi, ...]
    coords: tuple[LocalCoordinate, ...]
    det_slot: int | Fraction = 1

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if len(self.z) != max(self.arity - 1, 0):
            raise ValueError("position list must have length arity-1")
        if len(self.coords) != self.arity:
            raise ValueError("need one coordinate per positive puncture")
        if len(self.inf_coord) != self.order:
            raise ValueError("infinity sequence must have length order")
        for k, zz in enumerate(self.z):
            if not zz:
                raise ValueError("puncture positions must be nonzero")
            if zz in self.z[:k]:
                raise ValueError("puncture positions must be distinct")
        if self.arity == 0 and self.order >= 1 and self.inf_coord[0]:
            raise ValueError("arity-0 elements need a vanishing first "
                             "infinity coefficient")

    @property
    def positions(self) -> tuple[QQi, ...]:
        if self.arity == 0:
            return ()
        return self.z + (ZERO,)

    @derived_once
    def standard_at_infinity(self) -> bool:
        return not any(self.inf_coord)

    def standard_coordinates(self) -> bool:
        return self.standard_at_infinity and \
            all(c.is_linear and c.scale == ONE for c in self.coords)


def _pad(seq, order) -> tuple[QQi, ...]:
    out = [QQi.promote(x) for x in seq]
    out += [ZERO] * (order - len(out))
    return tuple(out[:order])


def identity_element(order: int) -> ModuliElement:
    return scaling_element(ONE, order)


def scaling_element(a, order: int) -> ModuliElement:
    return ModuliElement(1, order, (), _pad((), order),
                         (LocalCoordinate(QQi.promote(a), _pad((), order)),))


def two_puncture_element(z, order: int) -> ModuliElement:
    std = LocalCoordinate(ONE, _pad((), order))
    return ModuliElement(2, order, (QQi.promote(z),), _pad((), order),
                         (std, std))


def cap_element(order: int) -> ModuliElement:
    return ModuliElement(0, order, (), _pad((), order), ())


@dataclass
class SewingResult:
    """The sewn element."""

    element: ModuliElement


@lru_cache(maxsize=256)
def _translated_inf(inf_coord, t: QQi, order: int) -> tuple[QQi, ...]:
    """Flow data at infinity after translating the sphere by -t: the old
    coordinate composed with 1/(w + t), i.e. x/(1 + t x) in the local
    parameter x = 1/w."""
    if not t:
        return tuple(inf_coord)
    series_order = order + 1
    inf_series = coordinate_series(ONE, tuple(inf_coord), series_order)
    geom = [ZERO] + [(-t) ** (k - 1) for k in range(1, series_order + 1)]
    composed = inf_series.compose(PSeries(geom, series_order))
    scale, taylor = extract_coordinate_data(composed, order)
    if scale != ONE:
        raise SewingUndefined("translation should preserve the scale at infinity")
    return taylor


def _rescaled(coord: LocalCoordinate, a: QQi) -> LocalCoordinate:
    """The coordinate composed with x -> a x: the scale gains a factor a
    and A_j becomes A_j a^j, one multiplication per power; a linear
    coordinate keeps its zero tuple."""
    taylor = coord.taylor
    if not coord.is_linear:
        out = []
        power = a
        for c in taylor:
            out.append(c * power if c else ZERO)
            power = power * a
        taylor = tuple(out)
    return LocalCoordinate(coord.scale * a, taylor)


def sew(Q1: ModuliElement, i: int, Q2: ModuliElement) -> SewingResult:
    """Glue the 0-th puncture of Q2 into the i-th positive puncture of Q1.

    Supported when both coordinates at the sewn punctures are global
    fractional-linear maps; raises otherwise. The disjoint-disc condition
    is checked exactly on moduli.
    """
    if Q1.order != Q2.order:
        raise ValueError("truncation orders must agree")
    if not (1 <= i <= Q1.arity):
        raise ValueError(f"no puncture {i} on an arity-{Q1.arity} element")
    order = Q1.order
    coord_i = Q1.coords[i - 1]
    if not coord_i.is_linear:
        raise UnsupportedSewing("sewn puncture coordinate is not linear")
    if not Q2.standard_at_infinity:
        raise UnsupportedSewing("second factor has a non-standard coordinate "
                                "at infinity")
    pos1 = Q1.positions
    p_i = pos1[i - 1]
    a_i = coord_i.scale
    # radius condition: the second factor's punctures, scaled into the
    # first sphere, must stay strictly inside the free disc around p_i:
    # |q|^2 < |a_i|^2 |p_j - p_i|^2, as integer cross-products
    an, ad = a_i.norm2_pair()
    qs = [q.norm2_pair() for q in Q2.positions]
    for j in range(Q1.arity):
        if j != i - 1:
            dn, dd = (pos1[j] - p_i).norm2_pair()
            if any(qn * ad * dd >= an * dn * qd for qn, qd in qs):
                raise SewingUndefined("no admissible sewing radius")
    # no collision test: the radius test gives |q/a_i| < |p_j - p_i| for
    # every other p_j, and q -> p_i + q/a_i is injective on Q2's positions
    transplanted_pos = tuple(p_i + q / a_i for q in Q2.positions)
    new_pos = pos1[:i - 1] + transplanted_pos + pos1[i:]
    new_coords = []
    new_coords.extend(Q1.coords[:i - 1])
    new_coords.extend(_rescaled(c, a_i) for c in Q2.coords)
    new_coords.extend(Q1.coords[i:])
    arity = Q1.arity + Q2.arity - 1
    det = Q1.det_slot * Q2.det_slot
    if arity == 0:
        # normalize the capped sphere: translate to kill the first
        # infinity coefficient
        taylor = Q1.inf_coord
        t = taylor[0] if order >= 1 else ZERO
        if t:
            taylor = _translated_inf(taylor, t, order)
        elem = ModuliElement(0, order, (), taylor, (), det)
        return SewingResult(elem)
    shift = new_pos[-1]
    if shift:
        z_new = tuple(p - shift for p in new_pos[:-1])
        inf = _translated_inf(Q1.inf_coord, shift, order)
    else:
        z_new = new_pos[:-1]
        inf = Q1.inf_coord
    elem = ModuliElement(arity, order, z_new, inf, tuple(new_coords), det)
    return SewingResult(elem)


def permute(Q: ModuliElement, perm: tuple[int, ...]) -> ModuliElement:
    """Reorder the positive punctures: new slot j holds old puncture
    perm[j] (one-based). Renormalizes by a translation when the zero
    puncture moves."""
    n = Q.arity
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    pos = Q.positions
    new_pos = tuple(pos[perm[j] - 1] for j in range(n))
    new_coords = tuple(Q.coords[perm[j] - 1] for j in range(n))
    shift = new_pos[-1] if n else ZERO
    z_new = tuple(p - shift for p in new_pos[:-1])
    inf = _translated_inf(Q.inf_coord, shift, Q.order)
    return ModuliElement(n, Q.order, z_new, inf, new_coords, Q.det_slot)


def compose_perms(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation acting as p-then-q under ``permute``."""
    return tuple(p[q[j] - 1] for j in range(len(p)))


# -- partial-operad axioms ----------------------------------------------------


def _slot_labels(m: int, i: int, n: int, relabel=None):
    rel = relabel or (lambda j: j)
    left = [("p", rel(j)) for j in range(1, i)]
    mid = [("q", k) for k in range(1, n + 1)]
    right = [("p", rel(j)) for j in range(i + 1, m + 1)]
    return left + mid + right


def _match_perm(target_labels, source_labels) -> tuple[int, ...]:
    index = {lab: k + 1 for k, lab in enumerate(source_labels)}
    return tuple(index[lab] for lab in target_labels)


def _sewn(Q1: ModuliElement | None, i: int, Q2: ModuliElement | None):
    """The sewn element, or None when either factor is None or the sewing
    is unsupported or undefined; calls ``sew`` through the module, as the
    tracer expects."""
    if Q1 is None or Q2 is None:
        return None
    try:
        return sew(Q1, i, Q2).element
    except (UnsupportedSewing, SewingUndefined):
        return None


def _permuted(Q: ModuliElement, perm: tuple[int, ...]):
    """``permute(Q, perm)``, or None when its translation is undefined."""
    try:
        return permute(Q, perm)
    except SewingUndefined:
        return None


def check_operad_identity(sample: list[ModuliElement]) -> VerificationReport:
    """Sewing the identity into each puncture of each element, and each
    element into the identity, gives the element back. Unsupported or
    undefined sewings are counted as skipped, never failed."""
    ident = identity_element(sample[0].order if sample else 8)
    diffs = []
    skips = 0
    for qi, Q in enumerate(sample):
        sewings = [((qi, "right", i), _sewn(Q, i, ident))
                   for i in range(1, Q.arity + 1)]
        sewings.append(((qi, "left"), _sewn(ident, 1, Q)))
        for where, got in sewings:
            if got is None:
                skips += 1
            elif got != Q:
                diffs.append((where, "differs", ""))
    return VerificationReport.from_diffs(
        "operad-identity", f"sample={len(sample)}", diffs,
        note=f"{skips} skipped" if skips else "")


def check_operad_axioms(sample: list[ModuliElement],
                        seed: int = 7) -> list[VerificationReport]:
    """Identity, associativity and equivariance instances over a sample.

    Unsupported or undefined sewings are reported skipped, never failed.
    """
    rng = random.Random(seed)
    reports = [check_operad_identity(sample)]

    # the table of Q_a o_i Q_b and the mirrored verdicts of the module
    # docstring; None is a raised sewing, or a skip
    sewn = lru_cache(maxsize=None)(
        lambda a, i, b: _sewn(sample[a], i, sample[b]))
    mirrored: dict = {}

    # associativity in the three index regimes
    diffs = []
    checked = {"low": 0, "nested": 0, "high": 0}
    skips = 0
    for a, Q1 in enumerate(sample):
        j = Q1.arity
        for b, Q2 in enumerate(sample):
            k = Q2.arity
            for c, Q3 in enumerate(sample):
                l = Q3.arity
                for i1 in range(1, j + 1):
                    for i2 in range(1, j + k):
                        if i2 < i1:
                            regime, twin = "low", (a, c, b, i2, l + i1 - 1)
                        elif i2 < i1 + k:
                            regime, twin = "nested", None
                        else:
                            regime, twin = "high", (a, c, b, i2 - k + 1, i1)
                        key = (a, b, c, i1, i2)
                        if key in mirrored:
                            same = mirrored.pop(key)
                        else:
                            lhs = _sewn(sewn(a, i1, b), i2, Q3)
                            if lhs is None:
                                rhs = None
                            elif regime == "low":
                                rhs = _sewn(sewn(a, i2, c), l + i1 - 1, Q2)
                            elif regime == "nested":
                                rhs = _sewn(Q1, i1, sewn(b, i2 - i1 + 1, c))
                            else:
                                rhs = _sewn(sewn(a, i2 - k + 1, c), i1, Q2)
                            same = None if rhs is None else lhs == rhs
                            if twin:
                                mirrored[twin] = same
                        if same is None:
                            skips += 1
                            continue
                        checked[regime] += 1
                        if not same:
                            diffs.append(((regime, i1, i2), "differs", ""))
    note = ",".join(f"{k}={v}" for k, v in checked.items())
    if skips:
        note += f",skipped={skips}"
    reports.append(VerificationReport.from_diffs(
        "operad-associativity", f"sample={len(sample)}", diffs, note=note))

    # equivariance on both sides
    diffs = []
    checked_eq = 0
    skips = 0
    for a, Q1 in enumerate(sample):
        for b, Q2 in enumerate(sample):
            if Q1.arity < 1:
                continue
            sigma = list(range(1, Q1.arity + 1))
            rng.shuffle(sigma)
            sigma = tuple(sigma)
            for i in range(1, Q1.arity + 1):
                lhs = _sewn(_permuted(Q1, sigma), i, Q2)
                # position i of the permuted element holds puncture
                # sigma(i); sew there on the unpermuted element
                inner = None if lhs is None else sewn(a, sigma[i - 1], b)
                if inner is None:
                    skips += 1
                    continue
                target = _slot_labels(Q1.arity, i, Q2.arity,
                                      relabel=lambda j: sigma[j - 1])
                source = _slot_labels(Q1.arity, sigma[i - 1], Q2.arity)
                block = _match_perm(target, source)
                rhs = permute(inner, block)
                checked_eq += 1
                if lhs != rhs:
                    diffs.append((("sigma", sigma, i), "differs", ""))
            if Q2.arity >= 1:
                tau = list(range(1, Q2.arity + 1))
                rng.shuffle(tau)
                tau = tuple(tau)
                i = 1 + (checked_eq % Q1.arity)
                lhs = _sewn(Q1, i, _permuted(Q2, tau))
                inner = None if lhs is None else sewn(a, i, b)
                if inner is None:
                    skips += 1
                    continue
                target = _slot_labels(Q1.arity, i, Q2.arity)
                mid = [("q", tau[k - 1]) for k in range(1, Q2.arity + 1)]
                target = target[:i - 1] + mid + target[i - 1 + Q2.arity:]
                source = _slot_labels(Q1.arity, i, Q2.arity)
                block = _match_perm(target, source)
                rhs = permute(inner, block)
                checked_eq += 1
                if lhs != rhs:
                    diffs.append((("tau", tau, i), "differs", ""))
    reports.append(VerificationReport.from_diffs(
        "operad-equivariance", f"sample={len(sample)}", diffs,
        note=f"checked={checked_eq}" + (f",skipped={skips}" if skips else "")))
    return reports


def random_supported_element(rng: random.Random, order: int) -> ModuliElement:
    """A random element of arity 1 to 3 in the linear-coordinate subclass:
    distinct rational punctures and nonzero rational scales, zero flow
    data."""
    arity = rng.randint(1, 3)
    pool = [QQi(Fraction(num, den))
            for num in (-7, -5, -3, -2, 1, 2, 3, 4, 5, 8, 11)
            for den in (1, 2)]
    z = []
    for _ in range(arity - 1):
        cand = rng.choice(pool)
        while not cand or cand in z:
            cand = rng.choice(pool)
        z.append(cand)
    scales = [QQi(Fraction(rng.choice((1, 2, 3, -1, -2)),
                           rng.choice((1, 2)))) for _ in range(arity)]
    coords = tuple(LocalCoordinate(s, _pad((), order)) for s in scales)
    return ModuliElement(arity, order, tuple(z), _pad((), order), coords)


# -- evaluation ---------------------------------------------------------------


@dataclass
class NuResult:
    value: QQi
    stable: bool


def _scaled(v: GradedVector, a: QQi) -> GradedVector:
    """a^{-L(0)} v with exact Gaussian-rational entries."""
    out = {}
    for label, c in v.coeff.items():
        out[label] = QQi.promote(c) * a ** (-sum(label))
    return GradedVector(out)


def _insertion(V: HeisenbergVOA, u: GradedVector, z: QQi,
               s: GradedVector, weights) -> GradedVector:
    """sum_t z^(-t-1) u_t s at the given output weights. Weight a of u and
    weight b of s meet weight w at the one mode t = a + b - 1 - w, so each
    term is ``V.act`` at ceiling w: nothing is clipped and the loss flag
    reads no row. Each power of z is computed once per t."""
    parts = []
    for v in (u, s):
        by_weight: dict = {}
        for label, c in v.coeff.items():
            by_weight.setdefault(sum(label), {})[label] = c
        parts.append([(w, GradedVector(c)) for w, c in by_weight.items()])
    powers: dict = {}
    acc: dict = {}
    for w in weights:
        for a, ua in parts[0]:
            for b, sb in parts[1]:
                t = a + b - 1 - w
                img = V.act(ua, t, sb, w).coeff
                if not img:
                    continue
                c = powers.get(t)
                if c is None:
                    c = powers[t] = z ** (-t - 1)
                for label, x in img.items():
                    acc[label] = acc.get(label, 0) + c * x
    return GradedVector(acc)


def nu_state(V: HeisenbergVOA, Q: ModuliElement, vectors, cutoff: int,
             weights=None) -> GradedVector:
    """The unpaired evaluation of an element on input vectors: the state
    produced at infinity, each intermediate state truncated at the cutoff
    weight. With ``weights``, the outermost insertion computes only the
    components of those weights (a pairing reads no others)."""
    if not Q.standard_at_infinity or \
            not all(c.is_linear for c in Q.coords):
        raise DomainViolation("evaluation needs standard (linear, "
                              "zero-flow) coordinates")
    if len(vectors) != Q.arity:
        raise ValueError("need one input vector per positive puncture")
    norms = [zz.norm2() for zz in Q.z]
    for a, b in zip(norms, norms[1:]):
        if not a > b:
            raise DomainViolation("puncture moduli must strictly decrease")
    if norms and not norms[-1] > 0:
        raise DomainViolation("punctures must avoid the origin")
    full = range(cutoff + 1)
    keep = full if weights is None else [w for w in full if w in weights]
    # below arity 2 the innermost state is also the outermost
    state = _scaled(vectors[-1], Q.coords[-1].scale) if Q.arity else V.vacuum
    inner = keep if Q.arity < 2 else full
    state = GradedVector({k: c for k, c in state.coeff.items()
                          if sum(k) in inner})
    for idx in range(Q.arity - 2, -1, -1):
        u = _scaled(vectors[idx], Q.coords[idx].scale)
        state = _insertion(V, u, Q.z[idx], state, keep if idx == 0 else full)
    return state


def pair(vprime: GradedVector, state: GradedVector) -> QQi:
    """<v', state>, read on the labels of v'."""
    total = QQi(0)
    for label, c in vprime.coeff.items():
        s = state.coeff.get(label)
        if s:
            total = total + QQi.promote(c) * QQi.promote(s)
    return total


def nu_evaluate(V: HeisenbergVOA, Q: ModuliElement, vectors,
                vprime: GradedVector, cutoff: int) -> NuResult:
    """Exact partial sum of the matrix element of the element's vertex-
    operator product, with a stabilization flag: the truncations at
    cutoff - 2, cutoff - 1 and cutoff agree. Below cutoff 2 there are no
    three truncations, so the flag is false."""
    wts = vprime.weights()
    values = [pair(vprime, nu_state(V, Q, vectors, n, wts))
              for n in (cutoff - 2, cutoff - 1, cutoff) if n >= 0]
    stable = len(values) == 3 and values[0] == values[1] == values[2]
    return NuResult(values[-1], stable)


def check_sewing_axiom(V: HeisenbergVOA, Q1: ModuliElement, i: int,
                       Q2: ModuliElement, vectors, vprime: GradedVector,
                       cutoffs: tuple[int, ...]) -> VerificationReport:
    """Compare evaluation of the sewn element against the contraction of
    the two evaluations over an increasing cutoff schedule.

    The difference at each cutoff is exact; the report records whether
    the magnitudes shrink monotonically and whether they vanish.
    """
    sewn = sew(Q1, i, Q2).element
    n2 = Q2.arity
    inner_slice = vectors[i - 1: i - 1 + n2]
    rest = list(vectors[:i - 1]) + [None] + list(vectors[i - 1 + n2:])
    wts = vprime.weights()
    series = []
    for N in cutoffs:
        lhs = pair(vprime, nu_state(V, sewn, vectors, N, wts))
        inner = nu_state(V, Q2, inner_slice, N)
        outer_inputs = list(rest)
        outer_inputs[i - 1] = inner
        rhs = pair(vprime, nu_state(V, Q1, outer_inputs, N, wts))
        series.append((N, lhs - rhs))
    mags = [d.norm2() for _, d in series]
    shrinking = True
    for a, b in zip(mags, mags[1:]):
        if a == 0 and b == 0:
            continue
        if not b < a:
            shrinking = False
    exact_zero = all(not d for _, d in series)
    diffs = [] if (exact_zero or shrinking) else \
        [(("magnitudes",), [str(m) for m in mags], "decreasing")]
    note = "exact-zero" if exact_zero else \
        ("shrinking " + ",".join(str(m) for m in mags))
    return VerificationReport.from_diffs(
        "sewing-evaluation",
        f"arity={Q1.arity}+{Q2.arity};i={i};cutoffs={','.join(map(str, cutoffs))}",
        diffs, note=note)


# -- fixture format -----------------------------------------------------------


def parse_moduli_element(text: str, name: str = "<moduli>") -> ModuliElement:
    """Parse the plain-text element format: ``arity n``, ``order M``,
    ``z: ...``, ``coord 0: A...``, ``coord i: a0 ; A...``.

    A malformed or zero-denominator number, a negative arity, a zero
    scale, more flow coefficients than ``order`` and a bad position list
    raise ``FixtureError`` naming ``name:line``; the position list is
    blamed on its ``z:`` line, or on the ``arity`` line when there is
    none."""
    arity = order = None
    arity_ln = z_ln = 0
    z: list[QQi] = []
    inf = (0, [])
    coords: dict[int, tuple] = {}
    det = 1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("arity"):
                arity, arity_ln = int(line.split()[1]), ln
                if arity < 0:
                    raise ValueError("arity must be nonnegative")
            elif line.startswith("order"):
                order = int(line.split()[1])
            elif line.startswith("z:"):
                z, z_ln = [QQi.parse(tok) for tok in line[2:].split()], ln
            elif line.startswith("det:"):
                det = int_first(Fraction(line[4:].strip()))
            elif line.startswith("coord"):
                head, _, rest = line.partition(":")
                idx = int(head.split()[1])
                if idx == 0:
                    inf = (ln, [QQi.parse(tok) for tok in rest.split()])
                else:
                    a0_s, _, tail = rest.partition(";")
                    a0 = QQi.parse(a0_s.strip())
                    taylor = [QQi.parse(tok) for tok in tail.split()]
                    coords[idx] = (ln, a0, taylor)
            else:
                raise FixtureError(f"{name}:{ln}: unrecognized line {line!r}")
        except ZeroDivisionError:
            raise FixtureError(f"{name}:{ln}: zero denominator in {line!r}")
        except (ValueError, IndexError) as e:
            raise FixtureError(f"{name}:{ln}: {e}")
    if arity is None or order is None:
        raise FixtureError(f"{name}: missing arity or order")

    def padded(i, ln, taylor):
        if len(taylor) > order:
            raise FixtureError(f"{name}:{ln}: coord {i} has {len(taylor)} "
                               f"flow coefficients, more than order {order}")
        return _pad(taylor, order)

    coord_list = []
    for i in range(1, arity + 1):
        if i not in coords:
            raise FixtureError(f"{name}: missing coord {i}")
        ln, a0, taylor = coords[i]
        try:
            coord_list.append(LocalCoordinate(a0, padded(i, ln, taylor)))
        except ValueError as e:
            raise FixtureError(f"{name}:{ln}: {e}")
    try:
        return ModuliElement(arity, order, tuple(z), padded(0, *inf),
                             tuple(coord_list), det)
    except ValueError as e:
        raise FixtureError(f"{name}:{z_ln or arity_ln}: {e}")


def load_moduli_element(path) -> ModuliElement:
    return load_fixture(path, parse_moduli_element)


def format_moduli_element(Q: ModuliElement) -> str:
    lines = [f"arity {Q.arity}", f"order {Q.order}"]
    if Q.z:
        lines.append("z: " + " ".join(repr(zz) for zz in Q.z))
    lines.append("coord 0: " + " ".join(repr(a) for a in Q.inf_coord))
    for i, c in enumerate(Q.coords, start=1):
        lines.append(f"coord {i}: {c.scale!r} ; "
                     + " ".join(repr(a) for a in c.taylor))
    if Q.det_slot != 1:
        lines.append(f"det: {Q.det_slot}")
    return "\n".join(lines) + "\n"
