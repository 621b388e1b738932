"""Contragredient modules, invariant bilinear forms, and the direct-sum
vertex map.

The contragredient of a truncated module acts on the graded dual space;
its modes are graded adjoints of the conjugated modes

    A(v, n) = sum_k (-1)^{wt v} / k! (L(1)^k v)_{2 wt v - 2 - n - k}

so that pairing a dual vector against A(v, n) reproduces the defining
relation of the dual action. Because every pairing projects onto a single
weight block, these adjoints are exact at any truncation.

A ContragredientModule is an ``axioms.VOAAction`` that overrides only
``act``, so the three-term engine, the intertwiner checker and the
direct-sum map take it wherever they take the algebra acting on itself.
It memoises two things, both on the instance: the lowered vectors
[(k, L(1)^k v / k!)] of each homogeneous v (the ``fock.exp_chain`` of
e^{xL(1)} v), and for each (v, n, weight block) the matrix of A(v, n)
into that block, filled from one image per basis vector of the source
block. A memo never outlives its module, so a module built after a
structure constant is corrupted sees the corruption; one built before
keeps serving the values it has already computed.

The invariant form on a self-dual module is built by fixing the pairing
of the vacuum with itself and propagating through the oscillator adjoint
relation; the full invariance constraints are then re-verified as an
overdetermined cross-check.

The direct-sum map's module-into-sum block is the skew formula
``axioms.skew_coefficient`` on the module action; its module-module block
pairs the L(1) chains of both arguments, built once per component pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

# through the module, so that a wrapper installed on axioms sees every call
from . import axioms
from .exact import exact_det, gauss_solve
from .fock import GradedVector, HeisenbergVOA, exp_chain, partitions
from .reports import VerificationReport, fmt_label
from .series import FormalSeries, Support, Window


class NotSelfDual(Exception):
    """The invariance constraints are inconsistent or degenerate."""


class GradingViolation(Exception):
    """Direct-sum construction requires an integer-graded module."""


class AsymmetricForm(Exception):
    """Direct-sum construction requires a symmetric module form."""


class ContragredientModule(axioms.VOAAction):
    """Dual action on the graded dual of a module, per the adjoint of the
    conjugated modes. Nesting the construction gives the double dual."""

    def __init__(self, base: axioms.VOAAction):
        self.base = base
        self.V = base.V
        self.level = base.level
        self.grading_shift = base.grading_shift
        # homogeneous v -> [(k, L(1)^k v / k!)] while nonzero
        self._lowered: dict = {}
        # (v, n, block weight) -> {mu: {nu: coefficient}}
        self._blocks: dict = {}

    def _lowerings(self, v: GradedVector) -> list:
        vkey = tuple(sorted(v.coeff.items()))
        out = self._lowered.get(vkey)
        if out is None:
            out = self._lowered[vkey] = list(enumerate(
                exp_chain(self.V, 1, v, terms=v.weight() + 1)))
        return out

    def conj_operator(self, v: GradedVector, n: int, m: GradedVector,
                      ceiling: int | None = None) -> GradedVector:
        """A(v, n) applied to a vector of the base module."""
        wtv = v.weight()
        sign = -1 if wtv % 2 else 1
        out = GradedVector()
        for k, lv in self._lowerings(v):
            out = out + self.base.act(lv, 2 * wtv - 2 - n - k, m, ceiling)
        return out.scale(sign)

    def adjoint_block(self, v: GradedVector, n: int, weight: int) -> dict:
        """The matrix {mu: {nu: coefficient}} of A(v, n) into the block of
        this weight, for homogeneous v, memoised on the instance."""
        vkey = tuple(sorted(v.coeff.items()))
        key = (vkey, n, weight)
        block = self._blocks.get(key)
        if block is None:
            # A(v, n) maps each basis vector nu of the source weight into
            # the whole block of this weight, so one image per nu fills
            # the matrix for every mu of the block
            block = {}
            for nu in partitions(weight + v.weight() - n - 1):
                img = self.conj_operator(v, n, GradedVector.basis(nu),
                                         ceiling=weight)
                for lab, coef in img.coeff.items():
                    block.setdefault(lab, {})[nu] = coef
            self._blocks[key] = block
        return block

    def act(self, v: GradedVector, n: int, wp: GradedVector,
            ceiling: int | None = None) -> GradedVector:
        """Dual-module mode action on a dual vector."""
        cap = self.level if ceiling is None else ceiling
        out: dict = {}
        for wtv in sorted(v.weights()):
            vpart = v.component(wtv)
            for mu, c in wp.coeff.items():
                weight = sum(mu)
                target = weight + wtv - n - 1
                if target < 0 or target > cap:
                    continue
                block = self.adjoint_block(vpart, n, weight)
                for lab, x in block.get(mu, {}).items():
                    s = out.get(lab, 0) + c * x
                    if s:
                        out[lab] = s
                    else:
                        out.pop(lab, None)
        return GradedVector(out)


def conjugate_vector(V: HeisenbergVOA, v: GradedVector,
                     var: str = "x") -> FormalSeries:
    """e^{xL(1)} (-x^-2)^{L(0)} v as a finite vector-valued Laurent series."""
    coeff: dict = {}
    for wtv in sorted(v.weights()):
        sign = -1 if wtv % 2 else 1
        for k, lv in enumerate(exp_chain(V, 1, v.component(wtv),
                                         terms=wtv + 1)):
            e = k - 2 * wtv
            coeff[(e,)] = coeff.get((e,), GradedVector()) + lv.scale(sign)
    coeff = {e: c for e, c in coeff.items() if c}
    if coeff:
        lo = min(e for (e,) in coeff)
        hi = max(e for (e,) in coeff)
    else:
        lo = hi = 0
    return FormalSeries((var,), coeff, Window.of(**{var: (lo, hi)}),
                        Support.FINITE)


def check_defining_relation(M, Mp: ContragredientModule | None = None
                            ) -> list[VerificationReport]:
    """The pairing relation defining the dual action, on every basis triple
    (v, dual basis, basis) with a nonzero weight match.

    The left side reads off the built dual-action store; the right side
    expands the conjugated operand and evaluates the original action.
    """
    Mp = Mp or ContragredientModule(M)
    V = M.V
    out = []
    for lv in V.basis_upto():
        v = GradedVector.basis(lv)
        wtv = sum(lv)
        conj = conjugate_vector(V, v)
        right: dict = {}
        diffs = []
        for mu in M.basis_upto():
            wmu = sum(mu)
            left: dict = {}
            for nu in M.basis_upto():
                wnu = sum(nu)
                # the mode index that maps the weight of mu onto that of nu
                n = wtv + wmu - wnu - 1
                lhs_img = left.get(wnu)
                if lhs_img is None:
                    lhs_img = left[wnu] = Mp.act(v, n, GradedVector.basis(mu))
                lhs = lhs_img.coeff.get(nu, 0)
                rhs_img = right.get((nu, wmu))
                if rhs_img is None:
                    rhs_img = GradedVector()
                    for (e,), comp in conj.coeff.items():
                        rhs_img = rhs_img + M.act(
                            comp, -n - 2 - e, GradedVector.basis(nu),
                            ceiling=wmu)
                    right[(nu, wmu)] = rhs_img
                rhs = rhs_img.coeff.get(mu, 0)
                if lhs != rhs:
                    diffs.append(((fmt_label(mu), fmt_label(nu), n), lhs, rhs))
        out.append(VerificationReport.from_diffs(
            "dual-defining-relation", f"v={fmt_label(lv)}", diffs))
    return out


def check_dual_virasoro(M, n_range: int,
                        Mp: ContragredientModule | None = None
                        ) -> VerificationReport:
    """<L'(n) w', w> = <w', L(-n) w> for |n| <= n_range, plus the Virasoro
    bracket for the dual modes at the same central charge."""
    Mp = Mp or ContragredientModule(M)
    V = M.V
    diffs = []
    basis = M.basis_upto()
    for n in range(-n_range, n_range + 1):
        for mu in basis:
            lhs = Mp.virasoro(n, GradedVector.basis(mu))
            for nu in basis:
                lc = lhs.coeff.get(nu, 0)
                rc = M.act(V.omega, -n + 1, GradedVector.basis(nu),
                           ceiling=sum(mu)).coeff.get(mu, 0)
                if lc != rc:
                    diffs.append((("adjoint", n, fmt_label(mu), fmt_label(nu)),
                                  lc, rc))
    c = V.central_charge
    for m in range(-2, 3):
        for n in range(-2, 3):
            for mu in basis:
                if sum(mu) + max(m, n, m + n, 0) > M.level:
                    continue
                wp = GradedVector.basis(mu)
                top = sum(mu) + abs(m) + abs(n) + 2
                lhs = Mp.virasoro(m, Mp.virasoro(n, wp, top), top) \
                    - Mp.virasoro(n, Mp.virasoro(m, wp, top), top)
                rhs = Mp.virasoro(m + n, wp, top).scale(m - n)
                if m + n == 0:
                    rhs = rhs + wp.scale(c * Fraction(m ** 3 - m, 12))
                l6 = lhs.clip(M.level)
                r6 = rhs.clip(M.level)
                delta = l6 - r6
                for label in sorted(delta.coeff):
                    diffs.append((("bracket", m, n, fmt_label(mu), label),
                                  l6.coeff.get(label, 0), r6.coeff.get(label, 0)))
    return VerificationReport.from_diffs("dual-virasoro",
                                         f"range={n_range}", diffs)


def check_dual_derivative(M, order: int,
                          Mp: ContragredientModule | None = None
                          ) -> VerificationReport:
    """d/dx Y'(v, x) = Y'(L(-1)v, x) on the dual store, modewise."""
    Mp = Mp or ContragredientModule(M)
    V = M.V
    diffs = []
    for lv in V.basis_upto(V.level - 1):
        v = GradedVector.basis(lv)
        dv = V.virasoro(-1, v)
        for mu in M.basis_upto():
            wp = GradedVector.basis(mu)
            for n in range(-(order + 1), order + 1):
                lhs = Mp.act(v, n, wp).scale(-n - 1)
                rhs = Mp.act(dv, n + 1, wp)
                delta = lhs - rhs
                for label in sorted(delta.coeff):
                    diffs.append(((fmt_label(lv), fmt_label(mu), n, label),
                                  lhs.coeff.get(label, 0),
                                  rhs.coeff.get(label, 0)))
    return VerificationReport.from_diffs("dual-derivative",
                                         f"order={order}", diffs)


def check_contragredient_jacobi(M, v1: GradedVector, v2: GradedVector,
                                wp: GradedVector, win: Window,
                                Mp: ContragredientModule | None = None
                                ) -> VerificationReport:
    """Three-term identity for the dual action, with the iterate taken in
    the algebra and everything else acting on dual vectors."""
    Mp = Mp or ContragredientModule(M)
    acts = axioms.JacobiActions(out1=Mp, in1=Mp, out2=Mp, in2=Mp,
                                iterate=axioms.VOAAction(M.V), out3=Mp)
    params = axioms._triple_params(v1, v2, wp,
                                   f"win={win.hi('x0')};space=dual")
    return axioms.three_term_check(v1, v2, wp, win, acts,
                                   "dual-jacobi", params)


def check_double_contragredient(M, Mp: ContragredientModule | None = None
                                ) -> VerificationReport:
    """Mode matrices of the double dual against the original module under
    the canonical identification of the double graded dual."""
    Mp = Mp or ContragredientModule(M)
    Mpp = ContragredientModule(Mp)
    V = M.V
    diffs = []
    for lv in V.basis_upto():
        v = GradedVector.basis(lv)
        wtv = sum(lv)
        for mu in M.basis_upto():
            m = GradedVector.basis(mu)
            for n in range(wtv + sum(mu) - 1 - M.level, wtv + sum(mu)):
                orig = M.act(v, n, m)
                double = Mpp.act(v, n, m)
                delta = orig - double
                for label in sorted(delta.coeff):
                    diffs.append(((fmt_label(lv), n, fmt_label(mu), label),
                                  orig.coeff.get(label, 0),
                                  double.coeff.get(label, 0)))
    return VerificationReport.from_diffs("double-dual-identity", "all-basis",
                                         diffs)


# -- invariant bilinear forms -------------------------------------------------


@dataclass
class BilinearForm:
    """Weight-block-diagonal pairing on a truncated module."""

    blocks: dict[int, list[list]]  # exact entries: int or Fraction
    index: dict[tuple, tuple[int, int]] = field(repr=False)
    symmetric: bool = False

    def pair(self, u: GradedVector, v: GradedVector) -> Fraction:
        total = 0
        for lu, cu in u.coeff.items():
            wu, iu = self.index[lu]
            for lv, cv in v.coeff.items():
                wv, iv = self.index[lv]
                if wu == wv:
                    total += cu * cv * self.blocks[wu][iu][iv]
        return total

    def block_determinants(self) -> dict[int, Fraction]:
        return {w: exact_det(b) for w, b in self.blocks.items()}

    def nondegenerate(self) -> bool:
        return all(d != 0 for d in self.block_determinants().values())


def build_invariant_form(M, normalization: Fraction = Fraction(1),
                         verify: bool = True,
                         Mp: ContragredientModule | None = None
                         ) -> BilinearForm:
    """Invariant form with (vacuum, vacuum) equal to ``normalization``.

    Propagates through the oscillator adjoint a(n)* = -a(-n), which is the
    invariance constraint specialized to the current generator, then
    cross-checks the full constraint family for every basis operator and
    pair; any inconsistency or degenerate block raises NotSelfDual. The
    cross-check reads the adjoint images from ``Mp``'s block memo, so a
    module shared with other checks serves the images it already holds.
    """
    level = M.level
    index: dict[tuple, tuple[int, int]] = {}
    for w in range(level + 1):
        for i, lab in enumerate(partitions(w)):
            index[lab] = (w, i)

    from functools import lru_cache

    # an integral normalization enters as an int, so that the entries, and
    # the pairings of integer vectors, stay ints
    if isinstance(normalization, Fraction) and normalization.denominator == 1:
        normalization = normalization.numerator

    @lru_cache(maxsize=None)
    def entry(lam: tuple, mu: tuple):
        if sum(lam) != sum(mu):
            return 0
        if not lam:
            return normalization
        m, rest = lam[0], lam[1:]
        mult = sum(1 for p in mu if p == m)
        if mult == 0:
            return 0
        reduced = list(mu)
        reduced.remove(m)
        return -m * mult * entry(rest, tuple(reduced))

    blocks = {}
    for w in range(level + 1):
        labs = partitions(w)
        blocks[w] = [[entry(la, lb) for lb in labs] for la in labs]

    form = BilinearForm(blocks, index)
    form.symmetric = all(
        blocks[w][i][j] == blocks[w][j][i]
        for w in blocks for i in range(len(blocks[w]))
        for j in range(len(blocks[w])))

    if not form.nondegenerate():
        raise NotSelfDual("degenerate weight block at this truncation")

    if verify:
        Mp = Mp or ContragredientModule(M)
        for lv in M.V.basis_upto():
            v = GradedVector.basis(lv)
            wtv = sum(lv)
            # the direct image depends on nu only through |nu|, the
            # adjoint image on mu only through |mu|
            adjoint: dict = {}
            for mu in M.basis_upto():
                w1 = GradedVector.basis(mu)
                wmu = sum(mu)
                direct: dict = {}
                for nu in M.basis_upto():
                    w2 = GradedVector.basis(nu)
                    wnu = sum(nu)
                    # single weight-matching mode index
                    n = wtv + wmu - wnu - 1
                    img = direct.get(wnu)
                    if img is None:
                        img = direct[wnu] = M.act(v, n, w1)
                    lhs = form.pair(img, w2)
                    adj = adjoint.get((nu, wmu))
                    if adj is None:
                        block = Mp.adjoint_block(v, n, wmu)
                        adj = adjoint[(nu, wmu)] = GradedVector(
                            {lab: col[nu] for lab, col in block.items()
                             if nu in col})
                    rhs = form.pair(w1, adj)
                    if lhs != rhs:
                        raise NotSelfDual(
                            f"invariance fails at v={lv}, w1={mu}, w2={nu}, n={n}: "
                            f"{lhs} != {rhs}")
    return form


def check_invariant_form(M, normalization: Fraction = Fraction(1),
                         Mp: ContragredientModule | None = None
                         ) -> list[VerificationReport]:
    """Existence plus the structural properties of the invariant form, and
    the norm of the conformal vector, c/2 times the normalization."""
    out = []
    try:
        form = build_invariant_form(M, normalization, Mp=Mp)
    except NotSelfDual as e:
        out.append(VerificationReport.from_diffs(
            "invariant-form", f"norm={normalization}", [("build", str(e), "")]))
        return out
    diffs = []
    if form.pair(GradedVector.basis(()), GradedVector.basis(())) != normalization:
        diffs.append(("vacuum-normalization",
                      form.pair(GradedVector.basis(()), GradedVector.basis(())),
                      normalization))
    if not form.symmetric:
        diffs.append(("symmetry", "asymmetric", "symmetric"))
    dets = form.block_determinants()
    for w, d in dets.items():
        if d == 0:
            diffs.append((f"block-det-{w}", d, "nonzero"))
    out.append(VerificationReport.from_diffs(
        "invariant-form", f"norm={normalization}", diffs,
        note="block dets " + ",".join(str(dets[w]) for w in sorted(dets))))
    om = M.V.omega
    if om.weight() > M.level:
        out.append(VerificationReport.skipped(
            "form-conformal-norm", f"level={M.level}",
            f"omega has weight {om.weight()}, above level {M.level}"))
        return out
    want = normalization * M.V.central_charge / 2
    got = form.pair(om, om)
    out.append(VerificationReport.from_diffs(
        "form-conformal-norm", f"level={M.level}",
        [] if got == want else [(("omega",), got, want)], note=f"value={got}"))
    return out


# -- direct-sum vertex map --------------------------------------------------


@dataclass
class DSVector:
    """Element of the direct sum: an algebra part and a module part."""

    v: GradedVector
    w: GradedVector

    def __sub__(self, other):
        return DSVector(self.v - other.v, self.w - other.w)

    def is_zero(self):
        return self.v.is_zero() and self.w.is_zero()


class DirectSumMap:
    """The vertex map on V + W determined by the algebra structure, the
    module structure, the two invariant forms, and the skew and pairing
    formulas for the cross blocks.

    The module-to-module block has zero W-component; its V-component is
    recovered from the module form against the algebra form blockwise.
    """

    def __init__(self, V: HeisenbergVOA, W: axioms.VOAAction,
                 form_V: BilinearForm, form_W: BilinearForm):
        if W.grading_shift != 0:
            raise GradingViolation("module grading is not integral")
        if not form_W.symmetric:
            raise AsymmetricForm("module form must be symmetric")
        self.V = V
        self.W = W
        self.form_V = form_V
        self.form_W = form_W
        self.level = min(V.level, W.level)

    # cross block: modes of the map sending the module into the sum,
    # recovered from the module action by the skew formula
    def w_on_v(self, w1: GradedVector, n: int, v: GradedVector,
               ceiling: int | None = None) -> GradedVector:
        cap = self.level if ceiling is None else ceiling
        return axioms.skew_coefficient(self.W, v, n, w1, cap)

    # block (1-60): V-component of Y(w1, x)w2 via the two forms
    def w_on_w(self, w1: GradedVector, n: int, w2: GradedVector,
               ceiling: int | None = None) -> GradedVector:
        cap = self.level if ceiling is None else ceiling
        out = GradedVector()
        for wt1 in sorted(w1.weights()):
            p1 = w1.component(wt1)
            for wt2 in sorted(w2.weights()):
                p2 = w2.component(wt2)
                target = wt1 + wt2 - n - 1
                if target < 0 or target > cap:
                    continue
                labs = partitions(target)
                # the L(1) chains of both components, once per pair
                c1 = exp_chain(self.W, 1, p1, self.W.level, wt1 + 1)
                c2 = exp_chain(self.W, 1, p2, self.W.level, wt2 + 1)
                rhs = [self._pairing_rhs(v_lab, c1, wt1, n, c2)
                       for v_lab in labs]
                gram = self.form_V.blocks[target]
                sol = gauss_solve([list(r) for r in gram], rhs)
                if sol is None:
                    raise NotSelfDual("degenerate algebra form block")
                out = out + GradedVector(
                    {lab: c for lab, c in zip(labs, sol) if c})
        return out

    def _pairing_rhs(self, v_lab: tuple, chain1: list, wt1: int, n: int,
                     chain2: list) -> Fraction:
        """(v, Y(w1, x)w2)_V coefficient of x^{-n-1}, evaluated through the
        module form from the L(1) chains of w1 (of weight wt1) and w2."""
        v = GradedVector.basis(v_lab)
        total = 0
        for p, lp in enumerate(chain1):
            for q, lq in enumerate(chain2):
                t = 2 * wt1 - n - 2 - p + q
                img = self.W.act(v, t, lp, self.W.level)
                if img.is_zero():
                    continue
                sign = 1 if (wt1 + t) % 2 else -1
                total += self.form_W.pair(img, lq) * sign
        return total

    def act(self, u: DSVector, n: int, x: DSVector,
            ceiling: int | None = None) -> DSVector:
        cap = self.level if ceiling is None else ceiling
        v_out = self.V.apply_mode(u.v, n, x.v, cap)
        if u.w and x.w:
            v_out = v_out + self.w_on_w(u.w, n, x.w, cap)
        w_out = self.W.act(u.v, n, x.w, cap)
        if u.w and x.v:
            w_out = w_out + self.w_on_v(u.w, n, x.v, cap)
        return DSVector(v_out, w_out)

