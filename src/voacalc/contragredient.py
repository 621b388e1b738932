"""Contragredient modules, invariant bilinear forms, and the direct-sum
vertex map.

The contragredient of a truncated module acts on the graded dual space;
its modes are graded adjoints of the conjugated modes

    A(v, n) = sum_k (-1)^{wt v} / k! (L(1)^k v)_{2 wt v - 2 - n - k}

so that pairing a dual vector against A(v, n) reproduces the defining
relation of the dual action. Because every pairing projects onto a single
weight block, these adjoints are exact at any truncation.

A ContragredientModule is an ``axioms.VOAAction`` that supplies ``row``
and its base's ``basis`` (a dual basis vector carries its base vector's
label), so the three-term engine, the intertwiner checker and the
direct-sum map take it wherever they take the algebra acting on itself;
its ``act`` is the shared ``fock.RowAction.act``. A row is read from a
block matrix: for each basis label v, mode n and weight, the matrix of
A(v, n) from the dual block of that weight, the transpose of the sum
over k of the base's matrices of (L(1)^k v / k!)_{2 wt v - 2 - n - k},
whose rows are the base's own ``row``: ``mode_basis`` on the algebra,
the base's blocks on a dual (the double dual). ``conj_operator`` is the
same adjoint applied to one vector, the definition the blocks are tested
against: ``_conj_terms`` forms its operands that do not depend on the
mode index, and ``_conj_image`` runs each lowering's mode over the base's
rows by ``fock.apply_pairs``, keeping the images whose weight lies in
0..ceiling as the base's ``act`` does. ``check_defining_relation`` forms
the terms once per (v, nu) and compares each block whole with the images
of its weight, diffing only the blocks that differ.

Everything is memoised on the instance, by basis label: the lowered
vectors [(k, L(1)^k v / k!)] (the ``fock.exp_chain`` of e^{xL(1)} v) and
the blocks. A memo never outlives its module, so a module built after a
structure constant is corrupted sees the corruption; one built before
keeps serving the values it has already computed. Entries are exact and
integer-first: an integral ``Fraction`` is stored as its ``int``.

The invariant form on a self-dual module is built by fixing the pairing
of the vacuum with itself and propagating through the oscillator adjoint
relation; the full invariance constraints are then re-verified as an
overdetermined cross-check.

The direct-sum map on V + W is an action like the others: it supplies
rows, and its ``act`` is the shared one. A label of the sum is an algebra
label, or a module label with a trailing 0 part, which keeps its weight;
``in_module``, ``summands``, ``DirectSumMap.row`` and
``DirectSumMap.basis`` are the only code that adds or strips it. A row
dispatches on the sectors of its labels: the algebra's row, the module's
row, the skew formula ``axioms.skew_coefficients`` on the module action
(module into sum), or the pairing of the L(1) chains of both arguments
through the two forms (module on module, into the algebra). Rows end at
the forms' top weight. The map's memos are keyed by basis label: the
skew coefficients of each (v, w1, ceiling) for every mode n from the
lowest asked for, each module label's L(1) chain, and the images its
entries pair through. ``w_on_v`` and ``w_on_w`` take labels too: vectors
enter only through the shared ``act``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

# through the module, so that a wrapper installed on axioms sees every call
from . import axioms
from .exact import gauss_solve, int_first
from .fock import (GradedVector, HeisenbergVOA, RowAction, accumulate,
                   exp_chain)
from .reports import VerificationReport, diff_labels, fmt_label
from .series import Window


class NotSelfDual(Exception):
    """The invariance constraints are inconsistent or degenerate."""


class AsymmetricForm(Exception):
    """Direct-sum construction requires a symmetric module form."""


class ContragredientModule(RowAction):
    """Dual action on the graded dual of a module, per the adjoint of the
    conjugated modes. Nesting the construction gives the double dual."""

    def __init__(self, base: axioms.VOAAction):
        self.base = base
        self.V = base.V
        self.level = base.level
        self.basis = base.basis
        # basis label lu -> [(k, L(1)^k lu / k!)] while nonzero
        self._lowered: dict = {}
        # (lu, n, block weight) -> {mu: {nu: coefficient}}
        self._blocks: dict = {}

    def _lowerings(self, lu: tuple) -> list:
        out = self._lowered.get(lu)
        if out is None:
            out = self._lowered[lu] = list(enumerate(exp_chain(
                self.V, 1, GradedVector.basis(lu), terms=sum(lu) + 1)))
        return out

    def conj_operator(self, v: GradedVector, n: int, m: GradedVector,
                      ceiling: int | None = None) -> GradedVector:
        """A(v, n) applied to a vector of the base module, clipped at the
        ceiling as the base's ``act`` clips: the definition the blocks are
        tested against, by the code the defining relation runs."""
        cap = self.base.level if ceiling is None else ceiling
        out = GradedVector.__new__(GradedVector)
        out.coeff = self._conj_image(self._conj_terms(v.coeff, m.coeff),
                                     n, cap)
        return out

    def _conj_terms(self, v: dict, m: dict) -> list:
        """Per label lu of v and lowering k, the operands of A(v, n) m
        that do not depend on n: c_lu (-1)^{wt lu}, 2 wt lu - 2 - k and
        the label pairs of (L(1)^k lu / k!, m)."""
        out = []
        for lu, c in v.items():
            wtv = sum(lu)
            s = -c if wtv % 2 else c
            for k, lv in self._lowerings(lu):
                out.append((s, 2 * wtv - 2 - k,
                            axioms.label_pairs(lv.coeff, m)))
        return out

    def _conj_image(self, terms: list, n: int, cap: int) -> dict:
        """A(v, n) m from its ``_conj_terms``, clipped at cap."""
        acc: dict = {}
        row = self.base.row
        for s, t, pairs in terms:
            accumulate(acc, axioms.apply_pairs(row, pairs, t - n, cap), s)
        return acc

    def adjoint_block(self, lu: tuple, n: int, weight: int) -> dict:
        """The matrix {mu: {nu: coefficient}} of A(lu, n) from the block of
        this weight, for the basis vector lu, memoised on the instance.

        It is sign times the transpose of the sum over k of the base
        matrices of (L(1)^k lu / k!)_{2 wt lu - 2 - n - k}, which map the
        block of the source weight, weight + wt lu - n - 1, into this one;
        row nu of a base matrix is the base's ``row``."""
        key = (lu, n, weight)
        block = self._blocks.get(key)
        if block is not None:
            return block
        wtv = sum(lu)
        source = weight + wtv - n - 1
        basis = self.base.basis(source)
        block = {}
        for k, lv in self._lowerings(lu):
            t = 2 * wtv - 2 - n - k
            for lw, c in lv.coeff.items():
                # lw has weight wt lu - k and lands in this block, unless a
                # corrupted L(1) gave the lowering another weight: then, as
                # the base's act at this ceiling, keep lw only if it lands
                # in 0..weight
                if not 0 <= sum(lw) + source - t - 1 <= weight:
                    continue
                # row nu of the base matrix is column nu of the block
                for nu in basis:
                    for mu, x in self.base.row(lw, t, nu).items():
                        col = block.setdefault(mu, {})
                        col[nu] = col.get(nu, 0) + c * x
        sign = -1 if wtv % 2 else 1
        for mu, col in list(block.items()):
            col = {nu: int_first(sign * x) for nu, x in col.items() if x}
            if col:
                block[mu] = col
            else:
                del block[mu]
        self._blocks[key] = block
        return block

    def row(self, lu: tuple, n: int, lv: tuple) -> dict:
        return self.adjoint_block(lu, n, sum(lv)).get(lv, {})


def check_defining_relation(Mp: ContragredientModule
                            ) -> list[VerificationReport]:
    """The pairing relation defining the dual action, on every basis triple
    (v, dual basis, basis) with a nonzero weight match.

    Per (|mu|, |nu|), the left side is the dual's block of A(v, n) from
    the weight |mu|, and the right side is ``conj_operator`` at ceiling
    |mu| at each nu of weight |nu|, from operands formed once per (v, nu),
    transposed to be indexed like the left. The two blocks are compared
    whole; blocks that differ are diffed per mu, then |nu|, then nu.
    """
    M = Mp.base
    out = []
    for lv in Mp.V.basis_upto():
        wtv = sum(lv)
        # per nu, the operands of A(v, n) nu, formed once for every n
        terms = {nu: Mp._conj_terms({lv: 1}, {nu: 1})
                 for nu in M.basis_upto()}
        diffs = []
        for wmu in range(M.level + 1):
            # the pairs of blocks that differ, by |nu|
            differ = []
            for wnu in range(M.level + 1):
                # the mode index that maps the weight of mu onto that of nu
                n = wtv + wmu - wnu - 1
                right: dict = {}
                for nu in M.basis(wnu):
                    for lab, c in Mp._conj_image(terms[nu], n, wmu).items():
                        right.setdefault(lab, {})[nu] = c
                left = Mp.adjoint_block(lv, n, wmu)
                if left != right:
                    differ.append((n, wnu, left, right))
            for mu in M.basis(wmu):
                for n, wnu, left, right in differ:
                    lhs, rhs = left.get(mu, {}), right.get(mu, {})
                    for nu in M.basis(wnu):
                        lc, rc = lhs.get(nu, 0), rhs.get(nu, 0)
                        if lc != rc:
                            diffs.append(((fmt_label(mu), fmt_label(nu), n),
                                          lc, rc))
        out.append(VerificationReport.from_diffs(
            "dual-defining-relation", f"v={fmt_label(lv)}", diffs))
    return out


def check_dual_virasoro(Mp: ContragredientModule,
                        n_range: int) -> VerificationReport:
    """<L'(n) w', w> = <w', L(-n) w> for |n| <= n_range, plus the Virasoro
    bracket for the dual modes at the same central charge."""
    M, V = Mp.base, Mp.V
    diffs = []
    basis = M.basis_upto()
    names = {mu: fmt_label(mu) for mu in basis}
    # L(-n) nu is omega_{-n+1} nu, over the pairs of (omega, nu)
    omega_on = {nu: axioms.label_pairs(V.omega.coeff, {nu: 1})
                for nu in basis}
    for n in range(-n_range, n_range + 1):
        # L(-n) nu clipped at |mu| depends on mu only through |mu|
        right: dict = {}
        for mu in basis:
            lhs = Mp.virasoro(n, GradedVector.basis(mu))
            wmu = sum(mu)
            for nu in basis:
                lc = lhs.coeff.get(nu, 0)
                img = right.get((nu, wmu))
                if img is None:
                    img = right[(nu, wmu)] = axioms.apply_pairs(
                        M.row, omega_on[nu], -n + 1, wmu)
                rc = img.get(mu, 0)
                if lc != rc:
                    diffs.append((("adjoint", n, names[mu], names[nu]),
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
                diff_labels(diffs, ("bracket", m, n, names[mu]),
                            lhs.clip(M.level).coeff, rhs.clip(M.level).coeff)
    return VerificationReport.from_diffs("dual-virasoro",
                                         f"range={n_range}", diffs)


def check_dual_derivative(Mp: ContragredientModule,
                          order: int) -> VerificationReport:
    """d/dx Y'(v, x) = Y'(L(-1)v, x) on the dual store, modewise, at the
    n whose image weight wt v + wt mu - n - 1 lies in 0..level."""
    V, level = Mp.V, Mp.level
    diffs = []
    for lv in V.basis_upto(V.level - 1):
        dv = V.virasoro(-1, GradedVector.basis(lv)).coeff
        lv_name = fmt_label(lv)
        for mu in Mp.base.basis_upto():
            pairs = axioms.label_pairs(dv, {mu: 1})
            mu_name = fmt_label(mu)
            top = sum(lv) + sum(mu) - 1
            for n in range(max(-(order + 1), top - level),
                           min(order + 1, top + 1)):
                c = -n - 1
                diff_labels(diffs, (lv_name, mu_name, n),
                            {lab: c * x for lab, x
                             in Mp.row(lv, n, mu).items()} if c else {},
                            axioms.apply_pairs(Mp.row, pairs, n + 1, level))
    return VerificationReport.from_diffs("dual-derivative",
                                         f"order={order}", diffs)


def check_contragredient_jacobi(Mp: ContragredientModule, v1: GradedVector,
                                v2: GradedVector, wp: GradedVector,
                                win: Window) -> VerificationReport:
    """Three-term identity for the dual action, with the iterate taken in
    the algebra and everything else acting on dual vectors."""
    acts = axioms.JacobiActions(out1=Mp, in1=Mp, out2=Mp, in2=Mp,
                                iterate=Mp.V, out3=Mp)
    params = axioms._triple_params(v1, v2, wp,
                                   f"win={win.hi('x0')};space=dual")
    return axioms.three_term_check(v1, v2, wp, win, acts,
                                   "dual-jacobi", params)


def check_double_contragredient(Mp: ContragredientModule
                                ) -> VerificationReport:
    """Mode matrices of the double dual against the original module under
    the canonical identification of the double graded dual."""
    M = Mp.base
    Mpp = ContragredientModule(Mp)
    diffs = []
    for lv in Mp.V.basis_upto():
        wtv = sum(lv)
        lv_name = fmt_label(lv)
        for mu in M.basis_upto():
            mu_name = fmt_label(mu)
            # every image weight wt v + wt mu - n - 1 lies in 0..level
            for n in range(wtv + sum(mu) - 1 - M.level, wtv + sum(mu)):
                diff_labels(diffs, (lv_name, n, mu_name), M.row(lv, n, mu),
                            Mpp.row(lv, n, mu))
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

    def pairings(self, u: dict, weight: int, first: bool = True) -> list:
        """The pairings of u's coefficients with each basis vector b_j of
        this weight, in the order of the module's ``basis(weight)``: (u,
        b_j), or (b_j, u) when not ``first``. Other weights pair to zero."""
        block = self.blocks[weight]
        out = [0] * len(block)
        for lab, c in u.items():
            w, i = self.index[lab]
            if w != weight:
                continue
            entries = block[i] if first else [r[i] for r in block]
            for j, g in enumerate(entries):
                out[j] += c * g
        return out

    def block_determinants(self) -> dict[int, Fraction]:
        return {w: gauss_solve(b, [])[0] for w, b in self.blocks.items()}

    def nondegenerate(self) -> bool:
        return all(d != 0 for d in self.block_determinants().values())


def build_invariant_form(Mp: ContragredientModule,
                         normalization: Fraction = Fraction(1)
                         ) -> BilinearForm:
    """Invariant form on ``Mp.base`` with (vacuum, vacuum) equal to
    ``normalization``.

    Propagates through the oscillator adjoint a(n)* = -a(-n), which is the
    invariance constraint specialized to the current generator, then
    cross-checks the full constraint family for every basis operator and
    pair; any inconsistency or degenerate block raises NotSelfDual. The
    cross-check reads the adjoint images from ``Mp``'s block memo, so a
    module shared with other checks serves the images it already holds.
    """
    M = Mp.base
    level = M.level
    index: dict[tuple, tuple[int, int]] = {}
    for w in range(level + 1):
        for i, lab in enumerate(M.basis(w)):
            index[lab] = (w, i)

    # an integral normalization enters as an int, so that the entries, and
    # the pairings of integer vectors, stay ints
    normalization = int_first(normalization)

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
        labs = M.basis(w)
        blocks[w] = [[entry(la, lb) for lb in labs] for la in labs]

    form = BilinearForm(blocks, index)
    form.symmetric = all(
        blocks[w][i][j] == blocks[w][j][i]
        for w in blocks for i in range(len(blocks[w]))
        for j in range(len(blocks[w])))

    if not form.nondegenerate():
        raise NotSelfDual("degenerate weight block at this truncation")

    for lv in M.V.basis_upto():
        wtv = sum(lv)
        # (|nu|, |mu|) -> per mu, the adjoint image of each nu of weight |nu|
        # paired with mu, from one block of Mp's memo
        adjoint: dict = {}
        for mu in M.basis_upto():
            wmu, imu = index[mu]
            for wnu in range(level + 1):
                # single weight-matching mode index (image weight wnu)
                n = wtv + wmu - wnu - 1
                cols = adjoint.get((wnu, wmu))
                if cols is None:
                    block = Mp.adjoint_block(lv, n, wmu)
                    cols = adjoint[(wnu, wmu)] = list(map(list, zip(*(
                        form.pairings({lab: c[nu] for lab, c in block.items()
                                       if nu in c}, wmu, first=False)
                        for nu in M.basis(wnu)))))
                # the direct image paired with each nu of weight wnu
                direct = form.pairings(M.row(lv, n, mu), wnu)
                if direct == cols[imu]:
                    continue
                for nu, lhs, rhs in zip(M.basis(wnu), direct, cols[imu]):
                    if lhs != rhs:
                        raise NotSelfDual(
                            f"invariance fails at v={lv}, w1={mu}, w2={nu}, "
                            f"n={n}: {lhs} != {rhs}")
    return form


def check_invariant_form(Mp: ContragredientModule
                         ) -> list[VerificationReport]:
    """Existence plus the structural properties of the invariant form with
    (vacuum, vacuum) = 1, and the norm of the conformal vector, c/2."""
    out = []
    try:
        form = build_invariant_form(Mp)
    except NotSelfDual as e:
        out.append(VerificationReport.from_diffs(
            "invariant-form", "norm=1", [("build", str(e), "")]))
        return out
    diffs = []
    vacuum = form.pair(GradedVector.basis(()), GradedVector.basis(()))
    if vacuum != 1:
        diffs.append(("vacuum-normalization", vacuum, 1))
    if not form.symmetric:
        diffs.append(("symmetry", "asymmetric", "symmetric"))
    dets = form.block_determinants()
    for w, d in dets.items():
        if d == 0:
            diffs.append((f"block-det-{w}", d, "nonzero"))
    out.append(VerificationReport.from_diffs(
        "invariant-form", "norm=1", diffs,
        note="block dets " + ",".join(str(dets[w]) for w in sorted(dets))))
    om = Mp.V.omega
    if om.weight() > Mp.level:
        out.append(VerificationReport.skipped(
            "form-conformal-norm", f"level={Mp.level}",
            f"omega has weight {om.weight()}, above level {Mp.level}"))
        return out
    want = Mp.V.central_charge / 2
    got = form.pair(om, om)
    out.append(VerificationReport.from_diffs(
        "form-conformal-norm", f"level={Mp.level}",
        [] if got == want else [(("omega",), got, want)], note=f"value={got}"))
    return out


# -- direct-sum vertex map --------------------------------------------------


def in_module(w: GradedVector) -> GradedVector:
    """The module vector w as a vector of the direct sum: each label gains
    a trailing 0 part, which keeps its weight."""
    return GradedVector({lab + (0,): c for lab, c in w.coeff.items()})


def summands(x: GradedVector) -> tuple[GradedVector, GradedVector]:
    """The algebra part and the module part of a vector of the direct sum,
    each on its own labels."""
    v, w = {}, {}
    for lab, c in x.coeff.items():
        if lab[-1:] == (0,):
            w[lab[:-1]] = c
        else:
            v[lab] = c
    return GradedVector(v), GradedVector(w)


class DirectSumMap(RowAction):
    """The vertex map on V + W determined by the algebra structure, the
    module structure, the two invariant forms, and the skew and pairing
    formulas for the cross blocks, as an action on the labels of the sum.

    The module-to-module block has zero W-component; its V-component is
    recovered from the module form against the algebra form blockwise.
    """

    def __init__(self, V: HeisenbergVOA, W: axioms.VOAAction,
                 form_V: BilinearForm, form_W: BilinearForm):
        if not form_W.symmetric:
            raise AsymmetricForm("module form must be symmetric")
        self.V = V
        self.W = W
        self.form_V = form_V
        self.form_W = form_W
        self.level = min(V.level, W.level)
        # the forms' top weight, where every row ends
        self.top = min(max(form_V.blocks), max(form_W.blocks))
        # (lv, l1, ceiling) -> {n: skew coefficient}, n from the lowest asked
        self._skew: dict = {}
        # module label -> its L(1) chain
        self._l1_chains: dict = {}
        # (l1, p) -> {(v label, t): v_t on entry p of l1's L(1) chain, in W}
        self._pairing_images: dict = {}
        # weight -> the columns of the inverse of the algebra form's block,
        # solved in one elimination and kept as their nonzero (index, value)
        # pairs: the form is diagonal on partitions, so nearly every entry
        # is 0
        self._inverse_blocks = {}
        for wt, b in form_V.blocks.items():
            cols = gauss_solve(b, [[int(i == j) for i in range(len(b))]
                                   for j in range(len(b))])[1]
            if cols is None:
                raise NotSelfDual("degenerate algebra form block")
            self._inverse_blocks[wt] = [[(i, c) for i, c in enumerate(col)
                                         if c] for col in cols]

    def w_on_v(self, l1: tuple, n: int, lv: tuple, ceiling: int) -> dict:
        """The W-row of module label l1's mode n on algebra label lv: the
        cross block, from the module action by the skew formula."""
        key = (lv, l1, ceiling)
        got = self._skew.get(key)
        if got is None or n < min(got):
            # every n from this one to the last with a nonzero coefficient
            got = self._skew[key] = axioms.skew_coefficients(
                self.W, GradedVector.basis(lv), GradedVector.basis(l1),
                range(n, max(sum(lv) + sum(l1), n + 1)), ceiling)
        return got.get(n, GradedVector()).coeff

    def _l1_chain(self, lw: tuple) -> list:
        out = self._l1_chains.get(lw)
        if out is None:
            out = self._l1_chains[lw] = exp_chain(
                self.W, 1, GradedVector.basis(lw), self.W.level, sum(lw) + 1)
        return out

    # block (1-60): V-component of Y(w1, x)w2 via the two forms
    def w_on_w(self, l1: tuple, n: int, l2: tuple, target: int) -> dict:
        """The weight-target algebra row of module label l1's mode n on l2."""
        if target < 0:
            return {}
        labs = self.V.basis(target)
        sol = {}
        for col, v_lab in zip(self._inverse_blocks[target], labs):
            r = self._pairing_rhs(v_lab, l1, n, l2)
            if not r:
                continue
            for i, c in col:
                sol[labs[i]] = sol.get(labs[i], 0) + c * r
        return {lab: c for lab, c in sol.items() if c}

    def _pairing_rhs(self, v_lab: tuple, l1: tuple, n: int,
                     l2: tuple) -> Fraction:
        """(v, Y(l1, x)l2)_V coefficient of x^{-n-1}, evaluated through the
        module form from the L(1) chains of l1 and l2."""
        wt1 = sum(l1)
        total = 0
        for p, lp in enumerate(self._l1_chain(l1)):
            images = self._pairing_images.setdefault((l1, p), {})
            pairs = axioms.label_pairs({v_lab: 1}, lp.coeff)
            for q, lq in enumerate(self._l1_chain(l2)):
                t = 2 * wt1 - n - 2 - p + q
                img = images.get((v_lab, t))
                if img is None:
                    img = images[v_lab, t] = GradedVector(
                        axioms.apply_pairs(self.W.row, pairs, t, self.W.level))
                if img.is_zero():
                    continue
                sign = 1 if (wt1 + t) % 2 else -1
                total += self.form_W.pair(img, lq) * sign
        return total

    def basis(self, weight: int) -> tuple:
        """The algebra's labels, then the module's with their trailing 0."""
        return self.V.basis(weight) + tuple(lab + (0,)
                                            for lab in self.W.basis(weight))

    def row(self, lu: tuple, n: int, lv: tuple) -> dict:
        target = sum(lu) + sum(lv) - n - 1
        if target > self.top:
            raise ValueError(f"direct-sum row at weight {target}, above the "
                             f"forms' top weight {self.top}")
        if lu[-1:] != (0,):
            if lv[-1:] != (0,):
                return self.V.row(lu, n, lv)
            img = self.W.row(lu, n, lv[:-1])
        elif lv[-1:] == (0,):
            return self.w_on_w(lu[:-1], n, lv[:-1], target)
        else:
            img = self.w_on_v(lu[:-1], n, lv, max(self.level, target))
        return {lab + (0,): c for lab, c in img.items()}
