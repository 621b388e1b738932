"""Coefficientwise verification of the core vertex-algebra identities:
the three-term (Jacobi) identity, skew-symmetry, Virasoro bracket
formulas, sl(2) conjugation identities, and the permutation (S3)
transfer of the three-term identity.

Every check compares both sides of an identity by structurally different
evaluation paths on a finite exponent window, in exact arithmetic. A
check is only allowed to return pass/fail when truncation provably loses
nothing at any examined coefficient; otherwise it reports skipped.

Every space is driven through one action protocol, ``fock.VOAAction``,
imported here under the same name: ``level``, ``row`` (one basis label's
mode on another), ``act`` (clipped at ``level`` unless given a ceiling),
``true_nonzero`` and ``kron``. The algebra is an action itself; the dual,
the stored intertwiners and the direct-sum map supply rows and share
``fock.RowAction.act``. The three-term engine applies modes through the
rows too, with the loop that ``RowAction.act`` runs, ``fock.apply_pairs``:
it sums c row(lu, n, lv) over label pairs (``fock.label_pairs``) that the
engine forms once and reads at many n, keeping a pair when its image
weight lies in 0..level, as every ``act`` does. The loss test ``true_nonzero``
is exact: an inner image with true content above the working level marks
the instance out of budget whenever an outer mode could map that content
back into the observable range.

The three-term engine (``three_term_check`` and ``check_translate_skew``)
runs on evaluation plans. A plan is built from integers only (term
layout, total weight, window, observable level, expansion rows): the
products in the order a position loop first demands them, grouped by
inner image (term, j), and per product the positions and coefficients it
feeds. A check drops the groups whose inner image y_j z has negative
weight, so triples of one total weight share a plan whatever their weight
signature. The expansion rows come from ``series.delta_rows``, the one
delta kernel, which the ``delta-two-term`` and ``delta-three-term``
records check through ``series.delta_expansion``. A check decides
exactness first: each image above the inner level is loss-tested once,
at the first product in plan order whose outer mode can see it, the
images in the order of those products, and the check skips at the first
lost one before it computes any product. Otherwise it walks the groups:
it computes each inner image once, over the (y, z) label pairs formed
once per check, skips all products of a zero image, computes the
products of the others over the (x, image) pairs formed once per image,
and scatters the nonzero products into one list per side and basis
label, indexed by position. The check passes when each label's
two lists are equal; otherwise the labels whose lists differ are diffed
by (position, label). Nothing is memoised; each image and product is
computed once by construction. A plan holds no value, so the last few
are kept across calls: a constant corrupted between two calls, as
negative controls do, is seen by the second, and dual and intertwiner
actions reuse the algebra's plan safely. Coefficients stay integers
until a genuine fraction enters: the lists start as int 0.

The skew formula, the x^(-n-1) coefficients of e^{xL(-1)} Y(v, -x) u, is
written once (``skew_coefficients``) for the skew-symmetry check, the
iterate rewrite and the direct-sum cross block. It and the sl(2)
conjugation checks read L(+-1)^k w / k! off ``fock.exp_chain``, one chain
per vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from .exact import binom
from .fock import (GradedVector, HeisenbergVOA, VOAAction, accumulate,
                   apply_pairs, divided, exp_chain, label_pairs)
from .reports import (Status, VerificationReport, diff_labels, fmt_label,
                      fmt_vec)
from .series import Window, delta_rows


@dataclass
class JacobiActions:
    """The six mode actions entering a three-term identity instance; on
    the algebra all six coincide, while dual and intertwiner actions fill
    their own slots."""

    out1: VOAAction   # x1-operator applied outermost in the first product
    in1: VOAAction    # x2-operator applied innermost in the first product
    out2: VOAAction   # x2-operator applied outermost in the second product
    in2: VOAAction    # x1-operator applied innermost in the second product
    iterate: VOAAction  # inner composition feeding the iterate term
    out3: VOAAction   # iterate result acting on the target

    @staticmethod
    def uniform(action: VOAAction) -> "JacobiActions":
        return JacobiActions(action, action, action, action, action, action)


@lru_cache(maxsize=4)
def _expansion_rows(win: Window, k_prod: int, k_iter: int, sign: int):
    """The delta rows of one check: those of the two products over the x0
    exponents a at ``sign``, binom(-a-1, k) sign^k, and those of the
    iterate over the x1 exponents b at -sign, binom(-b-1, k) (-sign)^k =
    binom(b+k, k) sign^k."""
    return (delta_rows(win.lo("x0"), win.hi("x0"), k_prod, sign),
            delta_rows(win.lo("x1"), win.hi("x1"), k_iter, -sign))


class _Term:
    """The products x_i (y_j z), or (y_j z)_i x for an iterate, of one term
    within one check call. An inner image y_j z above the inner action's
    level is lost when its true value is nonzero and the outer mode can
    see it: ``kron`` is the one outer index at which x acts, when x is a
    vacuum multiple. Its (y, z) label pairs are formed once per check, and
    the caller, which has read the operands' weights, gives wt y + wt z."""

    def __init__(self, outer, x, inner, y, z, yz_weight: int, iterate: bool,
                 kron, note: str):
        self.outer, self.x, self.inner, self.y, self.z = outer, x, inner, y, z
        self.iterate, self.kron, self.note = iterate, kron, note
        self.yz_weight = yz_weight
        self.yz = label_pairs(y.coeff, z.coeff)

    def lost(self, j: int) -> bool:
        return self.inner.true_nonzero(self.y, j, self.z)

    def image_pairs(self, j: int) -> list:
        """The (x, image) label pairs of the image y_j z, formed once for
        all the products of its group; empty where the image is zero, or
        its weight is negative or above the inner action's level."""
        if not 0 <= self.yz_weight - j - 1 <= self.inner.level:
            return []
        img = apply_pairs(self.inner.row, self.yz, j, self.inner.level)
        return (label_pairs(img, self.x.coeff) if self.iterate
                else label_pairs(self.x.coeff, img))

    def compute(self, i: int, pairs: list) -> dict:
        return apply_pairs(self.outer.row, pairs, i, self.outer.level)


def _jacobi_layout(pos, W, prod, iterate):
    """The terms of ``three_term_check`` at a position (p outer, q outer,
    iterate), as (term, side, offset, row, n, sign): the products at
    j = k - offset for k < n, fed with sign * row[k] into side 0 or 1.
    Every term is bounded by the total weight W; past wt y + wt z the inner
    image y_j z has negative weight, and the check drops those products."""
    (a, b, c), row, it = pos, prod[pos[0]], iterate[pos[1]]
    return ((0, 0, c + 1, row, min(W + c + 1, len(row)), 1),
            (1, 0, b + 1, row, min(W + b + 1, len(row)),
             -1 if a % 2 else 1),
            (2, 1, a + 1, it, min(W + a + 1, len(it)), 1))


def _translate_skew_layout(pos, W, prod, iterate):
    """The terms of ``check_translate_skew``, as above. Term a's coefficient
    (-1)^c binom(b+k, k) is, by Vandermonde, a sum over k1 of binom(-a-1,
    k1) binom(a+b+k+1, k-k1); its products are computed where a summand is
    nonzero, below -a-b-1 if a, b < 0, which may pass the row's end."""
    (a, b, c), row, it = pos, prod[pos[0]], iterate[pos[1]]
    sign, n = -1 if c % 2 else 1, W + c + 1
    return ((0, 0, c + 1, it, min(n, -a - b - 1) if a < 0 and b < 0 else n,
             sign),
            (1, 0, b + 1, row, min(W + b + 1, len(row)), -sign),
            (2, 1, a + 1, it, min(W + a + 1, len(it)),
             sign if b % 2 else -sign))


def _plan(layout, W: int, win: Window, level: int, rows: tuple):
    """The evaluation plan of the checks of total weight W: the positions
    (a, b, c) at which the final weight W + a + b + c + 1 is in 0..level,
    and the products grouped by inner image (term, j), the groups in the
    order the position loop first demands them. A group lists its products
    as (n, i, side, p, feed): n the product's index in that order, p the
    first position that demands it, and feed the flat pairs (position,
    nonzero coefficient) it feeds on its side. Read at j < wt y + wt z
    only, it is the plan of one weight signature."""
    prod, iterate = dict(rows[0]), dict(rows[1])
    positions = [(a, b, c) for a in range(win.lo("x0"), win.hi("x0") + 1)
                 for b in range(win.lo("x1"), win.hi("x1") + 1)
                 for c in range(max(win.lo("x2"), -(W + a + b + 1)),
                                min(win.hi("x2"), level - W - a - b - 1) + 1)]
    groups, index, made = {}, {}, 0
    for p, pos in enumerate(positions):
        diag = -(sum(pos) + 3)
        for term, side, off, row, n, sign in layout(pos, W, prod, iterate):
            known = index.setdefault((term, diag), {})   # j -> feed
            for k in range(n):
                feed = known.get(k - off)
                if feed is None:
                    feed = known[k - off] = []
                    groups.setdefault((term, k - off), []).append(
                        (made, diag - k + off, side, p, feed))
                    made += 1
                if k < len(row):
                    feed += (p, sign * row[k])
    return positions, groups


# kept per layout and W: the S3 suite alternates two jacobi plans and a rewrite
_PLANS = {_jacobi_layout: lru_cache(maxsize=2)(_plan),
          _translate_skew_layout: lru_cache(maxsize=1)(_plan)}


def _evaluate(layout, W: int, win: Window, level: int, rows,
              terms: tuple, identity: str, params: str) -> VerificationReport:
    """Decide exactness, then evaluate, one inner image y_j z at a time.
    Each image above the inner level is loss-tested at the first product,
    in plan order, that can see it, and the first lost one skips the
    check. Otherwise each image of nonnegative weight is computed once, a
    zero one skipping all of its products; the products of the others are
    computed by the pair loop over the image's (x, image) pairs, formed
    once for its group, and each label of a nonzero one is scattered over
    its feed into that side's list for the label, one entry per position.
    A label whose two lists are equal holds everywhere; the others are
    diffed by (position, label)."""
    positions, groups = _PLANS[layout](layout, W, win, level, rows)
    seen = []   # (n, term, j, p) of each image's first product that sees it
    for (term, j), entries in groups.items():
        t = terms[term]
        if j < t.yz_weight - t.inner.level - 1:
            first = next((e for e in entries if t.kron in (None, e[1])), None)
            if first:
                seen.append((first[0], term, j, first[3]))
    for _, term, j, p in sorted(seen):
        t = terms[term]
        if t.lost(j):
            return VerificationReport.skipped(
                identity, params,
                f"{t.note} weight {t.yz_weight - j - 1} at {positions[p]}")
    zeros = [0] * len(positions)
    lhs, rhs = sides = ({}, {})   # label -> coefficient at each position
    for (term, j), entries in groups.items():
        t = terms[term]
        pairs = t.image_pairs(j)
        if not pairs:
            continue
        for _, i, side, _, feed in entries:
            val = t.compute(i, pairs)
            if val:
                live = sides[side]
                for label, x in val.items():
                    acc = live.get(label)
                    if acc is None:
                        acc = live[label] = zeros.copy()
                    it = iter(feed)
                    for p, co in zip(it, it):
                        acc[p] += co * x
    diffs = []   # (p, label, lhs, rhs)
    for label in lhs.keys() | rhs.keys():
        left, right = lhs.get(label, zeros), rhs.get(label, zeros)
        if left != right:
            diffs += [(p, label, lc, rc) for p, (lc, rc)
                      in enumerate(zip(left, right)) if lc != rc]
    diffs.sort(key=lambda d: d[:2])
    return VerificationReport.from_diffs(identity, params, [
        (positions[p] + (label,), lc, rc) for p, label, lc, rc in diffs])


def three_term_check(p: GradedVector, q: GradedVector, tgt,
                     win: Window, acts: JacobiActions,
                     identity: str, params: str) -> VerificationReport:
    """Verify term1 - term2 = term3 on the window, where

        term1 = x0^-1 d((x1-x2)/x0)   (p at x1) (q at x2) tgt
        term2 = x0^-1 d((x2-x1)/-x0)  (q at x2) (p at x1) tgt
        term3 = x2^-1 d((x1-x0)/x2)   (iterate p,q at x0; result at x2) tgt

    Mixed-weight inputs decompose into homogeneous component triples, which
    by the grading verify independently; the reports merge, skipping when
    any component is out of budget. Each operand's weights are read once.
    """
    wp, wq, wt = p.weights(), q.weights(), tgt.weights()
    if len(wp) == len(wq) == len(wt) == 1:
        (a,), (b,), (c,) = wp, wq, wt
    elif wp and wq and wt:
        merged: list = []
        for a, b, c in product(sorted(wp), sorted(wq), sorted(wt)):
            rep = three_term_check(p.component(a), q.component(b),
                                   tgt.component(c), win, acts, identity,
                                   params)
            if rep.status is Status.SKIPPED:
                return rep
            merged.extend(rep.diffs)
        return VerificationReport.from_diffs(identity, params, merged)
    else:   # a zero operand, refused as GradedVector.weight refuses it
        a, b, c = p.weight(), q.weight(), tgt.weight()
    W = a + b + c
    rows = _expansion_rows(win, W + max(win.hi("x1"), win.hi("x2")) + 1,
                           W + win.hi("x0") + 1, -1)
    terms = (_Term(acts.out1, p, acts.in1, q, tgt, W - a, False,
                   acts.out1.kron(p), "product-inner"),
             _Term(acts.out2, q, acts.in2, p, tgt, W - b, False,
                   acts.out2.kron(q), "product-inner"),
             _Term(acts.out3, tgt, acts.iterate, p, q, W - c, True, None,
                   "iterate-inner"))
    level = min(acts.out1.level, acts.out2.level, acts.out3.level)
    return _evaluate(_jacobi_layout, W, win, level, rows, terms, identity,
                     params)


def _triple_params(u, v, w, extra: str) -> str:
    return f"u={fmt_vec(u)};v={fmt_vec(v)};w={fmt_vec(w)};{extra}"


def check_jacobi(V: HeisenbergVOA, u: GradedVector, v: GradedVector,
                 w: GradedVector, win: Window) -> VerificationReport:
    """The three-term identity for the ordered triple (u, v, w) on V."""
    params = _triple_params(u, v, w, f"win={win.hi('x0')}")
    return three_term_check(u, v, w, win, JacobiActions.uniform(V),
                            "jacobi", params)


def skew_coefficients(action: VOAAction, v: GradedVector, u: GradedVector,
                      ns, ceiling: int | None = None,
                      images: dict | None = None) -> dict:
    """{n: the x^(-n-1) coefficient of e^{xL(-1)} Y(v, -x) u} for each n
    in ``ns``,

        sum_j (-1)^(n+j+1) L(-1)^j/j! v_(n+j) u,

    which skew-symmetry equates with u_n v. The modes and L(-1) are
    ``action``'s, each clipped at the ceiling. Each image v_m u and its
    ``exp_chain`` are computed once; the chain runs to the entry that the
    smallest n reads, and the images run the pair loop of ``act``. A
    given ``images`` dict receives each image, as {m: v_m u}."""
    out = {n: GradedVector() for n in ns}
    if not out or not v or not u:
        return out
    lo = min(out)
    cap = action.level if ceiling is None else ceiling
    pairs = label_pairs(v.coeff, u.coeff)
    for m in range(lo, max(v.weights()) + max(u.weights())):
        img = GradedVector.__new__(GradedVector)
        img.coeff = apply_pairs(action.row, pairs, m, cap)
        if images is not None:
            images[m] = img
        chain = exp_chain(action, -1, img, ceiling, m - lo + 1)
        for n in out:
            if n <= m < n + len(chain):
                out[n] = out[n] + (chain[m - n] if m % 2 else -chain[m - n])
    return out


def check_skew_symmetry(V: HeisenbergVOA, u: GradedVector, v: GradedVector,
                        order: int) -> VerificationReport:
    """Y(u, x)v against exp(x L(-1)) Y(v, -x)u through order x^order."""
    wu, wv = u.weight(), v.weight()
    params = f"u={fmt_vec(u)};v={fmt_vec(v)};order={order}"
    hi = min(order, V.level - wu - wv)
    lo = -(wu + wv + order + 1)
    if hi < 0:
        return VerificationReport.skipped(
            "skew-symmetry", params, f"no orders below level {V.level}")
    diffs = []
    skew = skew_coefficients(V, v, u, range(-hi - 1, -lo))
    uv = label_pairs(u.coeff, v.coeff)
    for k in range(lo, hi + 1):
        diff_labels(diffs, (k,), apply_pairs(V.row, uv, -k - 1, V.level),
                    skew[-k - 1].coeff)
    return VerificationReport.from_diffs("skew-symmetry", params, diffs)


# -- bracket formulas ------------------------------------------------------


# the binomials binom(i + 1, j), j = 0..i+1, of the bracket formulas
_BRACKET_BINOMS = {-1: (1,), 0: (1, 1), 1: (1, 2, 1)}


def check_commutators(V: HeisenbergVOA, vs: list,
                      win: Window) -> list[VerificationReport]:
    """The three Virasoro bracket formulas

        [L(i), v_n] = sum_j binom(i+1, j) (L(i-j)v)_(n+j),   i = -1, 0, 1,

    for each homogeneous v of ``vs`` on every basis vector w,
    coefficientwise in the mode index: three reports per v, in order.

    Mode indices n are taken from the exponent window (n = -exp - 1); a
    (w, n) pair is only asserted when every constituent stays below the
    level, and instances with no assertable pair at all report skipped.
    Each image is computed once: w's name, loss test and L(i)w per call,
    L(i)v per v, v_n w per (v, w, n) and (L(j)v)_m w per (v, w), by the
    pair loop over the algebra's rows (L(i) as half the mode i + 1 of
    2 omega), and each side is summed in one dict.
    """
    n_lo = -win.hi("x") - 1
    n_hi = -win.lo("x") - 1
    modes = (-1, 0, 1)
    row, level, two = V.row, V.level, V.twice_omega.coeff

    def virasoro(i, pairs):   # L(i) x from the pairs of (2 omega, x)
        return divided(apply_pairs(row, pairs, i + 1, level), 2)

    def lost_raise(x):
        # the formulas need L(-1)x exactly; test the loss, not the bound
        # (L(-1) is the zero mode of 2 omega)
        return x.weight() + 1 > level and V.true_nonzero(
            V.twice_omega, 0, x)

    # per basis vector w: w, its weight and name, its lost raise and L(i)w
    ws = []
    for lw in V.basis_upto():
        w = GradedVector.basis(lw)
        tw = label_pairs(two, w.coeff)
        ws.append((w, sum(lw), fmt_label(lw), lost_raise(w),
                   {i: virasoro(i, tw) for i in modes}))
    out = []
    for v in vs:
        wv = v.weight()
        vac = V.is_vacuum_multiple(v)
        lost_raise_v = not vac and lost_raise(v)
        tv = label_pairs(two, v.coeff)
        l_v = {} if lost_raise_v else {i: virasoro(i, tv) for i in modes}
        diffs: dict = {i: [] for i in modes}
        checked = dict.fromkeys(modes, 0)
        skipped = dict.fromkeys(modes, 0)
        for w, ww, lw_name, lost_raise_w, l_w in ws:
            vw = label_pairs(v.coeff, w.coeff)
            l_v_w = {j: label_pairs(x, w.coeff) for j, x in l_v.items()}
            vn_w: dict = {}    # n -> the pairs of (2 omega, v_n w)
            parts: dict = {}   # (j, m) -> (L(j)v)_m w
            for i in modes:
                # exactness conditions for each constituent; a lost raise
                # skips every n
                lost = lost_raise_v or (i == -1 and lost_raise_w and not vac)
                v_l_w = None if lost else label_pairs(v.coeff, l_w[i])
                for n in range(n_lo, n_hi + 1):
                    final = wv + ww - n - 1 - i
                    if final < 0 or final > level:
                        continue
                    if lost or (i == 1 and wv + ww - n - 1 > level
                                and V.true_nonzero(v, n, w)):
                        skipped[i] += 1
                        continue
                    checked[i] += 1
                    if n not in vn_w:
                        vn_w[n] = label_pairs(two,
                                              apply_pairs(row, vw, n, level))
                    lhs = virasoro(i, vn_w[n])
                    accumulate(lhs, apply_pairs(row, v_l_w, n, level), -1)
                    rhs: dict = {}
                    for j, b in enumerate(_BRACKET_BINOMS[i]):
                        key = (i - j, n + j)
                        if key not in parts:
                            parts[key] = apply_pairs(row, l_v_w[i - j],
                                                     n + j, level)
                        accumulate(rhs, parts[key], b)
                    diff_labels(diffs[i], (lw_name, n), lhs, rhs)
        params = f"v={fmt_vec(v)};win={win.hi('x')}"
        for i in modes:
            ident = f"bracket-L({i})"
            if checked[i] == 0:
                out.append(VerificationReport.skipped(ident, params,
                                                      "no assertable modes"))
            else:
                rep = VerificationReport.from_diffs(ident, params, diffs[i])
                if skipped[i]:
                    rep.note = f"{skipped[i]} mode positions skipped"
                out.append(rep)
    return out


# -- conjugation identities -------------------------------------------------


def _entry(chain: list, k: int) -> GradedVector:
    """Entry k of an ``exp_chain``: zero for negative k or past its end."""
    return chain[k] if 0 <= k < len(chain) else GradedVector()


def _sl2_flow_reports(V: HeisenbergVOA, v: GradedVector,
                      order: int) -> list[VerificationReport]:
    """The sl(2) conjugation identities with f(x) = x, expanded termwise."""
    wv = v.weight()
    out = []
    params = f"v={fmt_vec(v)};order={order}"
    lv = {i: V.virasoro(i, v) for i in (-1, 0, 1)}

    # L(n) e^{xL(0)} = e^{xL(0)} L(n) e^{nx} for n = -1, 1, with L(0) read
    # through the algebra off the chains of e^{xL(0)} on v and on L(n)v
    e0 = exp_chain(V, 0, v, terms=order + 1)
    for n in (-1, 1):
        ident = f"conj-exp-L0-with-L({n})"
        if n == -1 and wv + 1 > V.level:
            out.append(VerificationReport.skipped(ident, params,
                                                  "raise exceeds level"))
            continue
        en = exp_chain(V, 0, lv[n], terms=order + 1)
        diffs = []
        for j in range(order + 1):
            rhs = GradedVector()
            for p in range(j + 1):
                rhs = rhs + _entry(en, p).scale(
                    Fraction(n ** (j - p), factorial(j - p)))
            diff_labels(diffs, (j,), V.virasoro(n, _entry(e0, j)).coeff,
                        rhs.coeff)
        out.append(VerificationReport.from_diffs(ident, params, diffs))

    # L(-1) e^{xL(1)}: both bracket rearrangements, read off the chains of
    # e^{xL(1)} on v and on L(i)v
    if wv + 1 > V.level:
        out.append(VerificationReport.skipped("conj-exp-L1-with-L(-1)", params,
                                              "raise exceeds level"))
    else:
        diffs = []
        ev = exp_chain(V, 1, v, terms=order + 1)
        el = {i: exp_chain(V, 1, x, terms=order + 1) for i, x in lv.items()}
        for j in range(order + 1):
            e1 = V.virasoro(-1, _entry(ev, j))
            e2 = _entry(el[-1], j) \
                - V.virasoro(0, _entry(ev, j - 1)).scale(2) \
                - V.virasoro(1, _entry(ev, j - 2))
            e3 = _entry(el[-1], j) - _entry(el[0], j - 1).scale(2) \
                + _entry(el[1], j - 2)
            diff_labels(diffs, ((j, "mid"),), e1.coeff, e2.coeff)
            diff_labels(diffs, ((j, "outer"),), e1.coeff, e3.coeff)
        out.append(VerificationReport.from_diffs("conj-exp-L1-with-L(-1)",
                                                 params, diffs))
    return out


def _scale_conjugation_report(V: HeisenbergVOA, v: GradedVector) -> VerificationReport:
    """x^{L(0)} Y(v, x0) x^{-L(0)} = Y(x^{L(0)} v, x x0), mode by mode.

    The left side reads the x-power off the actual weight shift of each
    output; the right side predicts it from the grading. A mixed-weight
    output is a grading defect too: each of its weights is compared.
    Checked on every basis vector within the level.
    """
    wv = v.weight()
    diffs = []
    for lw in V.basis_upto():
        w = GradedVector.basis(lw)
        for n in V.mode_range(v, w):
            rhs_exp = wv - n - 1
            for wt in sorted(V.act(v, n, w).weights()):
                if wt - sum(lw) != rhs_exp:
                    diffs.append(((fmt_label(lw), n), wt - sum(lw), rhs_exp))
    return VerificationReport.from_diffs("conj-scale", f"v={fmt_vec(v)}",
                                         diffs)


def _shear_conjugation_report(V: HeisenbergVOA, v: GradedVector,
                              order: int) -> VerificationReport:
    """e^{xL(1)} Y(v, x0) e^{-xL(1)} against the sheared-argument form,
    as series in x (degree <= order) with exact Laurent data in x0.

    Compared only at x0-exponents where no product intermediate can cross
    the level, which keeps the verdict exact.
    """
    wv = v.weight()
    params = f"v={fmt_vec(v)};order={order}"
    diffs = []
    any_checked = False
    ev = exp_chain(V, 1, v, terms=wv + 1)
    for lw in V.basis_upto():
        w = GradedVector.basis(lw)
        ww = sum(lw)
        e_hi = V.level - wv - ww
        e_lo = -(wv + ww + order + 2)
        if e_hi < e_lo:
            continue
        any_checked = True
        # (x^j, x0^e) -> e^{xL(1)} v_n e^{-xL(1)} w, with e = -n-1
        lhs: dict = {}
        for qq, wq in enumerate(exp_chain(V, 1, w, terms=min(order, ww) + 1)):
            sign = (-1) ** (qq % 2)
            for n in range(wv + ww - qq - 1 - V.level, wv + ww - qq):
                e = -n - 1
                if e < e_lo or e > e_hi:
                    continue
                for pp, val in enumerate(exp_chain(
                        V, 1, V.act(v, n, wq), terms=order - qq + 1)):
                    key = (qq + pp, e)
                    lhs[key] = lhs.get(key, GradedVector()) + val.scale(sign)
        rhs: dict = {}
        for i, vi in enumerate(ev):
            for tprime in range(wv - i + ww - 1 - V.level, wv - i + ww):
                base = None  # vi_tprime w, once per (i, tprime)
                for r in range(max(0, e_lo + tprime + 1),
                               min(order - i, e_hi + tprime + 1) + 1):
                    # the x^r coefficient of (1 - x)^i (1 - x)^(-2 wt v)
                    # (1 - x)^(t' + 1), one binomial by Vandermonde
                    co = binom(i - 2 * wv + tprime + 1, r) * (-1) ** (r % 2)
                    if not co:
                        continue
                    if base is None:
                        base = V.act(vi, tprime, w)
                    if not base:
                        break
                    key = (i + r, r - tprime - 1)
                    rhs[key] = rhs.get(key, GradedVector()) + base.scale(co)
        lw_name = fmt_label(lw)
        for key in sorted(set(lhs) | set(rhs)):
            diff_labels(diffs, (lw_name,) + key,
                        lhs.get(key, GradedVector()).coeff,
                        rhs.get(key, GradedVector()).coeff)
    if not any_checked:
        return VerificationReport.skipped("conj-shear", params,
                                          "no exact x0 range")
    return VerificationReport.from_diffs("conj-shear", params, diffs)


def _translate_conjugation_report(V: HeisenbergVOA, v: GradedVector,
                                  order: int) -> VerificationReport:
    """e^{x0 L(-1)} Y(v, x) e^{-x0 L(-1)} = Y(v, x + x0) termwise."""
    wv = v.weight()
    params = f"v={fmt_vec(v)};order={order}"
    diffs = []
    any_checked = False
    for lw in V.basis_upto():
        w = GradedVector.basis(lw)
        ww = sum(lw)
        j_hi = min(order, V.level - ww)
        if j_hi < 0:
            continue
        any_checked = True
        lw_name = fmt_label(lw)
        # lhs[j]: x^e -> the x0^j coefficient of the conjugated series
        lhs: list = [{} for _ in range(j_hi + 1)]
        for qq, wq in enumerate(exp_chain(V, -1, w, terms=j_hi + 1)):
            sign = (-1) ** (qq % 2)
            for n in V.mode_range(v, wq):
                for pp, val in enumerate(exp_chain(
                        V, -1, V.act(v, n, wq), terms=j_hi - qq + 1)):
                    row = lhs[qq + pp]
                    row[-n - 1] = row.get(-n - 1, GradedVector()) \
                        + val.scale(sign)
        for j in range(j_hi + 1):
            rhs: dict = {}
            for n in V.mode_range(v, w, V.level + j):
                base = V.act(v, n, w, V.level + j)
                if base.is_zero():
                    continue
                co = binom(-n - 1, j)
                if co:
                    val = base.scale(co).clip(V.level)
                    if val:
                        rhs[-n - 1 - j] = rhs.get(-n - 1 - j,
                                                  GradedVector()) + val
            for e in sorted(set(lhs[j]) | set(rhs)):
                diff_labels(diffs, (lw_name, j, e),
                            lhs[j].get(e, GradedVector()).coeff,
                            rhs.get(e, GradedVector()).coeff)
    if not any_checked:
        return VerificationReport.skipped("conj-translate", params,
                                          "level too small")
    return VerificationReport.from_diffs("conj-translate", params, diffs)


def check_conjugation(V: HeisenbergVOA, v: GradedVector,
                      order: int) -> list[VerificationReport]:
    """All conjugation-formula checks for one homogeneous vector."""
    out = _sl2_flow_reports(V, v, order)
    out.append(_scale_conjugation_report(V, v))
    out.append(_shear_conjugation_report(V, v, order))
    out.append(_translate_conjugation_report(V, v, order))
    return out


# -- S3 symmetry -------------------------------------------------------------


def check_iterate_skew(V: HeisenbergVOA, u: GradedVector, v: GradedVector,
                       w: GradedVector, win: Window) -> VerificationReport:
    """The rewrite of an iterate through skew-symmetry,

        Y(Y(u,x0)v, x2) = Y(e^{x0 L(-1)} Y(v,-x0)u, x2)
                        = Y(Y(v,-x0)u, x2+x0),

    checked as a three-way equality of series in (x0, x2) applied to w.
    """
    wu, wv, ww = u.weight(), v.weight(), w.weight()
    W = wu + wv + ww
    params = _triple_params(u, v, w, f"win={win.hi('x0')}")
    diffs = []
    # x0 exponent a -> the x2 exponents c at which the final weight is seen
    rows = {}
    for a in range(win.lo("x0"), win.hi("x0") + 1):
        cs = [c for c in range(win.lo("x2"), win.hi("x2") + 1)
              if 0 <= W + a + c <= V.level]
        if cs:
            rows[a] = cs
    # true-loss scan over the inner families u_. v and v_. u
    for a in rows:
        iw = wu + wv + a
        if iw > V.level:
            if V.true_nonzero(u, -a - 1, v):
                return VerificationReport.skipped(
                    "iterate-skew-rewrite", params, f"inner weight {iw} at x0^{a}")
            for e in range(-(wu + wv), a + 1):
                if wu + wv + e > V.level and V.true_nonzero(v, -e - 1, u):
                    return VerificationReport.skipped(
                        "iterate-skew-rewrite", params,
                        f"skew-inner weight {wu+wv+e} at x0^{e}")
    # the x0^a coefficient of the skew side is skew[-a - 1], the x^a one of
    # e^{xL(-1)} Y(v, -x)u; the shift side reads B_e = (-1)^e v_{-e-1} u,
    # the skew-reversed iterate, from the images v_m u the skew side made
    images = {}
    skew = skew_coefficients(V, v, u, [-a - 1 for a in rows], images=images)
    # each mode runs over the algebra's rows, on the label pairs of (u, v)
    # and of (B_e, w) formed once, and of (inner, w) and (skew, w) per a
    row, level = V.row, V.level
    uv = label_pairs(u.coeff, v.coeff)
    b_pairs = {-m - 1: label_pairs(base.scale(1 if m % 2 else -1).coeff,
                                   w.coeff)
               for m, base in images.items() if base}
    for a, cs in rows.items():
        inner = label_pairs(apply_pairs(row, uv, -a - 1, level), w.coeff)
        skewed = label_pairs(skew[-a - 1].coeff, w.coeff)
        for c in cs:
            e1 = apply_pairs(row, inner, -c - 1, level)
            e2 = apply_pairs(row, skewed, -c - 1, level)
            e3: dict = {}
            for k in range(0, wu + wv + a + 1):
                be = b_pairs.get(a - k)
                if be is None:
                    continue
                co = binom(c + k, k)
                if co:
                    accumulate(e3, apply_pairs(row, be, -c - k - 1, level),
                               co)
            diff_labels(diffs, (a, c, "skew"), e1, e2)
            diff_labels(diffs, (a, c, "shift"), e1, e3)
    return VerificationReport.from_diffs("iterate-skew-rewrite", params, diffs)


def check_translate_skew(V: HeisenbergVOA, u: GradedVector, v: GradedVector,
                         w: GradedVector, win: Window) -> VerificationReport:
    """The rewrite obtained by multiplying the three-term identity by
    e^{-x2 L(-1)} and applying skew-symmetry throughout:

        x0^-1 d((x1-x2)/x0) Y(u, x1-x2) Y(w, -x2) v
      - x0^-1 d((x2-x1)/-x0) Y(Y(u, x1)w, -x2) v
      = x2^-1 d((x1-x0)/x2) Y(w, -x2) Y(u, x0) v

    It runs on the engine of ``three_term_check``.
    """
    a, b, c = u.weight(), v.weight(), w.weight()
    W = a + b + c
    rows = _expansion_rows(win, W + win.hi("x1") + 1,
                           W + max(win.hi("x0"), win.hi("x2")) + 1, 1)
    terms = (_Term(V, u, V, w, v, W - a, False, V.kron(u), "inner"),
             _Term(V, v, V, u, w, W - b, True, None, "iterate"),
             _Term(V, w, V, u, v, W - c, False, V.kron(w), "inner"))
    return _evaluate(_translate_skew_layout, W, win, V.level, rows, terms,
                     "translate-skew-rewrite",
                     _triple_params(u, v, w, f"win={win.hi('x0')}"))


S3_PERMS = {
    (0, 1, 2): (),
    (1, 0, 2): ("uv",),
    (0, 2, 1): ("vw",),
    (2, 1, 0): ("uv", "vw"),
    (1, 2, 0): ("uv", "vw"),
    (2, 0, 1): ("uv", "vw"),
}


def s3_transform_check(V: HeisenbergVOA, u: GradedVector, v: GradedVector,
                       w: GradedVector, perm: tuple[int, int, int],
                       win: Window) -> list[VerificationReport]:
    """Check the permuted three-term identity for perm(u, v, w) together
    with the rewrite steps for the generating transpositions involved."""
    if perm not in S3_PERMS:
        raise ValueError(f"not an S3 permutation: {perm}")
    triple = (u, v, w)
    pu, pv, pw = (triple[perm[0]], triple[perm[1]], triple[perm[2]])
    out = []
    steps = S3_PERMS[perm]
    if "uv" in steps:
        out.append(check_iterate_skew(V, u, v, w, win))
    if "vw" in steps:
        out.append(check_translate_skew(V, u, v, w, win))
    direct = check_jacobi(V, pu, pv, pw, win)
    direct.identity = f"jacobi-perm{''.join(str(i) for i in perm)}"
    out.append(direct)
    return out
