"""Spans and counters for the traced pass, recorded from outside voacalc by
wrapping its public functions and methods.

A span has a name, a start, an end and a parent. Self time is a span's
duration minus the time its child spans cover. Suite, check and
layer-entry spans are kept one by one; hot calls are kept as per-name
totals (calls, total and self time), and the hottest leaves, such as
``mode_basis`` and ``binom``, only as call counts.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from fractions import Fraction

# check functions whose every call is kept as a span
CHECKS = {
    "series": ("check_delta_identity",),
    "axioms": ("check_jacobi", "check_skew_symmetry", "check_commutators",
               "check_conjugation", "check_iterate_skew",
               "check_translate_skew", "s3_transform_check"),
    "contragredient": ("check_defining_relation", "check_dual_virasoro",
                       "check_dual_derivative", "check_double_contragredient",
                       "check_invariant_form", "check_contragredient_jacobi"),
    "fusion": ("check_s3_symmetry", "check_positivity", "check_commutativity",
               "check_associativity", "check_unit", "check_intertwiner"),
    "moduli": ("check_operad_axioms", "check_sewing_axiom"),
}

QQI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _vec_key(v):
    return tuple(sorted(v.coeff.items()))


class Tracer:
    """Collects spans, per-name totals and counters for one pass."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent id, name, start, end)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.distinct = defaultdict(set)
        self._frames: list[list] = []      # [child time, kept span id]
        self._next_id = 0

    def clear(self) -> None:
        """Forget everything recorded so far; the wrappers stay in place."""
        self.spans.clear()
        self.totals.clear()
        self.counts.clear()
        self.distinct.clear()
        self._next_id = 0

    def _kept_parent(self):
        for frame in reversed(self._frames):
            if frame[1] is not None:
                return frame[1]
        return None

    def span(self, name: str, fn, keep: bool = False, on_call=None,
             on_result=None):
        """Wrap ``fn`` so each call is timed as a span called ``name``."""
        frames, totals = self._frames, self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            span_id = parent = None
            if keep:
                parent = self._kept_parent()
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            frames.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                frames.pop()
                dur = t1 - t0
                if frames:
                    frames[-1][0] += dur
                tot = totals[name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if keep:
                    self.spans.append((span_id, parent, name, t0, t1))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so calls are only counted."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def install(tracer: Tracer) -> list:
    """Wrap voacalc's layer entry points; returns the HeisenbergVOA
    instances created afterwards, for the ``mode_basis`` memo census."""
    from voacalc import (axioms, cli, contragredient, exact, fock, fusion,
                         moduli, series)

    counts, distinct = tracer.counts, tracer.distinct
    algebras: list = []

    for suite, fn in list(cli.SUITES.items()):
        cli.SUITES[suite] = tracer.span(f"cli.suite.{suite}", fn, keep=True)
    for mod in (series, axioms, contragredient, fusion, moduli):
        layer = mod.__name__.rsplit(".", 1)[1]
        for fname in CHECKS[layer]:
            setattr(mod, fname, tracer.span(f"{layer}.{fname}",
                                            getattr(mod, fname), keep=True))

    # fock
    H = fock.HeisenbergVOA
    real_init = H.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        algebras.append(self)
    H.__init__ = init

    def apply_call(V, u, n, v, ceiling=None):
        cap = V.level if ceiling is None else ceiling
        distinct["fock.apply_mode"].add((_vec_key(u), n, _vec_key(v), cap))

    def apply_result(res):
        vec, overflow = res
        counts["fock.clipped"] += overflow
        for c in vec.coeff.values():
            counts["fock.coeffs"] += 1
            if isinstance(c, Fraction):
                counts["fock.fraction_coeffs"] += 1
            elif isinstance(c, float):
                counts["fock.float_coeffs"] += 1
    H.apply_mode_flagged = tracer.span(
        "fock.apply_mode", H.apply_mode_flagged, on_call=apply_call,
        on_result=apply_result)
    H.mode_basis = tracer.counted("fock.mode_basis", H.mode_basis)

    # axioms
    axioms.three_term_check = tracer.span("axioms.three_term_check",
                                          axioms.three_term_check)
    axioms.VOAAction.true_nonzero = tracer.counted(
        "axioms.true_nonzero", axioms.VOAAction.true_nonzero)

    # contragredient
    C = contragredient.ContragredientModule

    def conj_call(M, v, n, m, ceiling=None):
        distinct["contragredient.conj_operator"].add(
            (M.level, _vec_key(v), n, _vec_key(m), ceiling))
    C.conj_operator = tracer.span("contragredient.conj_operator",
                                  C.conj_operator, on_call=conj_call)
    C.act = tracer.span("contragredient.act", C.act)
    contragredient.build_invariant_form = tracer.span(
        "contragredient.build_invariant_form",
        contragredient.build_invariant_form, keep=True)

    # fusion
    fusion.load_fusion_tensor = tracer.span(
        "fusion.load", fusion.load_fusion_tensor, keep=True)
    fusion.FusionTensor.n = tracer.counted("fusion.n", fusion.FusionTensor.n)

    # moduli
    real_sew = moduli.sew

    def sew(*args, **kwargs):
        try:
            return real_sew(*args, **kwargs)
        except Exception:
            counts["moduli.sew.raised"] += 1
            raise
    moduli.sew = tracer.span("moduli.sew", sew)
    moduli.nu_state = tracer.span("moduli.nu_state", moduli.nu_state)

    # exact and series: count every binding of binom, and QQi operators
    real_binom = exact.binom
    binom = tracer.counted("exact.binom", real_binom)
    for mod in (exact, series, axioms, contragredient):
        if getattr(mod, "binom", None) is real_binom:
            mod.binom = binom
    for op in QQI_OPS:
        setattr(exact.QQi, op, tracer.counted("exact.qqi.ops",
                                              getattr(exact.QQi, op)))
    series.delta_expansion = tracer.counted("series.delta_expansion",
                                            series.delta_expansion)
    return algebras


def layer_metrics(tracer: Tracer, algebras: list, suites,
                  time_scale: float) -> dict:
    """The per-layer numbers of one traced pass, by metric name. Times are
    multiplied by ``time_scale``, the pass's factor to reference seconds."""
    tot, counts, distinct = tracer.totals, tracer.counts, tracer.distinct

    def calls(name):
        return tot[name][0] if name in tot else 0

    def self_s(name):
        return tot[name][2] * time_scale if name in tot else 0.0

    def total_s(name):
        return tot[name][1] * time_scale if name in tot else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    computed = sum(len(V.touched_mode_keys()) for V in algebras)
    mb_calls = counts["fock.mode_basis"]
    m = {f"cli.suite_s.{s}": total_s(f"cli.suite.{s}") for s in suites}
    m.update({
        "contragredient.conj_operator.calls":
            calls("contragredient.conj_operator"),
        "contragredient.conj_operator.distinct":
            len(distinct["contragredient.conj_operator"]),
        "contragredient.conj_operator.self_s":
            self_s("contragredient.conj_operator"),
        "contragredient.act.calls": calls("contragredient.act"),
        "contragredient.act.self_s": self_s("contragredient.act"),
        "contragredient.build_invariant_form.calls":
            calls("contragredient.build_invariant_form"),
        "contragredient.build_invariant_form.s":
            total_s("contragredient.build_invariant_form"),
        "axioms.three_term_check.calls": calls("axioms.three_term_check"),
        "axioms.three_term_check.self_s": self_s("axioms.three_term_check"),
        "axioms.true_nonzero.calls": counts["axioms.true_nonzero"],
        "fock.apply_mode.calls": calls("fock.apply_mode"),
        "fock.apply_mode.distinct": len(distinct["fock.apply_mode"]),
        "fock.apply_mode.self_s": self_s("fock.apply_mode"),
        "fock.mode_basis.calls": mb_calls,
        "fock.mode_basis.computed": computed,
        "fock.mode_basis.hit_ratio": ratio(mb_calls - computed, mb_calls),
        "fock.clipped": counts["fock.clipped"],
        "fock.fraction_coeff_ratio": ratio(counts["fock.fraction_coeffs"],
                                           counts["fock.coeffs"]),
        "fock.float_coeffs": counts["fock.float_coeffs"],
        "fusion.load.s": total_s("fusion.load"),
        "fusion.n.calls": counts["fusion.n"],
        "fusion.check_associativity.s": total_s("fusion.check_associativity"),
        "moduli.sew.calls": calls("moduli.sew"),
        "moduli.sew.self_s": self_s("moduli.sew"),
        "moduli.sew.unsupported_ratio": ratio(counts["moduli.sew.raised"],
                                              calls("moduli.sew")),
        "moduli.nu_state.calls": calls("moduli.nu_state"),
        "moduli.nu_state.self_s": self_s("moduli.nu_state"),
        "exact.binom.calls": counts["exact.binom"],
        "exact.qqi.ops": counts["exact.qqi.ops"],
        "series.delta_expansion.calls": counts["series.delta_expansion"],
    })
    return m
