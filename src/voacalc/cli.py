"""Command-line driver: build algebras, run verification suites, load
fixtures, and emit deterministic reports.

Structured output is one whitespace-free record per check,

    suite identity params status diff-count

sorted by (suite, identity, params). Suites run one after another;
``--jobs N`` is accepted for every N >= 1 and changes nothing. Exit codes:
0 all pass, 1 at least one failure, 2 configuration or fixture error,
141 a reader that closed the output pipe early (no traceback).
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import axioms, contragredient as contra, fusion, moduli, series
from .exact import QQi
from .fock import GradedVector, build_heisenberg
from .reports import (ConfigError, FixtureError, RunReport, Status,
                      VerificationReport)
from .series import Window, random_laurent_polynomial


@dataclass
class SuiteConfig:
    level: int = 6
    window: int = 3
    s3_window: int = 2
    order: int = 3
    cutoffs: tuple[int, ...] = (4, 8, 12)
    seed: int = 94201
    count: int = 50
    jobs: int = 1
    fixtures: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.level < 0:
            raise ConfigError("level must be nonnegative")
        if self.window < 0 or self.s3_window < 0:
            raise ConfigError("window bounds must be nonnegative")
        if not self.cutoffs or min(self.cutoffs) < 0:
            raise ConfigError("cutoff schedule must be a nonempty list of "
                              "nonnegative integers")
        if list(self.cutoffs) != sorted(set(self.cutoffs)):
            raise ConfigError("cutoff schedule must be strictly increasing")
        if self.jobs < 1:
            raise ConfigError("jobs must be positive")
        if self.order < 0:
            raise ConfigError("order must be nonnegative")
        if self.count < 1:
            raise ConfigError("count must be positive")


# flow-sequence order of the moduli suite's elements
MODULI_ORDER = 8


def _tag(reports, suite):
    for r in reports:
        r.suite = suite
    return reports


# -- suites -------------------------------------------------------------------
#
# A suite takes the config and ``algebra``, which returns the algebra at a
# level: the run's own in ``run_suites``, or a fresh one from
# ``build_heisenberg`` when a suite is called by itself.


def delta_suite(cfg: SuiteConfig, algebra) -> list[VerificationReport]:
    rng = random.Random(cfg.seed)
    win1 = Window.of(x=(-cfg.window - 1, cfg.window + 1))
    out = []
    for i in range(25):
        f = random_laurent_polynomial(rng)
        rep = series.check_delta_identity("fundamental", f, win1)
        rep.identity = f"delta-fundamental#{i:02d}"
        out.append(rep)
    win3 = Window.symmetric(("x0", "x1", "x2"), cfg.window + 1)
    out.append(series.check_delta_identity("two-term", None, win3))
    out.append(series.check_delta_identity("three-term", None, win3))
    return _tag(out, "delta")


def _partition_count_oracle(n: int) -> int:
    """Partition counts by the pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def voa_suite(cfg: SuiteConfig, algebra) -> list[VerificationReport]:
    V = algebra(cfg.level)
    out = []
    dims = [V.dim(n) for n in range(cfg.level + 1)]
    want = [_partition_count_oracle(n) for n in range(cfg.level + 1)]
    out.append(VerificationReport.from_diffs(
        "weight-dimensions", f"level={cfg.level}",
        [] if dims == want else [(("dims",), dims, want)],
        note=",".join(map(str, dims))))

    diffs = []
    for lv in V.basis_upto():
        v = GradedVector.basis(lv)
        ys = V.vertex_series(v, V.vacuum,
                             Window.of(x=(-2 * cfg.level - 2, 2 * cfg.level + 2)))
        if any(e[0] < 0 for e in ys.coeff):
            diffs.append(((lv, "regular"), "negative powers", "none"))
        if ys.coefficient((0,)) != v:
            diffs.append(((lv, "constant"), "differs", "v"))
        if sum(lv) + 1 <= cfg.level:
            got = ys.coefficient((1,)) or GradedVector()
            if got != V.virasoro(-1, v):
                diffs.append(((lv, "first-order"), "differs", "L(-1)v"))
    out.append(VerificationReport.from_diffs(
        "creation-property", f"level={cfg.level}", diffs))

    out.extend(_skew_reports(V, cfg))
    out.extend(_commutator_reports(V, cfg))

    diffs = []
    c = V.central_charge
    ceil = cfg.level + 8
    labels = V.basis_upto(min(4, cfg.level))
    # the inner images L(k)v, k = m, n and m + n, computed once each
    inner = {(k, lab): V.virasoro(k, GradedVector.basis(lab), ceil)
             for k in range(-8, 9) for lab in labels}
    for m in range(-4, 5):
        for n in range(-4, 5):
            for lab in labels:
                lhs = V.virasoro(m, inner[n, lab], ceil) \
                    - V.virasoro(n, inner[m, lab], ceil)
                rhs = inner[m + n, lab].scale(Fraction(m - n))
                if m + n == 0:
                    rhs = rhs + GradedVector.basis(lab).scale(
                        c * Fraction(m ** 3 - m, 12))
                if lhs.clip(cfg.level) != rhs.clip(cfg.level):
                    diffs.append(((m, n, lab), "differs", ""))
    out.append(VerificationReport.from_diffs(
        "virasoro-bracket", "range=4;maxwt=4", diffs))
    return _tag(out, "voa-axioms")


def _skew_reports(V, cfg: SuiteConfig) -> list[VerificationReport]:
    out = []
    for lu in V.basis_upto():
        for lv in V.basis_upto():
            if lu > lv:
                continue
            out.append(axioms.check_skew_symmetry(
                V, GradedVector.basis(lu), GradedVector.basis(lv), cfg.level))
    return out


def _commutator_reports(V, cfg: SuiteConfig) -> list[VerificationReport]:
    win = Window.of(x=(-cfg.level - 1, cfg.level + 1))
    return axioms.check_commutators(
        V, [GradedVector.basis(lv) for lv in V.basis_upto()], win)


def conjugation_suite(cfg: SuiteConfig, algebra) -> list[VerificationReport]:
    V = algebra(cfg.level)
    out = []
    for lv in V.basis_upto(min(cfg.level, 4)):
        out.extend(axioms.check_conjugation(V, GradedVector.basis(lv),
                                            cfg.order))
    return _tag(out, "conjugation")


def _part(suite, reports):
    """One part of a suite, on the run's algebra, tagged as the suite."""
    return lambda cfg, algebra: _tag(reports(algebra(cfg.level), cfg), suite)


# `check` targets outside SUITES, so `voacalc all` does not run them
PARTS = {
    "skew": _part("voa-axioms", _skew_reports),
    "commutators": _part("voa-axioms", _commutator_reports),
    "conjugation": conjugation_suite,
}


def _jacobi_triples(V):
    for total in range(V.level + 1):
        for w1 in range(total + 1):
            for w2 in range(total - w1 + 1):
                w3 = total - w1 - w2
                for l1 in V.basis(w1):
                    for l2 in V.basis(w2):
                        for l3 in V.basis(w3):
                            yield l1, l2, l3


def jacobi_suite(cfg: SuiteConfig, algebra) -> list[VerificationReport]:
    V = algebra(cfg.level)
    win = Window.symmetric(("x0", "x1", "x2"), cfg.window)
    out = [axioms.check_jacobi(V, GradedVector.basis(l1),
                               GradedVector.basis(l2),
                               GradedVector.basis(l3), win)
           for l1, l2, l3 in _jacobi_triples(V)]
    return _tag(out, "jacobi")


def s3_suite(cfg: SuiteConfig, algebra) -> list[VerificationReport]:
    V = algebra(cfg.level)
    win = Window.symmetric(("x0", "x1", "x2"), cfg.s3_window)
    out = []
    kept = 0
    for l1, l2, l3 in _jacobi_triples(V):
        if kept >= cfg.count:
            break
        u = GradedVector.basis(l1)
        v = GradedVector.basis(l2)
        w = GradedVector.basis(l3)
        # each transposition's check: its rewrite step and permuted identity
        reps = [rep for perm in ((1, 0, 2), (0, 2, 1))
                for rep in axioms.s3_transform_check(V, u, v, w, perm, win)]
        if any(r.status is Status.SKIPPED for r in reps):
            continue
        kept += 1
        out.extend(reps)
    return _tag(out, "s3")


def contragredient_suite(cfg: SuiteConfig,
                         algebra) -> list[VerificationReport]:
    V = algebra(cfg.level)
    Mp = contra.ContragredientModule(V)
    out = []
    out.extend(contra.check_defining_relation(Mp))
    out.append(contra.check_dual_virasoro(Mp, cfg.level))
    out.append(contra.check_dual_derivative(Mp, cfg.level))
    out.append(contra.check_double_contragredient(Mp))
    out.extend(contra.check_invariant_form(Mp))
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    a = GradedVector.basis((1,))
    om = V.omega
    for v1, v2, wp in ((V.vacuum, V.vacuum, GradedVector.basis(())),
                       (a, a, GradedVector.basis((1,))),
                       (a, om, GradedVector.basis(())),
                       (om, om, GradedVector.basis(()))):
        out.append(contra.check_contragredient_jacobi(Mp, v1, v2, wp, win))
    out.extend(_direct_sum_reports(algebra(min(cfg.level, 4))))
    return _tag(out, "contragredient")


DIRECT_SUM_IDENTITIES = ("direct-sum-algebra-block",
                         "direct-sum-module-orthogonality",
                         "direct-sum-block-structure", "direct-sum-involution")


def _direct_sum_reports(V) -> list[VerificationReport]:
    level = V.level
    try:
        form = contra.build_invariant_form(contra.ContragredientModule(V))
        ds = contra.DirectSumMap(V, V, form, form)
    except (contra.NotSelfDual, contra.AsymmetricForm) as e:
        # no map to check: every direct-sum identity fails with the reason
        return [VerificationReport.from_diffs(
            identity, f"level={level}", [("build", str(e), "")])
            for identity in DIRECT_SUM_IDENTITIES]
    # W is V with V's form, so every block reproduces the algebra's
    # product u_n x: the module-module block in its V-part, the cross block
    # (by skew-symmetry) in its W-part. Each label lu is read with mu, the
    # same label in the module, as rows of the sum
    labels = [(lu, *contra.in_module(GradedVector.basis(lu)).coeff)
              for lu in V.basis_upto()]

    def sectors(lu, n, lx):
        return contra.summands(GradedVector(ds.row(lu, n, lx)))

    algebra, orthogonal, block = [], [], []
    for lu, mu in labels:
        for lx, mx in labels:
            # every side is zero unless the image weight lies in 0..level
            top = sum(lu) + sum(lx) - 1
            for n in range(top - level, min(level + 1, top + 1)):
                key = (lu, n, lx)
                want = V.row(lu, n, lx)
                got_v, got_w = sectors(lu, n, lx)
                if got_v.coeff != want or got_w:
                    algebra.append((key, "differs", ""))
                got_v, got_w = sectors(mu, n, mx)
                if got_w:
                    orthogonal.append((key, "nonzero", "zero"))
                if got_v.coeff != want:
                    orthogonal.append((key, "differs", ""))
                got_v, got_w = sectors(mu, n, lx)
                if got_v:
                    block.append((key, "nonzero", "zero"))
                if got_w.coeff != want:
                    block.append((key, "differs", ""))
    out = [VerificationReport.from_diffs(identity, f"level={level}", diffs)
           for identity, diffs in zip(DIRECT_SUM_IDENTITIES,
                                      (algebra, orthogonal, block))]

    diffs = []
    basis = [GradedVector.basis(l) for l in ds.basis_upto(2)]

    def sigma(t):
        v, w = contra.summands(t)
        return v - contra.in_module(w)

    for u in basis:
        for x in basis:
            for n in range(-4, 4):
                if sigma(ds.act(u, n, x)) != ds.act(sigma(u), n, sigma(x)):
                    diffs.append((("involution", n), "differs", ""))
    out.append(VerificationReport.from_diffs(
        "direct-sum-involution", f"level={level}", diffs))
    return out


def fusion_suite(cfg: SuiteConfig, algebra) -> list[VerificationReport]:
    out = []
    paths = list(cfg.fixtures)
    if not paths:
        base = resources.files("voacalc") / "fixtures"
        paths = [base / "one_label.fus", base / "ising.fus"]
    for path in paths:
        T = fusion.load_fusion_tensor(path)
        name = str(path).rsplit("/", 1)[-1]
        symmetry = fusion.check_s3_symmetry(T)
        for rep in (symmetry, fusion.check_positivity(T)):
            rep.params += f";file={name}"
            out.append(rep)
        try:
            A = fusion.build_verlinde(T, symmetry)
        except fusion.SymmetryViolation as e:
            out.append(VerificationReport(
                "verlinde-build", f"file={name}", Status.FAIL,
                [(("symmetry",), str(e), "")]))
            continue
        for rep in (fusion.check_commutativity(A), fusion.check_associativity(A),
                    fusion.check_unit(A)):
            rep.params += f";file={name}"
            out.append(rep)

    V = algebra(3)
    win = Window.symmetric(("x0", "x1", "x2"), 2)
    Mp = contra.ContragredientModule(V)
    intertwiners = {"self": fusion.intertwiner_from_algebra(V),
                    "dual-module": fusion.intertwiner_from_module(V, Mp)}
    for tag, reps in zip(intertwiners, fusion.check_intertwiner(
            list(intertwiners.values()), win)):
        for rep in reps:
            rep.params += f";type={tag}"
            out.append(rep)
    return _tag(out, "fusion")


def moduli_suite(cfg: SuiteConfig, algebra) -> list[VerificationReport]:
    Mo = MODULI_ORDER
    rng = random.Random(cfg.seed)
    out = []
    ident = moduli.identity_element(Mo)
    cap = moduli.cap_element(Mo)

    sample = [moduli.random_supported_element(rng, Mo) for _ in range(20)]
    out.append(moduli.check_operad_identity(sample))

    a, b = Fraction(7, 2), Fraction(-3, 5)
    got = moduli.sew(moduli.scaling_element(a, Mo), 1,
                     moduli.scaling_element(b, Mo)).element
    want = moduli.scaling_element(a * b, Mo)
    out.append(VerificationReport.from_diffs(
        "scaling-composition", f"a={a};b={b}",
        [] if got == want else [(("compose",), "differs", "")]))

    got = moduli.sew(moduli.two_puncture_element(1, Mo), 1, cap).element
    out.append(VerificationReport.from_diffs(
        "cap-two-puncture", "z=1",
        [] if got == ident else [(("cap",), "differs", "")]))

    pinned = [
        moduli.ModuliElement(
            2, Mo, (QQi(16),), (QQi(0),) * Mo,
            (moduli.LocalCoordinate(QQi(2), (QQi(0),) * Mo),
             moduli.LocalCoordinate(QQi(1), (QQi(0),) * Mo))),
        moduli.ModuliElement(
            2, Mo, (QQi(Fraction(1, 2)),), (QQi(0),) * Mo,
            (moduli.LocalCoordinate(QQi(1), (QQi(0),) * Mo),
             moduli.LocalCoordinate(QQi(Fraction(1, 3)), (QQi(0),) * Mo))),
        moduli.scaling_element(Fraction(5, 4), Mo),
        ident,
    ]
    out.extend(moduli.check_operad_axioms(pinned, seed=cfg.seed))

    V = algebra(cfg.level)
    aa = GradedVector.basis((1,))
    dual1 = GradedVector.basis((1,))
    P2 = moduli.two_puncture_element(2, Mo)
    P1 = moduli.two_puncture_element(1, Mo)
    res = moduli.nu_evaluate(V, moduli.scaling_element(Fraction(3, 2), Mo),
                             [aa], dual1, max(cfg.cutoffs))
    want_val = QQi(Fraction(2, 3))
    out.append(VerificationReport.from_diffs(
        "nu-grading", "a=3/2;wt=1",
        [] if res.value == want_val else [(("value",), res.value, want_val)],
        note=f"stable={res.stable}"))
    res = moduli.nu_evaluate(V, P2, [aa, aa], GradedVector.basis(()),
                             max(cfg.cutoffs))
    want_val = QQi(Fraction(1, 4))
    out.append(VerificationReport.from_diffs(
        "nu-two-point", "z=2",
        [] if res.value == want_val else [(("value",), res.value, want_val)]))

    out.append(moduli.check_sewing_axiom(V, P2, 1, ident, [aa, aa], dual1,
                                         cfg.cutoffs))
    rep = moduli.check_sewing_axiom(V, P2, 1, P1, [aa, aa, aa], dual1,
                                    cfg.cutoffs)
    rep.identity = "sewing-evaluation-nontrivial"
    out.append(rep)
    return _tag(out, "moduli")


SUITES = {
    "delta": delta_suite,
    "voa-axioms": voa_suite,
    "jacobi": jacobi_suite,
    "s3": s3_suite,
    "contragredient": contragredient_suite,
    "fusion": fusion_suite,
    "moduli": moduli_suite,
}


def run_suites(names, cfg: SuiteConfig) -> RunReport:
    """Run each named suite or `check` part in turn; records sorted.

    The run builds one algebra per level, when a suite first asks for it,
    and every suite and part of the run reads that one, so each structure
    constant is computed once per run. The algebras go with the run."""
    cfg.validate()
    t0 = time.time()
    # ``build_heisenberg`` is looked up at each new level, so that a
    # replacement installed on this module builds every algebra of the run
    algebra = functools.cache(lambda level: build_heisenberg(level))
    run = RunReport()
    for name in names:
        run.extend((SUITES[name] if name in SUITES else PARTS[name])(
            cfg, algebra))
    run.reports.sort(key=lambda r: (r.suite, r.identity, r.params))
    run.elapsed = time.time() - t0
    return run


def emit(run: RunReport, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "structured":
        for r in run.reports:
            stream.write(r.record() + "\n")
        return
    for r in run.reports:
        mark = {"pass": "[PASS]", "fail": "[FAIL]",
                "skipped-budget": "[SKIP]"}[r.status.value]
        line = f"{mark} {r.suite or '-'} {r.identity} {r.params}"
        if r.note:
            line += f"  ({r.note})"
        stream.write(line + "\n")
        for d in r.diffs[:5]:
            stream.write(f"        at {d[0]}: lhs={d[1]} rhs={d[2]}\n")
        if len(r.diffs) > 5:
            stream.write(f"        ... {len(r.diffs) - 5} more\n")
    stream.write(f"passed={run.passed} failed={run.failed} "
                 f"skipped={run.skipped} elapsed={run.elapsed:.1f}s\n")


def _common(sub):
    sub.add_argument("--level", type=int, default=6)
    sub.add_argument("--window", type=int, default=3)
    sub.add_argument("--order", type=int, default=3)
    sub.add_argument("--cutoffs", type=str, default="4,8,12")
    sub.add_argument("--count", type=int, default=50)
    sub.add_argument("--seed", type=int, default=94201)
    sub.add_argument("--format", choices=("text", "structured"),
                     default="text", dest="fmt")
    sub.add_argument("--jobs", type=int, default=1)


def _config_from(args, fixtures) -> SuiteConfig:
    try:
        cutoffs = tuple(int(t) for t in args.cutoffs.split(",") if t)
    except ValueError:
        raise ConfigError(f"bad cutoff schedule {args.cutoffs!r}")
    cfg = SuiteConfig(level=args.level, window=args.window,
                      s3_window=min(args.window, 2), order=args.order,
                      cutoffs=cutoffs, seed=args.seed, count=args.count,
                      jobs=args.jobs,
                      fixtures=tuple(str(f) for f in fixtures))
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voacalc",
        description="exact verification suites for a truncated free boson "
                    "vertex algebra")
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="run one verification suite")
    p_check.add_argument("suite", choices=("delta", "jacobi", "skew",
                                           "commutators", "conjugation", "s3"))
    _common(p_check)

    p_con = subs.add_parser("contragredient",
                            help="dual module construction and checks")
    p_con.add_argument("action", choices=("build", "verify"))
    _common(p_con)

    p_fus = subs.add_parser("fusion", help="fusion tensor fixtures")
    p_fus.add_argument("action", choices=("verify",))
    p_fus.add_argument("files", nargs="*")
    _common(p_fus)

    p_mod = subs.add_parser("moduli", help="sewing and evaluation checks")
    p_mod.add_argument("action", choices=("sew", "axioms", "nu"))
    p_mod.add_argument("files", nargs="*")
    p_mod.add_argument("--at", type=int, default=1)
    _common(p_mod)

    p_all = subs.add_parser("all", help="every suite")
    _common(p_all)

    # parse_intermixed_args does not support subparsers, so positionals
    # after an option come back as leftovers and are folded into files
    args, rest = parser.parse_known_args(argv)
    if rest:
        if not hasattr(args, "files") or any(t.startswith("-") for t in rest):
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        args.files = args.files + rest
    try:
        code = _dispatch(args)
        # flushed here, so that a closed pipe is met below, not at exit
        sys.stdout.flush()
        return code
    except (ConfigError, FixtureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early, as `| head` does: no traceback, and
        # what is still buffered goes to devnull when the interpreter
        # flushes stdout at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _dispatch(args) -> int:
    cfg = _config_from(args, args.files if args.command == "fusion" else ())
    # the three actions that run no suite; action names are unique
    action = getattr(args, "action", None)
    if action == "build":
        V = build_heisenberg(cfg.level)
        form = contra.build_invariant_form(contra.ContragredientModule(V))
        dets = form.block_determinants()
        for w in sorted(dets):
            print(f"weight {w}: dim {V.dim(w)} det {dets[w]}")
        print(f"symmetric={form.symmetric}")
        return 0
    if action == "sew":
        if len(args.files) != 2:
            raise ConfigError("moduli sew needs exactly two element files")
        f1, f2 = args.files
        Q1, Q2 = map(moduli.load_moduli_element, args.files)
        if Q1.order != Q2.order:
            raise ConfigError(f"{f1} has order {Q1.order} and {f2} order "
                              f"{Q2.order}; truncation orders must agree")
        if not 1 <= args.at <= Q1.arity:
            raise ConfigError(f"--at {args.at} is not a puncture of {f1}, "
                              f"which has arity {Q1.arity}")
        try:
            res = moduli.sew(Q1, args.at, Q2)
        except (moduli.UnsupportedSewing, moduli.SewingUndefined) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        sys.stdout.write(moduli.format_moduli_element(res.element))
        return 0
    if action == "nu":
        if len(args.files) != 1:
            raise ConfigError("moduli nu needs one element file")
        Q = moduli.load_moduli_element(args.files[0])
        V = build_heisenberg(cfg.level)
        vecs = [V.omega] * Q.arity
        vp = GradedVector.basis(())
        for N in cfg.cutoffs:
            try:
                res = moduli.nu_evaluate(V, Q, vecs, vp, N)
            except moduli.DomainViolation as e:
                print(f"error: {e}", file=sys.stderr)
                return 1
            print(f"cutoff {N}: value {res.value} stable {res.stable}")
        return 0

    if action == "axioms" and args.files:
        raise ConfigError("moduli axioms takes no files")
    # `check <suite>`, `all`, and `contragredient verify`, `fusion verify`,
    # `moduli axioms`, whose commands are named after their suites
    if args.command == "all":
        names = list(SUITES)
    else:
        names = [getattr(args, "suite", args.command)]
    run = run_suites(names, cfg)
    emit(run, args.fmt)
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
