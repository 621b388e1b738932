"""The benchmark's workloads: their generated inputs and how one pass runs.

``generate`` runs in the driver process and never imports voacalc: every
random choice is made here from the workload seed, and voacalc only sees
the files and values written into the spec. ``load`` and ``run`` execute
in a fresh worker process, after ``import voacalc``.

A pass (``run``) and its negative controls (``controls``) return verdict
streams of (record line, expectation) pairs.
An expectation is "holds" for a check of a true identity (pass or skip is
right, fail is wrong) or "fails" for a planted negative control (only
fail is right).
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("all-l6", "jacobi-l7", "fusion-su2", "moduli-sew")

HOLDS = "holds"
FAILS = "fails"

# Controls whose wrong verdict is a documented defect of the checker, not a
# broken benchmark: the sewing check accepts a sewn element with a moved
# puncture because shrinking differences pass (ROADMAP item 4).
KNOWN_DEFECTS = {
    "control sewing-moved-puncture arity=2+2;i=1;cutoffs=6,12,18",
}

SU2_LEVELS = (3, 5, 7, 9)
CONTROL_SU2_LEVEL = 3
MODULI_ORDER = 8
MODULI_ARITIES = (1, 1, 1, 1, 2, 2, 2, 3)
MODULI_POSITIONS = ("1", "-1", "2", "-2")
MODULI_SCALES = ("3", "-3", "4", "-4")
SEWING_CUTOFFS = (6, 12, 18)
JACOBI_LEVEL = 7
JACOBI_WINDOW = 3
JACOBI_CONTROL_MAX_WEIGHT = 5


def _partitions(weight: int, largest: int | None = None):
    largest = weight if largest is None else largest
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, largest), 0, -1):
        for rest in _partitions(weight - first, first):
            yield (first,) + rest


def su2_fusion_rules(k: int) -> dict[tuple[int, int, int], int]:
    """SU(2)_k fusion multiplicities from the truncated Clebsch-Gordan rule:
    N_ij^l = 1 when |i-j| <= l <= min(i+j, 2k-i-j) and i+j+l is even,
    for twice-spins 0..k. Every label is self-dual."""
    rules = {}
    for i in range(k + 1):
        for j in range(k + 1):
            for l in range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2):
                rules[(i, j, l)] = 1
    return rules


def _write_fus(path: Path, k: int, rules: dict, note: str) -> None:
    lines = [f"# {note}", "labels: " + " ".join(f"j{i}" for i in range(k + 1))]
    for (i, j, l), n in sorted(rules.items()):
        if n:
            lines.append(f"j{i} j{j} j{l} {n}")
    path.write_text("\n".join(lines) + "\n")


def _orbit(t):
    i, j, l = t
    return {(i, j, l), (i, l, j), (j, i, l), (j, l, i), (l, i, j), (l, j, i)}


def _associative(k: int, rules: dict) -> bool:
    """Independent oracle: N_i N_j = sum_l N_ij^l N_l as matrices."""
    L = range(k + 1)

    def mat(i):
        return [[rules.get((i, a, b), 0) for b in L] for a in L]

    def mul(x, y):
        return [[sum(x[a][c] * y[c][b] for c in L) for b in L] for a in L]

    for i in L:
        for j in L:
            want = [[sum(rules.get((i, j, l), 0) * mat(l)[a][b] for l in L)
                     for b in L] for a in L]
            if mul(mat(i), mat(j)) != want:
                return False
    return True


def _write_mod(path: Path, arity: int, z: list, scales: list) -> None:
    zero = " ".join(["0"] * MODULI_ORDER)
    lines = [f"arity {arity}", f"order {MODULI_ORDER}"]
    if z:
        lines.append("z: " + " ".join(str(p) for p in z))
    lines.append(f"coord 0: {zero}")
    for i, s in enumerate(scales, start=1):
        lines.append(f"coord {i}: {str(s)} ; {zero}")
    path.write_text("\n".join(lines) + "\n")


def generate(name: str, seed: int, outdir: Path) -> dict:
    """Write the inputs of one workload for one seed; return its spec."""
    rng = random.Random(f"{name}:{seed}")
    spec = {"workload": name, "seed": seed}
    if name == "all-l6":
        return spec
    if name == "jacobi-l7":
        # the control corrupts a constant used by a checked triple; a vacuum
        # in the first two slots would make every term independent of it
        cands = [(l1, l2, l3)
                 for total in range(JACOBI_CONTROL_MAX_WEIGHT + 1)
                 for w1 in range(1, total + 1)
                 for w2 in range(1, total - w1 + 1)
                 for l1 in _partitions(w1) for l2 in _partitions(w2)
                 for l3 in _partitions(total - w1 - w2)]
        rng.shuffle(cands)
        spec["control_triples"] = cands
        spec["control_key_pick"] = rng.randrange(1 << 30)
        return spec
    if name == "fusion-su2":
        files = []
        for k in SU2_LEVELS:
            path = outdir / f"su2_k{k}.fus"
            _write_fus(path, k, su2_fusion_rules(k),
                       f"SU(2)_{k}, truncated Clebsch-Gordan rule")
            files.append(str(path))
        k = CONTROL_SU2_LEVEL
        rules = su2_fusion_rules(k)
        orbits = sorted({min(_orbit(t)) for t in rules if 0 not in t})
        rng.shuffle(orbits)
        for rep in orbits:
            bad = dict(rules)
            for t in _orbit(rep):
                bad[t] = bad.get(t, 0) + 1
            if not _associative(k, bad):
                break
        else:
            raise RuntimeError("no orbit change breaks associativity")
        control = outdir / f"su2_k{k}_orbit.fus"
        _write_fus(control, k, bad, f"negative control: orbit of {rep} raised by 1")
        files.append(str(control))
        spec["fixtures"] = files
        spec["control_file"] = control.name
        return spec
    if name == "moduli-sew":
        # Seeds vary the geometry but hardly the amount of work: the arity
        # profile is fixed, and nearly every sewing the axioms attempt is
        # defined (under 1% raise), because punctures sit at modulus at
        # most 2 and at least 1 apart while every scale has modulus 3 or 4.
        arities = list(MODULI_ARITIES)
        rng.shuffle(arities)
        files = []
        for idx, arity in enumerate(arities):
            z = rng.sample(MODULI_POSITIONS, arity - 1)
            scales = [rng.choice(MODULI_SCALES) for _ in range(arity)]
            path = outdir / f"sample{idx}.mod"
            _write_mod(path, arity, z, scales)
            files.append(str(path))
        spec["sample"] = files
        spec["operad_seed"] = rng.randrange(1 << 30)
        return spec
    raise ValueError(f"unknown workload {name!r}")


# -- worker side: everything below runs after ``import voacalc`` ------------


def load(spec: dict):
    """Read the generated files, as a user's invocation would."""
    from voacalc import fusion, moduli
    if spec["workload"] == "fusion-su2":
        # parsed here to fail early on a bad file; the suite reads them
        # again itself, as ``voacalc fusion verify FILES`` does
        for path in spec["fixtures"]:
            fusion.load_fusion_tensor(path)
        return None
    if spec["workload"] == "moduli-sew":
        return {"sample": [moduli.load_moduli_element(p)
                           for p in spec["sample"]],
                "sewing": _sewing_args()}
    return None


def _stream(reports):
    return [(r.record(), HOLDS) for r in reports]


def _control(rep, identity):
    rep.suite = "control"
    rep.identity = identity
    return (rep.record(), FAILS)


def run(spec: dict, inputs) -> list[tuple[str, str]]:
    """One pass of the workload; returns its verdict stream."""
    from voacalc import cli, moduli

    name = spec["workload"]
    if name == "all-l6":
        cfg = cli.SuiteConfig(level=6, seed=spec["seed"], jobs=1)
        return _stream(cli.run_suites(list(cli.SUITES), cfg).reports)
    if name == "jacobi-l7":
        cfg = cli.SuiteConfig(level=JACOBI_LEVEL, window=JACOBI_WINDOW,
                              s3_window=min(JACOBI_WINDOW, 2),
                              seed=spec["seed"], jobs=1)
        return _stream(cli.run_suites(["jacobi", "s3"], cfg).reports)
    if name == "fusion-su2":
        # the control tensor is one more fixture of the suite run
        cfg = cli.SuiteConfig(fixtures=tuple(spec["fixtures"]), jobs=1)
        out = []
        control = f"file={spec['control_file']}"
        for r in cli.run_suites(["fusion"], cfg).reports:
            fails = r.identity == "verlinde-associativity" \
                and r.params.endswith(control)
            out.append((r.record(), FAILS if fails else HOLDS))
        return out
    if name == "moduli-sew":
        out = _stream(moduli.check_operad_axioms(inputs["sample"],
                                                 seed=spec["operad_seed"]))
        out.extend(_stream([moduli.check_sewing_axiom(*inputs["sewing"])]))
        return out
    raise ValueError(f"unknown workload {name!r}")


def controls(spec: dict, inputs) -> list[tuple[str, str]]:
    """The workload's planted negative controls, run after the timed pass:
    they test the checker, and a user's run does not include them."""
    from voacalc import axioms, moduli
    from voacalc.fock import GradedVector, build_heisenberg
    from voacalc.reports import Status
    from voacalc.series import Window

    name = spec["workload"]
    if name == "jacobi-l7":
        win = Window.symmetric(("x0", "x1", "x2"), JACOBI_WINDOW)
        for triple in spec["control_triples"]:
            # a fresh algebra, so that its memo holds only this check's keys
            V = build_heisenberg(JACOBI_LEVEL)
            vecs = [GradedVector.basis(tuple(l)) for l in triple]
            if axioms.check_jacobi(V, *vecs, win).status is Status.PASS:
                break
        else:
            raise RuntimeError("no control triple is in budget")
        keys = sorted(k for k in V.touched_mode_keys()
                      if sum(k[0]) + sum(k[2]) - k[1] - 1 <= JACOBI_LEVEL
                      and V.mode_basis(*k))
        key = keys[spec["control_key_pick"] % len(keys)]
        V.corrupt(*key, min(V.mode_basis(*key)), 1)
        return [_control(axioms.check_jacobi(V, *vecs, win),
                         "jacobi-corrupted-constant")]
    if name == "moduli-sew":
        return [_control(_with_moved_puncture(moduli, inputs["sewing"]),
                         "sewing-moved-puncture")]
    return []


def _sewing_args():
    """Arguments of the omega sewing check: the algebra, whose mode memo
    the control then reuses, the elements, inputs and cutoffs."""
    from voacalc import moduli
    from voacalc.fock import build_heisenberg

    V = build_heisenberg(6)
    om = V.omega
    P2 = moduli.two_puncture_element(2, MODULI_ORDER)
    P1 = moduli.two_puncture_element(1, MODULI_ORDER)
    return (V, P2, 1, P1, [om, om, om], om, SEWING_CUTOFFS)


def _with_moved_puncture(moduli, args):
    """The sewing check run against a wrong sewing: the sewn element's
    puncture at 3 is moved to 31/10. A sound check must fail."""
    import dataclasses
    from voacalc.exact import QQi

    real_sew = moduli.sew
    three, moved = QQi(3), QQi(Fraction(31, 10))

    def wrong_sew(Q1, i, Q2):
        res = real_sew(Q1, i, Q2)
        z = tuple(moved if p == three else p for p in res.element.z)
        if z == res.element.z:
            raise RuntimeError("control expects a sewn puncture at 3")
        return dataclasses.replace(
            res, element=dataclasses.replace(res.element, z=z))

    moduli.sew = wrong_sew
    try:
        return moduli.check_sewing_axiom(*args)
    finally:
        moduli.sew = real_sew
