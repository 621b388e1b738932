import gc
import hashlib
import io
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from voacalc import cli
from voacalc.reports import RunReport, Status, VerificationReport


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_suite_exit_zero(capsys):
    code, out, _ = run_cli(["check", "delta", "--window", "4",
                            "--format", "structured"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 27
    for line in lines:
        fields = line.split(" ")
        assert len(fields) == 5
        assert fields[0] == "delta"
        assert fields[3] in ("pass", "fail", "skipped-budget")
        assert fields[4].isdigit()


def test_structured_records_are_sorted(capsys):
    code, out, _ = run_cli(["check", "delta", "--format", "structured"],
                           capsys)
    lines = out.strip().splitlines()
    keys = [tuple(l.split(" ")[:3]) for l in lines]
    assert keys == sorted(keys)


def test_text_format_summary(capsys):
    code, out, _ = run_cli(["check", "delta"], capsys)
    assert code == 0
    assert re.search(r"passed=\d+ failed=0 skipped=\d+", out)


def test_bad_config_exits_two(capsys):
    code, _, err = run_cli(["moduli", "nu", "x", "--cutoffs", "8,4"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "conjugation", "--order", "-1"], "order must be nonnegative"),
    (["check", "s3", "--count", "-3"], "count must be positive"),
    (["check", "s3", "--count", "0"], "count must be positive"),
    (["check", "jacobi", "--level", "-1"], "level must be nonnegative"),
    (["check", "delta", "--window", "-1"],
     "window bounds must be nonnegative"),
    (["all", "--level", "1", "--jobs", "0"], "jobs must be positive"),
    (["moduli", "axioms", "--cutoffs", "4,x"], "bad cutoff schedule '4,x'"),
    (["moduli", "sew"], "moduli sew needs exactly two element files"),
    (["moduli", "nu"], "moduli nu needs one element file"),
])
def test_bad_order_or_count_exits_two(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv", [
    ["moduli", "axioms", "--cutoffs", ","],
    ["all", "--level", "1", "--cutoffs", ","],
    ["moduli", "nu", "p2.mod", "--cutoffs", ","],
    ["moduli", "nu", "p2.mod", "--cutoffs=-3,2"],
], ids=["axioms-empty", "all-empty", "nu-empty", "nu-negative"])
def test_bad_cutoffs_exit_two(argv, tmp_path, capsys):
    # with no schedule ``moduli nu`` printed nothing and exited 0, and a
    # negative cutoff printed a value
    from voacalc.moduli import format_moduli_element, two_puncture_element
    p2 = tmp_path / "p2.mod"
    p2.write_text(format_moduli_element(two_puncture_element(2, 8)))
    argv = [str(p2) if a == "p2.mod" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error: cutoff schedule must be a nonempty list of nonnegative " \
        "integers" in err


@pytest.mark.parametrize("orders, at, message", [
    ((8, 8), 0, "--at 0 is not a puncture of {a}, which has arity 2"),
    ((8, 8), 3, "--at 3 is not a puncture of {a}, which has arity 2"),
    ((8, 4), 1, "{a} has order 8 and {b} order 4; truncation orders "
                "must agree"),
], ids=["at-zero", "at-past-arity", "orders-differ"])
def test_bad_sewing_input_exits_two(orders, at, message, tmp_path, capsys):
    from voacalc.moduli import format_moduli_element, two_puncture_element
    files = []
    for name, order in zip(("a.mod", "b.mod"), orders):
        path = tmp_path / name
        path.write_text(format_moduli_element(two_puncture_element(2, order)))
        files.append(str(path))
    code, out, err = run_cli(["moduli", "sew", *files, "--at", str(at)],
                             capsys)
    assert code == 2
    assert out == ""
    assert message.format(a=files[0], b=files[1]) in err


@pytest.mark.parametrize("command, message", [
    (["sew", "{a}", "{b}", "--at", "1"],
     "sewn puncture coordinate is not linear"),
    (["nu", "{a}", "--cutoffs", "4"],
     "evaluation needs standard (linear, zero-flow) coordinates"),
], ids=["sew-non-linear", "nu-nonzero-flow"])
def test_unsupported_coordinates_exit_one(command, message, tmp_path,
                                          capsys):
    # puncture 1 of a.mod carries flow data, so its coordinate is not
    # linear: sewing there and evaluating the element both refuse
    a, b = tmp_path / "a.mod", tmp_path / "b.mod"
    a.write_text("arity 2\norder 4\nz: 3\ncoord 0: 0 0 0 0\n"
                 "coord 1: 1 ; 1 0 0 0\ncoord 2: 2 ; 0 0 0 0\n")
    b.write_text("arity 2\norder 4\nz: 5\ncoord 0: 0 0 0 0\n"
                 "coord 1: 1 ; 0 0 0 0\ncoord 2: 1 ; 0 0 0 0\n")
    argv = ["moduli"] + [t.format(a=a, b=b) for t in command]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize("command", [["fusion", "verify"], ["moduli", "nu"]])
def test_non_utf8_fixture_exits_two(command, tmp_path, capsys):
    bad = tmp_path / "bad.fix"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli([*command, str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {bad}: not UTF-8 text" in err


@pytest.mark.parametrize("level", [0, 1])
def test_low_levels_give_records(level, capsys):
    # omega has weight 2, so below level 2 its norm is a skip, not a
    # KeyError from the form's index
    for command in (["all"], ["contragredient", "verify"]):
        code, out, _ = run_cli(command + ["--level", str(level),
                                          "--format", "structured"], capsys)
        assert code == 0
        records = [line.split(" ") for line in out.splitlines()]
        assert records
        assert ["contragredient", "form-conformal-norm", f"level={level}",
                "skipped-budget", "0"] in records
    _, out, _ = run_cli(["contragredient", "verify", "--level", str(level)],
                        capsys)
    assert f"(omega has weight 2, above level {level})" in out


def test_options_before_files(tmp_path, capsys):
    from voacalc.moduli import format_moduli_element, two_puncture_element
    f1 = tmp_path / "p2.mod"
    f1.write_text(format_moduli_element(two_puncture_element(2, 8)))
    code, out, _ = run_cli(["moduli", "nu", "--level", "4",
                            "--cutoffs", "2,4", str(f1)], capsys)
    assert code == 0
    assert out.count("cutoff") == 2


@pytest.mark.parametrize("argv", [
    ["moduli", "nu", "--cutoffs", "2,4", "p2.mod", "--bogus"],
    ["check", "delta", "extra"],
])
def test_leftover_arguments_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert argv[-1] in capsys.readouterr().err


def test_moduli_axioms_refuses_files(capsys):
    # the suite reads no file; a file named to it is an error, not ignored
    code, out, err = run_cli(["moduli", "axioms", "/nonexistent.mod"], capsys)
    assert code == 2 and out == ""
    assert "moduli axioms" in err


def test_bad_fixture_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.fus"
    bad.write_text("labels: V\nV V 1\n")
    code, _, err = run_cli(["fusion", "verify", str(bad)], capsys)
    assert code == 2
    assert "bad.fus" in err


def test_repeated_label_exits_two(tmp_path, capsys):
    bad = tmp_path / "twice.fus"
    bad.write_text("labels: V a V\nV V V 1\nV a a 1\na V a 1\n")
    code, out, err = run_cli(["fusion", "verify", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {bad}:1: label 'V' listed twice" in err


@pytest.mark.parametrize("bad_line, message", [
    ("z: 1/0", "zero denominator"),
    ("coord 1: 0 ; 0 0", "scale must be nonzero"),
    ("coord 1: 1 ; 0 0 0 0 5", "more than order 2"),
    ("z: 0", "positions must be nonzero"),
    ("z: 1 2", "must have length arity-1"),
], ids=["zero-denominator", "zero-scale", "too-many-flow-coefficients",
        "zero-position", "too-many-positions"])
def test_bad_moduli_fixture_exits_two_with_line(bad_line, message, tmp_path,
                                                capsys):
    lines = ["arity 2", "order 2", "z: 1", "coord 0: 0 0",
             "coord 1: 1 ; 0 0", "coord 2: 1 ; 0 0"]
    where = 3 if bad_line.startswith("z:") else 5
    lines[where - 1] = bad_line
    bad = tmp_path / "bad.mod"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["moduli", "nu", str(bad), "--level", "2",
                              "--cutoffs", "2,4"], capsys)
    assert code == 2 and out == ""
    assert f"bad.mod:{where}:" in err and message in err


@pytest.mark.parametrize("lines, where, message", [
    (["arity 3", "order 2", "z: 1 1", "coord 0: 0 0", "coord 1: 1 ; 0 0",
      "coord 2: 1 ; 0 0", "coord 3: 1 ; 0 0"], 3, "must be distinct"),
    (["order 2", "arity 2", "coord 0: 0 0", "coord 1: 1 ; 0 0",
      "coord 2: 1 ; 0 0"], 2, "must have length arity-1"),
    (["arity -1", "order 2", "z: 1", "coord 0: 0 0"], 1,
     "arity must be nonnegative"),
], ids=["repeated-position", "no-position-line", "negative-arity"])
def test_bad_arity_or_positions_name_their_line(lines, where, message,
                                                tmp_path, capsys):
    # the position list is checked after the per-line loop; without a z:
    # line the arity line is named
    bad = tmp_path / "bad.mod"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["moduli", "nu", str(bad), "--level", "2",
                              "--cutoffs", "2,4"], capsys)
    assert code == 2 and out == ""
    assert f"bad.mod:{where}:" in err and message in err


def test_import_leaves_out_the_executor():
    # concurrent.futures pulls in logging: about 0.7 MiB on every run
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(cli.__file__).resolve().parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); import voacalc.cli; "
             "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader is gone: every write raises BrokenPipeError.
    Its file descriptor is a scratch file's, which the handler redirects."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_output_stream_exits_141_quietly(tmp_path, capsys,
                                                monkeypatch):
    with open(tmp_path / "sink", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        code = cli.main(["check", "delta"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_reader_closing_the_pipe_gets_no_traceback():
    # as `voacalc check jacobi --level 8 | head -2` does, but with the
    # reader gone before the first write; the output is smaller than the
    # buffer, so without the flush in main the error would come at exit
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "voacalc", "check",
                             "delta"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_failing_fixture_exits_one(tmp_path, capsys):
    from importlib import resources
    src = (resources.files("voacalc") / "fixtures" / "bad_symmetry.fus")
    code, out, _ = run_cli(["fusion", "verify", str(src),
                            "--format", "structured"], capsys)
    assert code == 1
    assert any(" fail " in line for line in out.splitlines())


def test_verlinde_build_counts_the_symmetry_report():
    from importlib import resources
    src = resources.files("voacalc") / "fixtures" / "bad_symmetry.fus"
    reps = {r.identity: r
            for r in cli.fusion_suite(cli.SuiteConfig(fixtures=(str(src),)),
                                      cli.build_heisenberg)}
    n = len(reps["fusion-s3-symmetry"].diffs)
    assert n and reps["verlinde-build"].failed
    assert reps["verlinde-build"].diffs == [
        (("symmetry",), f"{n} symmetry violations", "")]


def test_moduli_sew_roundtrip(tmp_path, capsys):
    from voacalc.moduli import (format_moduli_element, parse_moduli_element,
                                scaling_element, two_puncture_element)
    f1 = tmp_path / "p2.mod"
    f1.write_text(format_moduli_element(two_puncture_element(2, 8)))
    f2 = tmp_path / "p1.mod"
    f2.write_text(format_moduli_element(two_puncture_element(1, 8)))
    code, out, _ = run_cli(["moduli", "sew", str(f1), str(f2), "--at", "1"],
                           capsys)
    assert code == 0
    got = parse_moduli_element(out)
    assert got.arity == 3 and [str(z) for z in got.z] == ["3", "2"]


def test_moduli_nu_prints_schedule(tmp_path, capsys):
    from voacalc.moduli import format_moduli_element, two_puncture_element
    f1 = tmp_path / "p2.mod"
    f1.write_text(format_moduli_element(two_puncture_element(2, 8)))
    code, out, _ = run_cli(["moduli", "nu", str(f1), "--level", "4",
                            "--cutoffs", "2,4"], capsys)
    assert code == 0
    assert out.count("cutoff") == 2


def test_moduli_nu_is_stable_only_over_three_truncations(tmp_path, capsys):
    # below cutoff 2 there are not three distinct truncations to compare
    from voacalc.moduli import format_moduli_element, two_puncture_element
    f1 = tmp_path / "p2.mod"
    f1.write_text(format_moduli_element(two_puncture_element(2, 8)))
    code, out, _ = run_cli(["moduli", "nu", str(f1), "--cutoffs",
                            "0,1,2,3,4,8", "--level", "8"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "cutoff 0: value 0 stable False", "cutoff 1: value 0 stable False",
        "cutoff 2: value 1/32 stable False",
        "cutoff 3: value 1/32 stable False",
        "cutoff 4: value 1/32 stable True", "cutoff 8: value 1/32 stable True"]


@pytest.mark.parametrize("cutoffs, digest", [
    ([], "027657381637e0754b0f2f1698bd033bbb86a2da2e0a4969f5b88fe204b1c623"),
    (["--cutoffs", "6,12,18"],
     "81c54da3387055dcf439b67b8a8b362a8775e1515b675424a0387f99f1dd0090")])
def test_moduli_records_with_notes_are_pinned(cutoffs, digest, capsys):
    # the operad counts (low, nested, high, skipped) and the shrinking
    # sewing magnitudes live only in the text notes. Pinned without the
    # elapsed-time summary; CI pins the same two outputs
    code, out, _ = run_cli(["moduli", "axioms"] + cutoffs, capsys)
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("passed=")
    assert hashlib.sha256("".join(lines[:-1]).encode()).hexdigest() == digest


def test_contragredient_build_prints_blocks(capsys):
    code, out, _ = run_cli(["contragredient", "build", "--level", "3"],
                           capsys)
    assert code == 0
    assert "weight 3" in out and "symmetric=True" in out


def test_exit_code_contract_on_failure():
    run = RunReport([VerificationReport("x", "p", Status.FAIL, [(1, 2, 3)])])
    assert run.exit_code == 1
    run = RunReport([VerificationReport("x", "p", Status.SKIPPED)])
    assert run.exit_code == 0


def test_jobs_do_not_change_structured_output(capsys):
    argv = ["check", "delta", "--format", "structured"]
    _, out1, _ = run_cli(argv + ["--jobs", "1"], capsys)
    _, out8, _ = run_cli(argv + ["--jobs", "8"], capsys)
    assert out1 == out8


@pytest.mark.parametrize("target, identities, count", [
    ("skew", {"skew-symmetry"}, 465),
    ("commutators", {"bracket-L(-1)", "bracket-L(0)", "bracket-L(1)"}, 90),
])
def test_check_part_prints_only_its_records(target, identities, count,
                                            capsys):
    code, out, _ = run_cli(["check", target, "--format", "structured"],
                           capsys)
    assert code == 0
    records = [line.split(" ") for line in out.strip().splitlines()]
    assert len(records) == count
    assert {r[0] for r in records} == {"voa-axioms"}
    assert {r[1] for r in records} == identities


def test_all_reports_a_defective_algebra(monkeypatch, capsys):
    # a(1) a(-1)|0> = 2|0> breaks the invariant form, which the direct-sum
    # records need; they fail with the reason instead of a traceback
    real = cli.build_heisenberg

    def corrupted(level):
        V = real(level)
        V.corrupt((1,), 1, (1,), (), 1)
        return V

    monkeypatch.setattr(cli, "build_heisenberg", corrupted)
    code, out, _ = run_cli(["all", "--level", "3", "--format", "structured"],
                           capsys)
    assert code == 1
    records = [line.split(" ") for line in out.splitlines()]
    direct = [r for r in records if r[1] in cli.DIRECT_SUM_IDENTITIES]
    assert [r[1] for r in direct] == sorted(cli.DIRECT_SUM_IDENTITIES)
    assert all(r[3] == "fail" for r in direct)
    assert ["contragredient", "invariant-form", "norm=1", "fail", "1"] \
        in records


def test_direct_sum_cross_blocks_reproduce_the_product():
    # negative control: a(0) a(-2)|0> corrupted to read a(-1)|0> survives
    # the invariant form, but the blocks recovered through the forms and
    # the skew formula no longer reproduce the corrupted product
    real = cli.build_heisenberg

    def corrupted(level):
        V = real(level)
        V.corrupt((1,), 0, (2,), (1,), 1)
        return V

    assert all(r.passed for r in cli._direct_sum_reports(real(4)))
    reps = {r.identity: r for r in cli._direct_sum_reports(corrupted(4))}
    assert reps["direct-sum-module-orthogonality"].failed
    assert reps["direct-sum-block-structure"].failed


def _record_builds(monkeypatch, corruption=None):
    """Patch ``cli.build_heisenberg`` to list every algebra it builds, each
    with ``corruption`` applied if given; returns the list."""
    built = []
    real = cli.build_heisenberg

    def build(level):
        V = real(level)
        if corruption:
            V.corrupt(*corruption)
        built.append(V)
        return V

    monkeypatch.setattr(cli, "build_heisenberg", build)
    return built


def test_a_run_builds_one_algebra_per_level(monkeypatch):
    # every suite and the direct sum read level 4, the fusion intertwiners 3
    built = _record_builds(monkeypatch)
    run = cli.run_suites(list(cli.SUITES), cli.SuiteConfig(level=4))
    assert not run.failed
    assert sorted(V.level for V in built) == [3, 4]


def test_runs_do_not_share_algebras(monkeypatch):
    # the first run's algebra carries the conj-scale corruption of
    # test_conj_scale_fails_on_a_mixed_weight_image; the next run builds
    # its own, clean one
    cfg = cli.SuiteConfig(level=4)
    first = _record_builds(monkeypatch, ((1, 1), 1, (2,), (1,), -2))
    assert cli.run_suites(["conjugation"], cfg).failed
    monkeypatch.undo()
    second = _record_builds(monkeypatch)
    assert not cli.run_suites(["conjugation"], cfg).failed
    assert len(first) == len(second) == 1 and first[0] is not second[0]


def test_no_algebra_outlives_its_run(monkeypatch):
    # negative control for an algebra kept across runs, at module level
    refs = []
    real = cli.build_heisenberg

    def build(level):
        V = real(level)
        refs.append(weakref.ref(V))
        return V

    monkeypatch.setattr(cli, "build_heisenberg", build)
    run = cli.run_suites(list(cli.SUITES), cli.SuiteConfig(level=4))
    assert run.reports and len(refs) == 2
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_conjugation_records_are_pinned(capsys):
    # the conjugation checks are outside ``voacalc all``, whose records are
    # pinned in test_criterion_9_determinism
    code, out, _ = run_cli(["check", "conjugation", "--format", "structured"],
                           capsys)
    assert code == 0
    assert len(out.splitlines()) == 72
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3379494096395148b595af69c4e61b69325ec5838c958aa0b8b624ce88be33a7"


def test_contragredient_level_7_records_are_pinned(capsys):
    # ``voacalc all`` runs at level 6; the dual-action blocks grow with the
    # level, so level 7 is pinned too (CI pins level 8)
    code, out, _ = run_cli(["contragredient", "verify", "--level", "7",
                            "--format", "structured"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0e3af7926f90de90ee51e3b446de70da52fb50ce6b998ae6d789066ab4378266"


def test_jacobi_skip_notes_are_pinned(capsys):
    # the structured records carry no notes; the text output names each
    # skip's inner weight and window position, e.g. "(iterate-inner
    # weight 8 at (1, -3, -3))". Pinned without the elapsed-time summary.
    code, out, _ = run_cli(["check", "jacobi", "--level", "7",
                            "--window", "3"], capsys)
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert len(lines) == 845
    assert lines[-1].startswith("passed=")
    assert "[SKIP] jacobi jacobi u=[1,1,1,1,1,1,1];v=[];w=[];win=3  " \
        "(iterate-inner weight 8 at (1, -3, -3))\n" in lines
    assert hashlib.sha256("".join(lines[:-1]).encode()).hexdigest() == \
        "86d10f3b45298a13f58073a442239043eced7f0afb40cb9336eab14bcce40942"


def test_conj_scale_fails_on_a_mixed_weight_image(monkeypatch, capsys):
    # (a(-1)^2|0>)_1 a(-2)|0> gains a weight-1 part: a grading defect, which
    # conj-scale reports as a fail instead of raising
    real = cli.build_heisenberg

    def corrupted(level):
        V = real(level)
        V.corrupt((1, 1), 1, (2,), (1,), -2)
        return V

    monkeypatch.setattr(cli, "build_heisenberg", corrupted)
    code, out, _ = run_cli(["check", "conjugation", "--level", "4",
                            "--format", "structured"], capsys)
    assert code == 1
    assert "conjugation conj-scale v=[1,1] fail 1" in out.splitlines()


# one structure constant each, moved by delta: (lu, n, lv, label, delta);
# three keep the invariant form, so the direct-sum records run on them too
PINNED_CORRUPTIONS = (
    ((1,), 0, (2,), (1,), 1),
    ((1,), 1, (1,), (), 1),
    ((1, 1), 1, (2,), (1,), -2),
    ((1, 1), 0, (1,), (2,), 1),
    ((1, 1), 1, (1, 1), (1, 1), 1),
    ((1, 1), 2, (2,), (1,), 1),
    ((2,), -1, (), (2,), 1),
    ((), -1, (1,), (1,), 1),
    ((1,), -1, (1,), (1, 1), 1),
    ((1,), -2, (1,), (2, 1), 1),
    ((2,), 0, (1, 1), (2, 1), 1),
    ((2,), 1, (3,), (2, 1), -1),
    ((1, 1), -1, (), (1, 1), 1),
    ((1,), 2, (2, 1), (1,), 1),
    ((3,), 2, (1,), (1,), 1),
)


def test_creation_property_fails_on_a_singular_vertex_operator():
    # with a(0)|0> = |0> corrupted in, Y(a(-1)|0>, x)|0> gains an x^-1
    # term, and the regularity half of the record reports it
    V = cli.build_heisenberg(4)
    V.corrupt((1,), 0, (), (), 1)
    reps = {r.identity: r
            for r in cli.voa_suite(cli.SuiteConfig(level=4), lambda _: V)}
    assert reps["creation-property"].diffs == \
        [(((1,), "regular"), "negative powers", "none")]


def test_records_under_corruptions_are_pinned(monkeypatch):
    # every record of a level-4 `all` run, with its diffs (their locations,
    # values and types, through repr), under each corruption in turn: what
    # the failing checks report must not move when their evaluation does
    digest, failed = hashlib.sha256(), 0
    for corruption in PINNED_CORRUPTIONS:
        _record_builds(monkeypatch, corruption)
        run = cli.run_suites(list(cli.SUITES), cli.SuiteConfig(level=4))
        monkeypatch.undo()
        failed += run.failed
        for r in run.reports:
            digest.update((r.record() + repr(r.diffs) + "\n").encode())
    assert failed == 423
    assert digest.hexdigest() == \
        "dcadd801bf240412ac59cfae682ad35b5a69e270de038bb16530f0c3ea527bc9"
