"""voacalc benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a voacalc checkout; the program is imported from its
``src/`` directory, with no build step. The seed generates the workload's
inputs (see workloads.py); voacalc only sees the generated files and
values. Each pass runs in a fresh single-threaded worker process, as a
command-line invocation would.

With ``--trace 0`` the driver times set-up several times, then runs
untraced passes for ``--seconds`` (at least one pass; no pass is started
that would end past the budget) and reports the end-to-end metrics as
medians over passes. Times are in reference seconds: a pass's time is
rescaled by the machine speed seen while it ran (speed.py), a set-up
time by a reference launch (REFERENCE_LAUNCH_S).
The raw wall time and the speed factor are printed as well. With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one, and the raw wall time of the
untraced one as ``wall_raw_s``.

Every pass's verdict stream is checked: a check of a true identity must
not fail, and each planted negative control must fail; the only wrong
verdict tolerated is a control listed in ``workloads.KNOWN_DEFECTS``, and
it still counts against ``right_verdict_ratio``. Repeated passes, and
repeated runs of the same seed on the same sources, must give
the same stream digest (sha256 of the sorted record lines); digests are
kept in ``.bench_work/digests.json``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when the
outputs are not correct, and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 20
WORKER_TIMEOUT_S = 170

# Set-up is mostly process start-up and imports, work of the operating
# system and of the interpreter's loader that speed.py's kernel does not
# track: rescaled by the kernel, a set-up time still rose with the
# kernel's speed (log-log slope about 0.6). So each set-up probe is taken
# relative to a reference launch timed just before it, a fresh interpreter
# that imports the standard-library modules the worker needs, and reported
# as  time * REFERENCE_LAUNCH_S / (time of the reference launch).  Its
# slope against the kernel's speed was about -0.2.
REFERENCE_LAUNCH_S = 0.05
LAUNCH_IMPORTS = ("argparse, concurrent.futures, dataclasses, enum, "
                  "fractions, functools, gc, importlib.resources, itertools, "
                  "json, math, pathlib, random, signal, "
                  "statistics, typing")


class WorkerFailed(Exception):
    pass


def _worker(spec_path: Path, *extra: str) -> dict:
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(proc.stderr.strip()[-2000:]
                           or f"worker exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_raw_s"] = res["ready"] - t_spawn
    res["elapsed_s"] = time.monotonic() - t_spawn
    return res


def time_launch() -> float:
    """Wall time of one reference launch: start a fresh interpreter, import
    LAUNCH_IMPORTS and exit."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", f"import {LAUNCH_IMPORTS}"],
                   check=True)
    return time.monotonic() - t0


def digest(stream) -> str:
    lines = sorted(rec for rec, _ in stream)
    return hashlib.sha256("".join(l + "\n" for l in lines).encode()).hexdigest()


def wrong_verdicts(stream) -> tuple[list, list]:
    """Records with a wrong verdict, split into unexpected ones and the
    documented defects of KNOWN_DEFECTS."""
    unexpected, known = [], []
    for rec, expect in stream:
        fields = rec.split()
        failed = fields[3] == "fail"
        if failed == (expect == workloads.FAILS):
            continue
        if " ".join(fields[:3]) in workloads.KNOWN_DEFECTS:
            known.append(rec)
        else:
            unexpected.append(rec)
    return unexpected, known


def remember_digest(work: Path, workload: str, seed: int, digests: set):
    """Return the digest an earlier run of the same workload and seed, on
    the same voacalc and benchmark sources, recorded; record this run's
    when there is none."""
    h = hashlib.sha256()
    sources = [*(ROOT / "src" / "voacalc").rglob("*.py"), *HERE.glob("*.py")]
    for path in sorted(sources):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    key = f"{h.hexdigest()}:{workload}:{seed}"
    store = work / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return known[key]
    known[key] = min(digests)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1))
    tmp.replace(store)
    return None


def measure(spec_path: Path, seconds: float) -> tuple[list, list]:
    _worker(spec_path, "--setup-only")  # fills the bytecode cache; untimed
    time_launch()
    setups = []
    for _ in range(SETUP_PROBES):
        launch = time_launch()
        setups.append(_worker(spec_path, "--setup-only")["setup_raw_s"]
                      * REFERENCE_LAUNCH_S / launch)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(_worker(spec_path))
        longest = max(p["elapsed_s"] for p in passes)
        if time.monotonic() - start + longest > seconds:
            return setups, passes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "voacalc" / "__init__.py").is_file():
        print(f"error: no voacalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                dir=work))
    try:
        spec = workloads.generate(args.workload, args.seed, tmp)
        spec_path = tmp / "spec.json"
        spec_path.write_text(json.dumps(spec))
        if args.trace:
            trace_path = work / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_path.parent.mkdir(exist_ok=True)
            passes = [_worker(spec_path),
                      _worker(spec_path, "--trace", str(trace_path))]
        else:
            setups, passes = measure(spec_path, args.seconds)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    streams = [p["stream"] for p in passes]
    digests = {digest(s) for s in streams}
    earlier = remember_digest(work, args.workload, args.seed, digests)
    failed = sum(len(wrong_verdicts(s)[0]) for s in streams)
    correct = len(digests) == 1 and earlier in (None, *digests) and not failed
    # the streams agree when the digests do, so the first one speaks for all
    stream = streams[0]
    unexpected, known = wrong_verdicts(stream)
    skip_ratio = sum(rec.split()[3] == "skipped-budget"
                     for rec, _ in stream) / len(stream)
    wrong_ratio = (len(unexpected) + len(known)) / len(stream)

    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"records {len(stream)}")
    print(f"digest {' '.join(sorted(digests))}")
    print(f"skip_ratio {skip_ratio} ratio")
    print(f"wrong_verdict_ratio {wrong_ratio} ratio")
    for rec in known:
        print(f"known defect (wrong verdict): {rec}")
    for rec in unexpected:
        print(f"WRONG VERDICT: {rec}")
    if len(digests) != 1:
        print("DIGESTS DISAGREE between passes")
    if earlier not in (None, *digests):
        print(f"DIGEST DIFFERS from an earlier run of the same sources: "
              f"{earlier}")

    if args.trace:
        layers = dict(passes[1]["layers"])
        layers["trace.overhead_ratio"] = passes[1]["wall_s"] / passes[0]["wall_s"]
        # the untraced pass's raw time, which no rescaling has touched
        layers["wall_raw_s"] = passes[0]["wall_raw_s"]
        if layers["fock.float_coeffs"]:
            print(f"FLOAT COEFFICIENTS from apply_mode: "
                  f"{layers['fock.float_coeffs']}")
            correct = False
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(
                p["peak_rss_mib"] for p in passes), "unit": "MiB"},
            "checked_ratio": {"value": 1 - skip_ratio, "unit": "ratio"},
            "right_verdict_ratio": {"value": 1 - wrong_ratio, "unit": "ratio"},
        }
        print(f"wall_raw_s "
              f"{statistics.median(p['wall_raw_s'] for p in passes)} s")
        print(f"speed_factor "
              f"{statistics.median(p['speed_factor'] for p in passes)} ratio")
    for k, m in metrics.items():
        print(f"{k} {m['value']} {m['unit']}")

    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(s) for s in streams),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s") or ".suite_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
