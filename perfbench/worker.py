"""One pass of one workload in a fresh single-threaded process, as a
voacalc command-line invocation would run it.

    python3 perfbench/worker.py SPEC.json [--setup-only] [--trace TRACE.json]

Prints one JSON object: the monotonic time at which set-up (``import
voacalc`` and loading the generated inputs) finished, and unless
``--setup-only`` the pass's wall time (raw, and in reference seconds; see
speed.py), peak resident memory and verdict stream, which ends with the
untimed negative controls. With ``--trace`` the pass is traced, the
per-layer metrics are added and the kept spans are written to TRACE.json.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def peak_rss_mib() -> float:
    """Peak resident memory of this process, in MiB. Not getrusage's
    ru_maxrss: subprocess starts this process with vfork, and exec then
    folds the parent's peak into ru_maxrss, which for a small pass is
    run.py's memory and not the worker's."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args()

    import voacalc.cli  # noqa: F401  (imports every layer)
    import speed
    import workloads
    spec = json.loads(Path(args.spec).read_text())
    if args.trace:
        # before loading, so that algebras built as inputs are counted
        import tracing
        from voacalc import cli
        suites = list(cli.SUITES)
        tracer = tracing.Tracer()
        algebras = tracing.install(tracer)
    inputs = workloads.load(spec)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    if args.trace:
        tracer.clear()

    with speed.SpeedProbe() as probe:
        spent0, t0 = probe.spent, time.perf_counter()
        stream = workloads.run(spec, inputs)
        t1, spent1 = time.perf_counter(), probe.spent
    out["wall_raw_s"] = (t1 - t0) - (spent1 - spent0)
    out["speed_factor"] = speed.factor(probe.samples)
    out["wall_s"] = out["wall_raw_s"] * out["speed_factor"]
    out["peak_rss_mib"] = peak_rss_mib()
    if args.trace:
        out["layers"] = tracing.layer_metrics(tracer, algebras, suites,
                                              out["speed_factor"])
        Path(args.trace).write_text(json.dumps({
            "spans": [dict(zip(("id", "parent", "name", "start", "end"), s))
                      for s in tracer.spans],
            "totals": {k: dict(zip(("calls", "total_s", "self_s"), v))
                       for k, v in sorted(tracer.totals.items())},
            "counts": dict(sorted(tracer.counts.items())),
        }))
    out["stream"] = stream + workloads.controls(spec, inputs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
