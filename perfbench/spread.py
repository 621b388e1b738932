"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Each run is ``run.py --trace 0`` with BENCHMARK.json's ``run_seconds``.
For every workload and end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, and checks it
against a third of the metric's bound in BENCHMARK.json. With ``--out``
the summary, with every run's value, is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {}
    ok = True
    for name in names:
        values: dict[str, list] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        summary[name] = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[metric]
            steady = spread < bound / 3
            ok &= steady
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "values": vals}
            print(f"{name:11} {metric:20} median {med:<12.6g} "
                  f"spread {spread:.4f} bound {bound}"
                  + ("" if steady else "  NOT STEADY"), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
