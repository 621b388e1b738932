#!/usr/bin/env python3
"""Census of the three-term identity checks by total weight: how many
basis triples stay inside the weight budget at a given level and window,
and how long the exact verification takes."""

import argparse
import time

from voacalc import axioms
from voacalc.fock import GradedVector, build_heisenberg
from voacalc.reports import Status
from voacalc.series import Window


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--level", type=int, default=6)
    ap.add_argument("--window", type=int, default=3)
    ap.add_argument("--max-weight", type=int, default=6)
    args = ap.parse_args()

    V = build_heisenberg(args.level)
    win = Window.symmetric(("x0", "x1", "x2"), args.window)
    print(f"{'total':>5} {'triples':>8} {'checked':>8} {'skipped':>8} "
          f"{'failed':>7} {'secs':>6}")
    for total in range(args.max_weight + 1):
        t0 = time.time()
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for w1 in range(total + 1):
            for w2 in range(total - w1 + 1):
                w3 = total - w1 - w2
                for l1 in V.basis(w1):
                    for l2 in V.basis(w2):
                        for l3 in V.basis(w3):
                            rep = axioms.check_jacobi(
                                V, GradedVector.basis(l1),
                                GradedVector.basis(l2),
                                GradedVector.basis(l3), win)
                            if rep.status is Status.SKIPPED:
                                counts["skip"] += 1
                            elif rep.failed:
                                counts["fail"] += 1
                            else:
                                counts["pass"] += 1
        n = sum(counts.values())
        print(f"{total:>5} {n:>8} {counts['pass']:>8} {counts['skip']:>8} "
              f"{counts['fail']:>7} {time.time() - t0:>6.1f}")


if __name__ == "__main__":
    main()
