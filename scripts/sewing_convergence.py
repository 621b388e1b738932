#!/usr/bin/env python3
"""Print the exact partial-sum differences between evaluating a sewn
two-puncture configuration and contracting its factors, over a ladder of
intermediate-weight cutoffs.

The difference decays like (2/3)^N for the standard punctures at 2 and 1,
since the sewn product sits at points 3 and 2."""

import argparse
from fractions import Fraction

from voacalc.fock import GradedVector, build_heisenberg
from voacalc.moduli import nu_state, pair, sew, two_puncture_element


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--level", type=int, default=6)
    ap.add_argument("--max-cutoff", type=int, default=20)
    ap.add_argument("--order", type=int, default=8)
    args = ap.parse_args()

    V = build_heisenberg(args.level)
    a = GradedVector.basis((1,))
    vp = GradedVector.basis((1,))
    P2 = two_puncture_element(2, args.order)
    P1 = two_puncture_element(1, args.order)
    sewn = sew(P2, 1, P1).element
    print(f"sewn punctures: {[str(z) for z in sewn.z]} and 0")

    wts = vp.weights()
    print(f"{'N':>3} {'product side':>22} {'iterate side':>22} {'|diff|^2':>14}")
    for N in range(2, args.max_cutoff + 1, 2):
        lhs = pair(vp, nu_state(V, sewn, [a, a, a], N, wts))
        inner = nu_state(V, P1, [a, a], N)
        rhs = pair(vp, nu_state(V, P2, [inner, a], N, wts))
        d = (lhs - rhs).norm2()
        print(f"{N:>3} {str(lhs):>22} {str(rhs):>22} {float(d):>14.3e}")
    print("limit: 49/36 =", float(Fraction(49, 36)))


if __name__ == "__main__":
    main()
