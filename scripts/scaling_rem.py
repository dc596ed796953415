#!/usr/bin/env python3
"""Wall-time scaling of remainder evaluation in the variable count.

Fixes the outer polynomial (degree 3 in two forms) and the generator degree
at 3, then times rem_eval (preparation plus one point) for n = 20 doubling up
to 640.  The theory predicts d^O(r) * poly(n).  The printed ratios against the
smallest n should stay far below the n^4 slope, and each doubling's slope
log2(t(2n)/t(n)) shows the growth exponent directly: about 1 when the work per
recursion level does not grow with n (preparation eliminates the forms once,
then solves an r x r' system per level), 2 for per-level work linear in n.

Usage: python scripts/scaling_rem.py [--sizes 20,40,80,160,320,640] [--seed 0]
"""

import argparse
import math
import random
import time
from fractions import Fraction

from unideal.circuits import CircuitBuilder
from unideal.division import UnivariateIdeal
from unideal.linalg import LinearForm
from unideal.lowrank import LowRankInput, rem_eval
from unideal.poly import UnivariatePoly

F = Fraction


def build_instance(rng, n):
    b = CircuitBuilder(2)
    z1, z2 = b.input(0), b.input(1)
    outer = b.build(b.add(b.mul(z1, z1, z2), b.mul(z2, z2), z1))
    forms = tuple(
        LinearForm(tuple(F(rng.randint(-3, 3)) for _ in range(n))) for _ in range(2)
    )
    ideal = UnivariateIdeal(
        tuple(
            (i, UnivariatePoly([F(rng.randint(-3, 3)) for _ in range(3)] + [F(1)]))
            for i in range(n)
        )
    )
    alpha = [F(rng.randint(-4, 4)) for _ in range(n)]
    return LowRankInput(outer, forms), ideal, alpha


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="20,40,80,160,320,640")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    sizes = [int(s) for s in args.sizes.split(",")]
    times = {}
    print(f"{'n':>6} {'best (ms)':>12}")
    for n in sizes:
        inp, ideal, alpha = build_instance(rng, n)
        best = min(
            _timed(lambda: rem_eval(inp, ideal, alpha)) for _ in range(args.repeats)
        )
        times[n] = best
        print(f"{n:>6} {best * 1e3:>12.2f}")
    base = sizes[0]
    print("\nratios against n^4 slope, and the slope of each doubling:")
    for n in sizes[1:]:
        allowed = (n / base) ** 4
        line = f"  t({n})/t({base}) = {times[n] / times[base]:8.2f}   (n^4 slope: {allowed:>7.0f})"
        if n % 2 == 0 and n // 2 in times:
            line += f"   log2(t({n})/t({n // 2})) = {math.log2(times[n] / times[n // 2]):5.2f}"
        print(line)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
