#!/usr/bin/env python3
"""Monte-Carlo check of the coloring coverage rate behind the power-ideal test.

For each k, a batch of coverage_trials(k) random colorings of [m] into
ceil(1.5 k) colors should assign distinct colors to any fixed k-subset in at
least one batch member with probability at least 1 - 2^-k.  This script
estimates the empirical miss rate and prints it next to that target.

It fails (exit 1) when, for some k, a miss count as large as the observed one
is improbable under that target: P[Bin(runs, 2^-k) >= misses] < ALPHA,
computed exactly.  A batch whose true miss rate is at most 2^-k passes with
probability at least 1 - 5 * ALPHA; it exits 0 otherwise.

Usage: python scripts/coverage_experiment.py [--runs 2000] [--seed 0]
"""

import argparse
import math
import random
import sys
from fractions import Fraction

from unideal.hadamard import _color_count, _cover_probability, coverage_trials

ALPHA = Fraction(1, 10**6)


def batch_covers(rng, k, m, colors, trials) -> bool:
    target = rng.sample(range(m), k)
    for _ in range(trials):
        assigned = {z: rng.randrange(colors) for z in target}
        if len(set(assigned.values())) == k:
            return True
    return False


def binomial_tail(runs: int, q: Fraction, misses: int) -> Fraction:
    """P[Bin(runs, q) >= misses], exactly, as 1 - P[Bin(runs, q) < misses]."""
    return 1 - sum(math.comb(runs, i) * q**i * (1 - q) ** (runs - i) for i in range(misses))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    print(f"{'k':>3} {'m':>3} {'colors':>7} {'trials':>7} {'P(cover)':>10} {'miss rate':>10} {'target':>9} {'tail':>9}")
    failed = []
    for k in range(1, 6):
        m = 2 * k
        trials = coverage_trials(k)
        colors = _color_count(k)
        misses = sum(
            0 if batch_covers(rng, k, m, colors, trials) else 1 for _ in range(args.runs)
        )
        tail = binomial_tail(args.runs, Fraction(1, 2**k), misses)
        if tail < ALPHA:
            failed.append(k)
        print(
            f"{k:>3} {m:>3} {colors:>7} {trials:>7} {float(_cover_probability(k)):>10.4f} "
            f"{misses / args.runs:>10.4f} {2**-k:>9.4f} {float(tail):>9.2e}"
        )
    if failed:
        print(f"FAIL: miss counts improbable under 2^-k (tail < {float(ALPHA):g}) at k = {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
