#!/usr/bin/env python3
"""Vertex cover via ideal membership on a family of low-rank graphs.

Runs the randomized low-rank decision against exhaustive search for named
families (cycles, stars, complete bipartite/tripartite blowups) and prints
per-instance timing.

Usage: python scripts/vc_demo.py [--trials 20] [--seed 0] [--tight]

Exits 1 if any answer disagrees with exhaustive search.
"""

import argparse
import random
import sys
import time

from unideal.apps import Graph, blowup_graph, has_vertex_cover_brute, vertex_cover_lowrank


def family():
    k2 = Graph.from_edges(2, [(0, 1)])
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    return [
        ("C4", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
        ("K_{1,3}", Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
        ("K_{2,3}", blowup_graph(k2, [2, 3])),
        ("K_{3,3}", blowup_graph(k2, [3, 3])),
        ("K_{1,7}", Graph.from_edges(8, [(0, i) for i in range(1, 8)])),
        ("K_{4,4}", blowup_graph(k2, [4, 4])),
        ("K_{2,2,2}", blowup_graph(tri, [2, 2, 2])),
    ]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tight", action="store_true", help="use the |E| factor range")
    args = ap.parse_args()
    print(f"{'graph':>10} {'n':>3} {'rank':>5} {'k':>3} {'lowrank':>8} {'brute':>6} {'time':>9}")
    mismatches = 0
    for name, g in family():
        rank = g.adjacency().rank()
        tau = next(k for k in range(g.n + 1) if has_vertex_cover_brute(g, k))
        for k in (max(tau - 1, 0), tau):
            rng = random.Random(args.seed + k)
            t0 = time.perf_counter()
            got = vertex_cover_lowrank(g, k, args.trials, rng, tight=args.tight)
            dt = time.perf_counter() - t0
            want = has_vertex_cover_brute(g, k)
            mismatches += got != want
            flag = "" if got == want else "   MISMATCH"
            print(
                f"{name:>10} {g.n:>3} {rank:>5} {k:>3} {str(got):>8} {str(want):>6} {dt:>8.2f}s{flag}"
            )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
