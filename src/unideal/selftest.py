"""Condensed oracle-equivalence suite behind `unideal selftest`.

A quick, seeded version of the checks the full pytest suite runs at scale:
every fast path is compared against its independent brute-force oracle, and
the three membership engines are compared with each other on low-rank inputs
modulo power ideals, where all three apply.  The compiled schedule that the
vertex-cover zero test runs is compared on the same instances with the
remainder's multilinear interpolation from the cover polynomial's values on
{0,1}^n, which shares no code with the engine.  The root-certificate search
is checked on fixed instances, most with integer-root generators, one with
a dense remainder and one with irrational and complex roots, and each
certificate it returns must pass the verifier.  Returns a list of failure descriptions; empty means healthy.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .apps import (
    VC_PRIME,
    Graph,
    build_vc_instance,
    has_vertex_cover_brute,
    permanent_lowrank,
    ryser_permanent,
    vertex_cover_lowrank,
)
from .certifier import compute_threshold, search_nonmembership, verify_certificate
from .circuits import CircuitBuilder, expand, syntactic_degree
from .division import UnivariateIdeal, divide, is_member_brute, random_zero_test
from .hadamard import PowerIdealSpec, membership_powers
from .linalg import LinearForm, Matrix
from .lowrank import LowRankInput, RemEvaluator, inline_forms, rem_eval
from .poly import SparsePoly, UnivariatePoly

__all__ = ["run_selftest"]

F = Fraction


def _random_outer(rng, r, steps=4):
    b = CircuitBuilder(r)
    ids = [b.input(i) for i in range(r)] + [b.const(F(rng.randint(-3, 3)))]
    for _ in range(steps):
        x, y = rng.choice(ids), rng.choice(ids)
        ids.append(b.add(x, y) if rng.random() < 0.6 else b.mul(x, y))
    return b.build(ids[-1])


def _random_ideal(rng, n, max_deg):
    gens = []
    for i in range(n):
        d = rng.randint(1, max_deg)
        coeffs = [F(rng.randint(-3, 3)) for _ in range(d)] + [F(rng.choice([1, -1, 2]))]
        gens.append((i, UnivariatePoly(coeffs)))
    return UnivariateIdeal(tuple(gens))


def _horner(b, p, x):
    acc = b.const(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = b.add(b.mul(acc, x), b.const(c))
    return acc


def run_selftest(seed: int = 0) -> list:
    rng = random.Random(seed)
    failures = []

    # remainder evaluation vs expand-and-divide
    for t in range(25):
        n, r = rng.randint(1, 5), rng.randint(1, 3)
        outer = _random_outer(rng, r)
        forms = tuple(
            LinearForm(tuple(F(rng.randint(-2, 2)) for _ in range(n))) for _ in range(r)
        )
        inp = LowRankInput(outer, forms)
        ideal = _random_ideal(rng, n, 3)
        alpha = [F(rng.randint(-4, 4)) for _ in range(n)]
        want = divide(expand(inline_forms(inp)), ideal).evaluate(alpha)
        got = rem_eval(inp, ideal, alpha)
        if got != want:
            failures.append(f"rem_eval mismatch on instance {t}: {got} != {want}")

    # permanent vs ryser on random rank-2 matrices
    for t in range(10):
        n = rng.randint(2, 6)
        u = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(2)]
        v = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(2)]
        a = Matrix([[sum(u[s][i] * v[s][j] for s in range(2)) for j in range(n)] for i in range(n)])
        if permanent_lowrank(a) != ryser_permanent(a):
            failures.append(f"permanent mismatch on instance {t}")

    # power-ideal membership vs monomial brute force
    for t in range(10):
        n = rng.randint(1, 4)
        b = CircuitBuilder(n)
        ids = [b.input(i) for i in range(n)] + [b.const(F(rng.randint(-2, 2)))]
        for _ in range(4):
            x, y = rng.choice(ids), rng.choice(ids)
            ids.append(b.add(x, y) if rng.random() < 0.6 else b.mul(x, y))
        c = b.build(ids[-1])
        k = syntactic_degree(c)
        if k > 4:
            continue
        exps = tuple(rng.randint(1, 3) for _ in range(n))
        f = expand(c)
        want = not all(any(e[i] >= exps[i] for i in range(n)) for e in f.terms)
        got = membership_powers(c, PowerIdealSpec(exps, k), rng=random.Random(seed + t))
        if got != want:
            failures.append(f"power membership mismatch on instance {t}")

    # cross-engine: rank <= 2 inputs modulo power ideals, where the power-ideal
    # test, the low-rank remainder zero test and expand-and-divide all apply
    for t in range(8):
        n = rng.randint(1, 4)
        member = t % 2 == 1  # a multiple of x_0^e_0
        exps = tuple(rng.randint(1, 2 if member else 3) for _ in range(n))
        forms = [
            LinearForm(tuple(F(rng.randint(-2, 2)) for _ in range(n)), F(rng.randint(-1, 1))) for _ in range(2)
        ]
        if member:
            b = CircuitBuilder(2)
            g = b.add(b.power(b.input(0), rng.randint(1, 2)), b.const(F(rng.randint(-2, 2))))
            outer = b.build(b.mul(g, b.power(b.input(1), exps[0])))
            forms[1] = LinearForm(tuple(F(int(i == 0)) for i in range(n)))
        else:
            outer = _random_outer(rng, rng.randint(1, 2))
            while syntactic_degree(outer) > 4:
                outer = _random_outer(rng, outer.n)
        ideal = PowerIdealSpec(exps, 0).to_ideal()
        inp = LowRankInput(outer, tuple(forms[: outer.n]))
        deg_bound = max(syntactic_degree(outer), *exps)
        c = inline_forms(inp)
        brute = is_member_brute(c, ideal)
        powers = not membership_powers(c, PowerIdealSpec(exps, syntactic_degree(c)), rng=random.Random(seed + t))
        lowrank = not random_zero_test(
            RemEvaluator(inp, ideal).schedule(), n, deg_bound, 5, random.Random(seed + t)
        )
        if not brute == powers == lowrank:
            failures.append(f"engines disagree on instance {t}: brute={brute} powers={powers} lowrank={lowrank}")
        elif member and not brute:
            failures.append(f"constructed member {t} reported as a nonmember")

    # root certificates on integer-root generators vs expand-and-divide
    roots = [(1, -1), (0, 2), (-2, 3)]
    gens = tuple((i, UnivariatePoly.from_roots([F(a), F(b)])) for i, (a, b) in enumerate(roots))
    instances = []
    for n, member in ((1, False), (2, True), (2, False), (3, True)):
        b = CircuitBuilder(n)
        xs = [b.input(i) for i in range(n)]
        if n == 1:
            out = b.add(xs[0], b.const(F(-1)))  # -2 at the root -1
        elif not member:
            out = b.add(b.mul(xs[0], xs[1]), xs[1], b.const(F(-2)))  # -2 at (1, 0)
        else:  # a multiple of p_1(x_1), plus a multiple of p_0 or p_2
            out = b.mul(_horner(b, gens[1][1], xs[1]), b.add(xs[0], xs[-1]))
            j = n - 1 if n > 2 else 0
            out = b.add(out, b.mul(_horner(b, gens[j][1], xs[j]), xs[0], xs[1]))
        instances.append((b.build(out), UnivariateIdeal(gens[:n]), member))
    # a nonmember on a 4^3 grid whose remainder, f itself, has 51 terms
    dense = UnivariateIdeal(tuple(
        (i, UnivariatePoly.from_roots([F(a) for a in rs]))
        for i, rs in enumerate([(-2, -1, 1, 3), (-3, 0, 1, 2), (-1, 2, 3, 4)])
    ))
    b = CircuitBuilder(3)
    xs = [b.input(i) for i in range(3)]
    monomials = []
    for e in itertools.product(range(4), repeat=3):
        coeff = (e[0] + 4 * e[1] + 2 * e[2]) % 5 - 2
        if coeff:
            monomials.append(b.mul(b.const(F(coeff)), *[b.power(x, k) for x, k in zip(xs, e)]))
    instances.append((b.build(b.add(*monomials)), dense, False))
    # roots +-i and +-sqrt(2): f = x0 x1 + x1^2 - 2 reduces to x0 x1, which is
    # +-i sqrt(2) on the grid; the candidates for sqrt(2) are never exact
    irrational = UnivariateIdeal(((0, UnivariatePoly([F(1), F(0), F(1)])), (1, UnivariatePoly([F(-2), F(0), F(1)]))))
    b = CircuitBuilder(2)
    xs = [b.input(i) for i in range(2)]
    instances.append((b.build(b.add(b.mul(xs[0], xs[1]), b.mul(xs[1], xs[1]), b.const(F(-2)))), irrational, False))
    for t, (c, ideal, member) in enumerate(instances):
        budget = compute_threshold(c, ideal)
        decision, cert = search_nonmembership(c, ideal, budget)
        brute = is_member_brute(c, ideal)
        if (decision == "member") != brute or brute != member:
            failures.append(f"certifier mismatch on instance {t}: search={decision} brute={brute}")
        elif cert is not None and not verify_certificate(c, ideal, cert, budget):
            failures.append(f"certificate of instance {t} rejected by the verifier")

    # division properties
    for t in range(15):
        n = rng.randint(1, 4)
        ideal = _random_ideal(rng, n, 3)
        terms = {
            tuple(rng.randint(0, 4) for _ in range(n)): F(rng.randint(-5, 5))
            for _ in range(rng.randint(1, 6))
        }
        f = SparsePoly(n, terms)
        r1 = divide(f, ideal)
        perm = list(ideal.generators)
        rng.shuffle(perm)
        r2 = divide(f, UnivariateIdeal(tuple(sorted(perm))))
        if r1 != r2 or divide(r1, ideal) != r1:
            failures.append(f"division property violated on instance {t}")
        for var, p in ideal.generators:
            if r1.deg_in(var) >= p.degree():
                failures.append(f"degree contract violated on instance {t}")

    # vertex cover on a couple of micro graphs
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for g, name in ((c4, "C4"), (star, "K13")):
        for k in range(g.n + 1):
            got = vertex_cover_lowrank(g, k, 20, random.Random(seed + k))
            if got != has_vertex_cover_brute(g, k):
                failures.append(f"vertex cover mismatch on {name} k={k}")
            # the compiled schedule the zero test runs vs interpolation: under
            # the boolean ideal the remainder is the multilinear polynomial
            # sum over c in {0,1}^n of f(c) prod_i (a_i if c_i else 1 - a_i)
            inp, _, deg = build_vc_instance(g, k)
            f = inline_forms(inp)
            cube = [(c, f.evaluate([F(x) for x in c])) for c in itertools.product((0, 1), repeat=g.n)]
            for p in (None, VC_PRIME):
                inp_p, ideal_p, _ = build_vc_instance(g, k, p=p)
                run = RemEvaluator(inp_p, ideal_p, p).schedule()
                for _ in range(3):
                    alpha = [rng.randint(0, 100 * deg) for _ in range(g.n)]
                    want = sum(fc * math.prod(a if ci else 1 - a for a, ci in zip(alpha, c)) for c, fc in cube)
                    if run(alpha) != (want if p is None else want % p):
                        failures.append(f"schedule mismatch on {name} k={k} over p={p}")
                        break

    return failures
