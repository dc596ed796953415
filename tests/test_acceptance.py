"""Acceptance suite: one test per criterion, each printing a PASS line.

Every randomized check is seeded, every comparison is exact (field equality),
and every fast path is judged against an independent oracle computed here:
expand-and-divide for remainders, Ryser/permutation sums for permanents,
subset enumeration for vertex cover, monomial inspection for power ideals.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    P61,
    brute_power_membership,
    diagonal_to_sparse,
    klineq_solutions,
    lift_forms,
    lift_ideal,
    literal_scaled_hadamard,
    mod_p,
    one_in_three_assignments,
    power_decompose_product,
    random_circuit_capped_degree,
    random_low_rank_matrix,
    random_lowrank_instance,
)
from unideal.apps import (
    Graph,
    blowup_graph,
    has_vertex_cover_brute,
    permanent_lowrank,
    ryser_permanent,
    vertex_cover_lowrank,
)
from unideal.circuits import (
    CircuitBuilder,
    DiagonalCircuit,
    expand,
    syntactic_degree,
)
from unideal.certifier import (
    _is_squarefree,
    compute_threshold,
    search_nonmembership,
    verify_certificate,
)
from unideal.division import UnivariateIdeal, divide, is_member_brute
from unideal.fields import random_prime, residue
from unideal.hadamard import (
    PowerIdealSpec,
    build_detection_circuit,
    coverage_failure_bound,
    coverage_trials,
    degree_trials,
    membership_powers,
    scaled_hadamard_eval,
)
from unideal.linalg import LinearForm, Matrix
from unideal.lowrank import LowRankInput, rem_eval, inline_forms
from unideal.poly import SparsePoly, UnivariatePoly

F = Fraction


def _report(num, name):
    print(f"ACCEPTANCE {num:>2} {name}: PASS")


def test_criterion_01_remainder_oracle_equivalence():
    rng = random.Random(101)
    moduli = [random_prime(64, rng) for _ in range(2)]
    t0 = time.perf_counter()
    for _ in range(500):
        inp, ideal, alpha = random_lowrank_instance(rng, n_max=6, r_max=3, d_max=4)
        f = expand(inline_forms(inp))
        want = divide(f, ideal).evaluate(alpha)
        assert rem_eval(inp, ideal, alpha) == want
        for p in moduli:
            inp_p = LowRankInput(mod_p(inp.outer, p), lift_forms(inp.forms, p))
            ideal_p = lift_ideal(ideal, p)
            got_p = rem_eval(inp_p, ideal_p, mod_p(alpha, p), p)
            # The oracle divides in GF(p): f's residues through _Reducer(ideal, p).
            assert got_p == divide(SparsePoly(f.n, f.terms, p), ideal).evaluate(alpha)
            assert got_p == residue(want, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"remainder oracle equivalence (500 instances x 3 fields, {elapsed:.1f}s)")


def test_criterion_02_permanent():
    rng = random.Random(102)
    for _ in range(200):
        n = rng.randint(1, 8)
        r = rng.randint(1, min(3, n))
        a = random_low_rank_matrix(rng, n, r)
        assert permanent_lowrank(a) == ryser_permanent(a)
    for n in range(3, 7):
        ones = Matrix([[F(1)] * n] * n)
        assert permanent_lowrank(ones) == math.factorial(n)
    _report(2, "permanent equals Ryser on 200 low-rank matrices; all-ones gives n!")


def _vc_family(rng):
    k2 = Graph.from_edges(2, [(0, 1)])
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    fam = [
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # C4
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),          # K13
        blowup_graph(k2, [2, 3]),                                # K23
        blowup_graph(k2, [3, 3]),                                # K33
        blowup_graph(tri, [2, 2, 2]),                            # tripartite n=6
        Graph.from_edges(8, [(0, i) for i in range(1, 8)]),      # K17
        blowup_graph(k2, [4, 4]),                                # K44
        blowup_graph(tri, [3, 3, 2]),                            # tripartite n=8
        blowup_graph(p3, [3, 2, 3]),                             # path blowup n=8
    ]
    # a random low-rank construction: blow up a random base on <= 3 vertices
    base_edges = rng.sample([(0, 1), (1, 2), (0, 2)], rng.randint(1, 3))
    base = Graph.from_edges(3, base_edges)
    sizes = [rng.randint(1, 3) for _ in range(3)]
    while sum(sizes) > 8:
        sizes[sizes.index(max(sizes))] -= 1
    fam.append(blowup_graph(base, sizes))
    return fam


def test_criterion_03_vertex_cover():
    rng = random.Random(103)
    checked = 0
    for g in _vc_family(rng):
        assert g.n <= 8 and g.adjacency().rank() <= 3
        tau = next(k for k in range(g.n + 1) if has_vertex_cover_brute(g, k))
        ks = sorted({max(tau - 1, 0), tau})
        tight = g.n >= 7
        for k in ks:
            got = vertex_cover_lowrank(g, k, trials=20, rng=random.Random(1000 + k), tight=tight)
            want = has_vertex_cover_brute(g, k)
            assert got == want, (g, k)
            checked += 1
    # the printed one-sided error bound for a NO answer at 20 trials
    assert float(F(1, 100) ** 20) <= 1e-3
    _report(3, f"vertex cover matches exhaustive search on {checked} (graph, k) pairs")


def test_criterion_04_scaled_hadamard_conformance():
    rng = random.Random(104)
    for _ in range(100):
        n, k = rng.randint(1, 4), rng.randint(0, 3)
        c = random_circuit_capped_degree(rng, n, 4)
        summands = tuple(
            (F(rng.randint(-3, 3)), LinearForm(tuple(F(rng.randint(-2, 2)) for _ in range(n))))
            for _ in range(rng.randint(1, 3))
        )
        d = DiagonalCircuit(n, k, summands)
        b = [F(rng.randint(1, 8)) for _ in range(n)]
        want = literal_scaled_hadamard(expand(c), diagonal_to_sparse(d), b)
        assert scaled_hadamard_eval(mod_p(c, P61), mod_p(d, P61), mod_p(b, P61), P61) == residue(want, P61)
    _report(4, "scaled Hadamard equals the literal definition on 100 instances")


def test_criterion_05_power_ideal_membership():
    rng = random.Random(105)
    for t in range(300):
        n = rng.randint(1, 8)
        kcap = rng.randint(0, 4)
        c = random_circuit_capped_degree(rng, n, max(kcap, 1))
        k = syntactic_degree(c)
        exps = tuple(rng.randint(1, 3) for _ in range(n))
        got = membership_powers(c, PowerIdealSpec(exps, k), rng=random.Random(50000 + t))
        want = not brute_power_membership(c, exps)
        assert got == want, (t, exps)
    # configured coverage budget at auto trials stays within 2^-20
    for k in range(1, 5):
        m = 2 * k + 8
        assert coverage_failure_bound(k, m, degree_trials(k, m)) <= F(1, 2**20)
    _report(5, "power-ideal membership matches monomial brute force on 300 circuits")


def test_criterion_06_diagonal_circuit_size():
    rng = random.Random(106)
    for k in range(1, 5):
        kk = (3 * k + 1) // 2
        p = F(1)
        for i in range(k):
            p *= F(kk - i, kk)
        assert coverage_trials(k) == math.ceil(4 * k * math.log(2) / float(p))
        for trials in (1, 2, 5, 11):
            spec = PowerIdealSpec((2,) * (2 * k), k)
            d = build_detection_circuit(spec, trials, rng)
            assert d.fan_in == trials * 2 ** (kk - 1)
    # the underlying power decomposition also has exactly 2^(m-1) summands
    for m in range(1, 6):
        forms = [LinearForm((F(1),) * 2, F(1)) for _ in range(m)]
        assert power_decompose_product(forms, 1).fan_in == 2 ** (m - 1)
    _report(6, "diagonal fan-in = trials * 2^(ceil(1.5k)-1); trial count formula exact")


def test_criterion_07_certifier():
    rng = random.Random(107)
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        gens = []
        for i in range(n):
            while True:
                d = rng.randint(1, 4)
                coeffs = [F(rng.randint(-8, 8)) for _ in range(d)] + [F(rng.choice([1, -1, 2]))]
                p = UnivariatePoly(coeffs)
                if _is_squarefree(p):
                    gens.append((i, p))
                    break
        ideal = UnivariateIdeal(tuple(gens))
        b = CircuitBuilder(n)
        ids = [b.input(i) for i in range(n)] + [b.const(F(rng.randint(-4, 4)))]
        for _ in range(4):
            u, v = rng.choice(ids), rng.choice(ids)
            ids.append(b.add(u, v) if rng.random() < 0.6 else b.mul(u, v))
        out = ids[-1]
        if rng.random() < 0.45:
            j, pj = gens[rng.randrange(len(gens))]
            xj = b.input(j)
            acc = b.const(F(pj.coeffs[-1]))
            for cc in reversed(pj.coeffs[:-1]):
                acc = b.add(b.mul(acc, xj), b.const(F(cc)))
            out = b.mul(out, acc)
        c = b.build(out)
        budget = compute_threshold(c, ideal)
        decision, cert = search_nonmembership(c, ideal, budget)  # Undecided would raise
        assert (decision == "member") == is_member_brute(c, ideal)
        if cert is not None:
            assert verify_certificate(c, ideal, cert, budget)
        done += 1
    _report(7, "certifier agrees with brute membership on 100 instances, gap realized")


def test_criterion_08_reductions():
    from unideal.reductions import (
        KLinEqInstance,
        OneInThreeInstance,
        graph_coloring_instance,
        reduce_independent_set,
        reduce_klineq,
        reduce_one_in_three,
    )

    rng = random.Random(108)

    def has_independent_set(g, k):
        edges = set(g.edges)
        return any(
            all((min(u, v), max(u, v)) not in edges for u, v in itertools.combinations(sub, 2))
            for sub in itertools.combinations(range(g.n), k)
        )

    def grid_nonvanishing(c, n, k):
        return any(
            c.evaluate([F(t) for t in tup])
            for tup in itertools.product(range(1, n + 1), repeat=k)
        )

    def is_k_colorable(g, k):
        return any(
            all(col[u] != col[v] for u, v in g.edges)
            for col in itertools.product(range(k), repeat=g.n)
        )

    for _ in range(10):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        for k in range(1, min(3, n) + 1):
            c, ideal = reduce_independent_set(g, k)
            assert len(ideal.generators) == k
            assert all(p.degree() == n for _, p in ideal.generators)
            assert grid_nonvanishing(c, n, k) == has_independent_set(g, k)
        for k in (1, 2, 3):
            c, ideal = graph_coloring_instance(g, k)
            assert is_member_brute(c, ideal) == (not is_k_colorable(g, k))
    for _ in range(25):
        k = rng.randint(1, 2)
        n = rng.randint(1, 10)
        inst = KLinEqInstance(
            tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(k)),
            tuple(rng.randint(0, 4) for _ in range(k)),
        )
        c, ideal = reduce_klineq(inst)
        assert len(ideal.generators) == 2 * k
        assert (not is_member_brute(c, ideal)) == bool(klineq_solutions(inst))
    for _ in range(10):
        v = 4
        clauses = tuple(tuple(sorted(rng.sample(range(v), 3))) for _ in range(rng.randint(1, 3)))
        inst = OneInThreeInstance(v, clauses)
        packed = reduce_one_in_three(inst, rows=rng.choice([1, 2]))
        assert sorted(klineq_solutions(packed)) == sorted(one_in_three_assignments(inst))
        c, ideal = reduce_klineq(packed)
        assert (not is_member_brute(c, ideal)) == bool(one_in_three_assignments(inst))
    _report(8, "all reductions reproduce brute-force answers at micro scale")


def test_criterion_09_division_algebra():
    rng = random.Random(109)
    for _ in range(1000):
        n = rng.randint(1, 4)
        gens = []
        for i in range(n):
            d = rng.randint(1, 4)
            coeffs = [F(rng.randint(-3, 3)) for _ in range(d)] + [F(rng.choice([1, -1, 2]))]
            gens.append((i, UnivariatePoly(coeffs)))
        ideal = UnivariateIdeal(tuple(gens))
        f = SparsePoly(
            n,
            {
                tuple(rng.randint(0, 5) for _ in range(n)): F(rng.randint(-5, 5))
                for _ in range(rng.randint(1, 5))
            },
        )
        g = SparsePoly(
            n,
            {
                tuple(rng.randint(0, 5) for _ in range(n)): F(rng.randint(-5, 5))
                for _ in range(rng.randint(1, 5))
            },
        )
        r = divide(f, ideal)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert divide(f, UnivariateIdeal(tuple(shuffled))) == r
        a, bb = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        assert divide(f.scale(a) + g.scale(bb), ideal) == r.scale(a) + divide(g, ideal).scale(bb)
        assert divide(r, ideal) == r
        for var, p in gens:
            assert r.deg_in(var) < p.degree()
    _report(9, "division uniqueness/linearity/idempotence/degree on 1000 pairs")


def test_criterion_10_scaling_smoke():
    rng = random.Random(110)

    def build(n):
        b = CircuitBuilder(2)
        z1, z2 = b.input(0), b.input(1)
        outer = b.build(b.add(b.mul(z1, z1, z2), b.mul(z2, z2), z1))
        forms = tuple(
            LinearForm(tuple(F(rng.randint(-3, 3)) for _ in range(n))) for _ in range(2)
        )
        inp = LowRankInput(outer, forms)
        gens = tuple(
            (
                i,
                UnivariatePoly(
                    [F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(1)]
                ),
            )
            for i in range(n)
        )
        ideal = UnivariateIdeal(gens)
        alpha = [F(rng.randint(-4, 4)) for _ in range(n)]
        return inp, ideal, alpha

    times = {}
    for n in (20, 40, 80):
        inp, ideal, alpha = build(n)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            rem_eval(inp, ideal, alpha)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    ratio = times[80] / times[20]
    assert ratio < (80 / 20) ** 4, f"growth ratio {ratio:.1f} >= 256"
    _report(
        10,
        f"scaling: t(20)={times[20]*1e3:.1f}ms t(40)={times[40]*1e3:.1f}ms "
        f"t(80)={times[80]*1e3:.1f}ms ratio {ratio:.1f} < 256",
    )
