import math
import random
from fractions import Fraction
from functools import partial

import pytest

from helpers import identity, multiset_permanent, permutation_permanent, random_low_rank_matrix, walk_eval
from unideal import apps, cli
from unideal.apps import (
    Graph,
    blowup_graph,
    build_vc_instance,
    has_vertex_cover_brute,
    permanent_lowrank,
    ryser_permanent,
    vertex_cover_lowrank,
)
from unideal.circuits import Const
from unideal.division import is_member_brute
from unideal.fields import GF, QQ, FieldMismatch, Mod
from unideal.linalg import Matrix
from unideal.lowrank import inline_forms

F = Fraction


def frac_matrix(rows):
    return Matrix([[F(x) for x in row] for row in rows])


C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
K2 = Graph.from_edges(2, [(0, 1)])


def relabel(g: Graph, perm) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# Blow-ups whose classes are not contiguous in vertex order.
K34_RELABELLED = relabel(blowup_graph(K2, [3, 4]), [0, 1, 3, 2, 4, 5, 6])
K222_RELABELLED = relabel(blowup_graph(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), [2, 2, 2]), [0, 2, 4, 1, 3, 5])


def test_ryser_examples():
    assert ryser_permanent(frac_matrix([[7]])) == 7
    assert ryser_permanent(frac_matrix([[1, 1], [1, 1]])) == 2
    assert ryser_permanent(frac_matrix([[1] * 5] * 5)) == 120


def test_ryser_against_permutation_sum():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = frac_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert ryser_permanent(m) == permutation_permanent(m)


def test_ryser_size_guard():
    with pytest.raises(ValueError):
        ryser_permanent(identity(21))


def test_permanent_all_ones_factorial():
    for n in range(3, 7):
        assert permanent_lowrank(frac_matrix([[1] * n] * n)) == math.factorial(n)


def test_permanent_zero_row():
    m = frac_matrix([[1, 2], [0, 0]])
    assert permanent_lowrank(m) == 0


def test_permanent_random_low_rank():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 6)
        r = rng.randint(1, min(3, n))
        m = random_low_rank_matrix(rng, n, r)
        assert permanent_lowrank(m) == ryser_permanent(m)


def factors(rng, n, r, entries):
    u = [[rng.choice(entries) for _ in range(r)] for _ in range(n)]
    v = [[rng.choice(entries) for _ in range(n)] for _ in range(r)]
    a = Matrix([[sum(F(u[i][t]) * v[t][j] for t in range(r)) for j in range(n)] for i in range(n)])
    return u, v, a


def test_multiset_oracle_matches_ryser():
    rng = random.Random(20)
    for n, r in [(1, 1), (5, 1), (8, 2), (7, 3), (6, 4)]:
        u, v, a = factors(rng, n, r, (-2, -1, 0, 1, 2))
        assert multiset_permanent(u, v) == ryser_permanent(a)


@pytest.mark.parametrize("r, n", [(2, 24), (2, 30), (3, 16)])
def test_permanent_past_ryser_matches_multiset_oracle(r, n):
    # Sizes where n^O(r) matters and Ryser (n <= 20) cannot check the engine.
    u, v, a = factors(random.Random(100 * r + n), n, r, (-2, -1, 1, 2))
    assert a.rank() == r
    assert permanent_lowrank(a) == multiset_permanent(u, v)


def test_permanent_of_rational_matrix_matches_multiset_oracle():
    # Rational entries and rational basis coordinates: the rows and their
    # coordinates are scaled to integers, and the scale must be divided out.
    rng = random.Random(21)
    entries = (F(-3, 2), F(-1, 3), F(1, 4), F(2), F(5, 6))
    for n, r in [(6, 2), (12, 2), (9, 3)]:
        u, v, a = factors(rng, n, r, entries)
        assert any(x.denominator > 1 for row in a.rows for x in row)
        want = multiset_permanent(u, v)
        assert permanent_lowrank(a) == want
        if n <= 8:
            assert ryser_permanent(a) == want


@pytest.mark.parametrize("p", [2, 7, 10007])
def test_permanent_over_prime_fields(p):
    # The permanent is an integer polynomial in the entries, so over GF(p) it
    # is the image of the rational one; GF(2) also exercises rank drops mod p.
    g = GF(p)
    rng = random.Random(p)
    for _ in range(30):
        n = rng.randint(1, 7)
        a = random_low_rank_matrix(rng, n, rng.randint(1, min(3, n)))
        a_p = Matrix([[g(x) for x in row] for row in a.rows])
        got = permanent_lowrank(a_p, g)
        assert isinstance(got, Mod) and got.p == p
        assert got == g(ryser_permanent(a))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])


def test_blowup_preserves_rank():
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    big = blowup_graph(tri, [3, 3, 2])
    assert big.n == 8
    assert big.adjacency().rank() == tri.adjacency().rank() == 3


def test_vc_instance_empty_graph():
    inp, ideal, deg = build_vc_instance(Graph.from_edges(3, []), 1)
    # no quadratic forms survive; only the size factor's single form remains
    assert len(inp.forms) == 1
    assert deg == 2 * 3 + 2


def test_vc_instance_star_rank():
    inp, ideal, deg = build_vc_instance(K13, 1)
    assert len(inp.forms) <= 3  # quadratic rank 2 plus the size form


def test_vc_instance_scalars_are_field_scalars():
    # Over GF(p) the split runs on residues, so every form coefficient is an
    # int in [0, p); over QQ no scalar is a float.
    isolated = Graph.from_edges(5, [(0, 1), (1, 2)])
    p = apps.VC_PRIME
    for g in (C4, K13, K2, isolated, blowup_graph(K2, [2, 3])):
        inp, _, _ = build_vc_instance(g, 1, field=GF(p))
        coeffs = [c for f in inp.forms for c in f.coeffs]
        assert coeffs and all(type(c) is int and 0 <= c < p for c in coeffs), g
        inp, _, _ = build_vc_instance(g, 1)
        scalars = [c for f in inp.forms for c in f.coeffs]
        scalars += [node.value for node in inp.outer.nodes if isinstance(node, Const)]
        assert scalars and not any(isinstance(c, float) for c in scalars), g


def test_vc_instance_k2_witnesses():
    inp, ideal, _ = build_vc_instance(K2, 1)
    f = inline_forms(inp)
    assert f.evaluate([F(0), F(1)]) != 0
    assert f.evaluate([F(1), F(0)]) != 0


def test_vc_k_equals_n_always_true():
    assert vertex_cover_lowrank(K2, 2, 5, random.Random(0))
    assert vertex_cover_lowrank(C4, 4, 5, random.Random(0))


def test_vc_c4():
    assert not vertex_cover_lowrank(C4, 1, 20, random.Random(1))
    assert vertex_cover_lowrank(C4, 2, 20, random.Random(1))


def test_vc_star_center():
    assert vertex_cover_lowrank(K13, 1, 20, random.Random(2))


def test_vc_monotone_in_k():
    rng = random.Random(3)
    prev = False
    for k in range(C4.n + 1):
        cur = vertex_cover_lowrank(C4, k, 20, random.Random(99))
        assert not (prev and not cur)
        prev = cur


def test_vc_micro_membership_equivalence():
    # n <= 5: f in ideal exactly when no size-k cover exists.
    graphs = [
        K2,
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        K13,
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    ]
    for g in graphs:
        for k in range(g.n + 1):
            inp, ideal, _ = build_vc_instance(g, k, tight=True)
            member = is_member_brute(inline_forms(inp), ideal)
            assert member == (not has_vertex_cover_brute(g, k))


def test_vc_tight_matches_untight():
    g = blowup_graph(K2, [2, 3])
    for k in range(g.n + 1):
        a = vertex_cover_lowrank(g, k, 20, random.Random(7), tight=False)
        b = vertex_cover_lowrank(g, k, 20, random.Random(7), tight=True)
        assert a == b == has_vertex_cover_brute(g, k)


def test_vc_matches_brute_on_low_rank_family():
    rng = random.Random(4)
    fams = [
        C4,
        K13,
        blowup_graph(K2, [2, 2]),
        blowup_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), [2, 1, 2]),
        K34_RELABELLED,
        K222_RELABELLED,
    ]
    for g in fams:
        assert g.adjacency().rank() <= 3
        for k in range(g.n + 1):
            got = vertex_cover_lowrank(g, k, 20, rng)
            assert got == has_vertex_cover_brute(g, k)


def field_spy(monkeypatch):
    """Record (field asked for, constructed) for every evaluator vc builds."""
    calls = []

    class Spy(apps.RemEvaluator):
        def __init__(self, inp, ideal, field=None):
            try:
                super().__init__(inp, ideal, field)
            except FieldMismatch:
                calls.append((field, False))
                raise
            calls.append((field, True))

    monkeypatch.setattr(apps, "RemEvaluator", Spy)
    return calls


VC_FAMILY = [C4, K13, blowup_graph(K2, [2, 3]), blowup_graph(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), [2, 2, 1])]


def test_vc_instance_matches_the_cover_polynomial():
    # inline_forms(inp) against prod_{s=1..S} (q - s) * prod_{t<n-k} (sum x - t),
    # q summed from the edge list, at random points over QQ and GF(VC_PRIME);
    # over GF(p) the forms are residues, evaluated on ints and reduced mod p.
    rng = random.Random(24)
    p = apps.VC_PRIME
    for g in VC_FAMILY + [K34_RELABELLED, K222_RELABELLED]:
        for k in range(g.n + 1):
            for tight in (False, True):
                s_range, _ = apps.vc_degrees(g, k, tight)
                for field, draw in ((QQ, lambda: F(rng.randint(-9, 9), rng.randint(1, 5))),
                                    (GF(p), lambda: rng.randrange(p))):
                    f = inline_forms(build_vc_instance(g, k, tight, field)[0])
                    for _ in range(2):
                        x = [draw() for _ in range(g.n)]
                        q = sum(x[u] * x[v] for u, v in g.edges)
                        want = math.prod(q - s for s in range(1, s_range + 1))
                        want *= math.prod(sum(x) - t for t in range(g.n - k))
                        got = f.evaluate(x)
                        if field.p is not None:
                            got, want = got % p, want % p
                        assert got == want, (g, k, tight, field)


def test_vc_runs_over_the_mersenne_prime(monkeypatch):
    calls = field_spy(monkeypatch)
    for g in VC_FAMILY:
        for k in range(g.n + 1):
            assert vertex_cover_lowrank(g, k, 20, random.Random(k)) == has_vertex_cover_brute(g, k)
    assert set(calls) == {(GF(2**61 - 1), True)}


def test_vc_rejects_a_graph_beyond_the_prime_precondition(monkeypatch, tmp_path, capsys):
    # 101 is not larger than the sample set 100 * deg_bound.  The check comes
    # before the instance is built: the 2 * 10**8 declared vertices allocate
    # no adjacency matrix, and the command exits 2.
    monkeypatch.setattr(apps, "VC_PRIME", 101)

    def no_build(*args, **kwargs):
        raise AssertionError("the instance was built")

    monkeypatch.setattr(apps, "build_vc_instance", no_build)
    monkeypatch.setattr(Graph, "adjacency", no_build)
    with pytest.raises(ValueError, match="GF\\(101\\)"):
        vertex_cover_lowrank(Graph(2 * 10**8, ()), 0)
    graph = tmp_path / "huge.txt"
    graph.write_text(f"{2 * 10**8} 0\n")
    assert cli.main(["vc", "--graph", str(graph), "--k", "0"]) == 2
    assert "GF(101)" in capsys.readouterr().err


@pytest.mark.parametrize("prime", [2**61 - 1], ids=["mersenne"])
def test_vc_schedule_keeps_the_rng_stream(monkeypatch, prime):
    # The zero test on the compiled schedule draws the same points from the
    # same stream as on the sparse walk of `helpers.walk_eval` and stops at
    # the same one: the same decisions, and the rng left in the same state.
    monkeypatch.setattr(apps, "VC_PRIME", prime)
    cases = [(g, k, seed) for g in VC_FAMILY for k in range(g.n + 1) for seed in (0, 1)]

    def runs():
        out = []
        for g, k, seed in cases:
            rng = random.Random(seed)
            out.append((vertex_cover_lowrank(g, k, 20, rng, tight=seed == 1), rng.getstate()))
        return out

    def no_eval(self, alpha):
        raise AssertionError("the zero test called eval")

    with monkeypatch.context() as m:
        m.setattr(apps.RemEvaluator, "eval", no_eval)
        compiled = runs()
    monkeypatch.setattr(apps.RemEvaluator, "schedule", lambda self: partial(walk_eval, self))
    assert compiled == runs()
    decisions = [has for has, _ in compiled]
    assert decisions == [has_vertex_cover_brute(g, k) for g, k, _ in cases]
    assert True in decisions and False in decisions
