import itertools
import random
from fractions import Fraction

import pytest

from helpers import klineq_solutions, one_in_three_assignments
from unideal.apps import Graph
from unideal.circuits import expand
from unideal.division import is_member_brute
from unideal.fields import residue
from unideal.reductions import (
    KLinEqInstance,
    OneInThreeInstance,
    graph_coloring_instance,
    reduce_independent_set,
    reduce_klineq,
    reduce_one_in_three,
)

F = Fraction

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def has_independent_set(g: Graph, k: int) -> bool:
    edges = set(g.edges)
    for sub in itertools.combinations(range(g.n), k):
        if all((min(u, v), max(u, v)) not in edges for u, v in itertools.combinations(sub, 2)):
            return True
    return False


def grid_nonvanishing(c, n, k) -> bool:
    """Evaluate over the full label grid [1..n]^k; the generators' root set."""
    for tup in itertools.product(range(1, n + 1), repeat=k):
        if c.evaluate([F(t) for t in tup]):
            return True
    return False


def is_k_colorable(g: Graph, k: int) -> bool:
    for colors in itertools.product(range(k), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in g.edges):
            return True
    return False


def test_independent_set_triangle_k2():
    c, ideal = reduce_independent_set(TRIANGLE, 2)
    assert not grid_nonvanishing(c, 3, 2)
    assert is_member_brute(c, ideal)


def test_independent_set_path_witness():
    c, ideal = reduce_independent_set(PATH3, 2)
    assert c.evaluate([F(1), F(3)]) != 0
    assert not is_member_brute(c, ideal)


def test_independent_set_k1():
    c, ideal = reduce_independent_set(TRIANGLE, 1)
    assert not is_member_brute(c, ideal)


def test_independent_set_shape():
    c, ideal = reduce_independent_set(TRIANGLE, 2)
    assert len(ideal.generators) == 2
    assert all(p.degree() == 3 for _, p in ideal.generators)


def test_independent_set_micro_equivalence():
    rng = random.Random(0)
    for _ in range(12):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        for k in range(1, min(3, n) + 1):
            c, ideal = reduce_independent_set(g, k)
            assert grid_nonvanishing(c, n, k) == has_independent_set(g, k)
            if n <= 4:
                assert (not is_member_brute(c, ideal)) == has_independent_set(g, k)


def test_klineq_hand_instance():
    inst = KLinEqInstance(((1, 1),), (1,))
    c, ideal = reduce_klineq(inst)
    assert expand(c).terms == {(0, 2): F(1), (1, 1): F(2), (2, 0): F(1)}
    assert len(ideal.generators) == 2
    assert not is_member_brute(c, ideal)


def test_klineq_zero_target_always_yes():
    inst = KLinEqInstance(((2, 1, 0), (1, 3, 2)), (0, 0))
    c, ideal = reduce_klineq(inst)
    assert not is_member_brute(c, ideal)


def test_klineq_infeasible_bound_is_member():
    inst = KLinEqInstance(((1,),), (5,))  # b exceeds the row sum
    c, ideal = reduce_klineq(inst)
    assert is_member_brute(c, ideal)
    assert not klineq_solutions(inst)


def test_klineq_random_equivalence():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randint(1, 2)
        n = rng.randint(1, 6)
        a = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(k))
        b = tuple(rng.randint(0, 4) for _ in range(k))
        inst = KLinEqInstance(a, b)
        c, ideal = reduce_klineq(inst)
        assert (not is_member_brute(c, ideal)) == bool(klineq_solutions(inst))


def test_klineq_generator_count():
    inst = KLinEqInstance(((1, 2), (0, 1)), (1, 1))
    _, ideal = reduce_klineq(inst)
    assert len(ideal.generators) == 4


def test_one_in_three_single_clause():
    inst = OneInThreeInstance(3, ((0, 1, 2),))
    packed = reduce_one_in_three(inst)
    assert sorted(klineq_solutions(packed)) == sorted(one_in_three_assignments(inst))
    assert sorted(klineq_solutions(packed)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_one_in_three_shared_pair():
    inst = OneInThreeInstance(4, ((0, 1, 2), (0, 1, 3)))
    packed = reduce_one_in_three(inst)
    assert sorted(klineq_solutions(packed)) == sorted(one_in_three_assignments(inst))


def test_one_in_three_rejects_degenerate_clause():
    with pytest.raises(ValueError):
        OneInThreeInstance(2, ((0, 0, 1),))


def test_one_in_three_two_hops():
    rng = random.Random(2)
    for _ in range(10):
        v = 4
        clauses = tuple(
            tuple(sorted(rng.sample(range(v), 3))) for _ in range(rng.randint(1, 3))
        )
        inst = OneInThreeInstance(v, clauses)
        packed = reduce_one_in_three(inst, rows=rng.choice([1, 2]))
        assert sorted(klineq_solutions(packed)) == sorted(one_in_three_assignments(inst))
        c, ideal = reduce_klineq(packed)
        assert (not is_member_brute(c, ideal)) == bool(one_in_three_assignments(inst))


def test_coloring_triangle():
    c, ideal = graph_coloring_instance(TRIANGLE, 3)
    assert not is_member_brute(c, ideal)
    c2, ideal2 = graph_coloring_instance(TRIANGLE, 2)
    assert is_member_brute(c2, ideal2)


def test_coloring_edgeless():
    c, ideal = graph_coloring_instance(Graph.from_edges(3, []), 1)
    assert not is_member_brute(c, ideal)


def test_coloring_roots_of_unity_witness():
    # Proper 3-coloring by cube roots of unity in GF(7) (p = 1 mod 3),
    # evaluated on ints and reduced mod 7.
    c, _ = graph_coloring_instance(TRIANGLE, 3)
    assert residue(c.evaluate([1, 2, 4]), 7) != 0


def test_coloring_micro_equivalence():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45]
        g = Graph.from_edges(n, edges)
        for k in (1, 2, 3):
            c, ideal = graph_coloring_instance(g, k)
            assert is_member_brute(c, ideal) == (not is_k_colorable(g, k))
