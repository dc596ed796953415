import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_ideal, random_sparse
from unideal.circuits import CircuitBuilder, expand
from unideal.division import (
    UnivariateIdeal,
    _Reducer,
    divide,
    is_member_brute,
    power_table,
    random_zero_test,
)
from unideal.fields import GF, QQ
from unideal.poly import CapExceeded, SparsePoly, UnivariatePoly

F = Fraction


def boolean_gen():
    return UnivariatePoly([F(0), F(-1), F(1)])  # x^2 - x


def square_gen():
    return UnivariatePoly([F(0), F(0), F(1)])  # x^2


def test_power_table_idempotent_variable():
    # x^2 - x: x^e = x for every e >= 1
    t = power_table(boolean_gen(), 5)
    assert t[0] == UnivariatePoly([F(1)])
    for e in range(1, 6):
        assert t[e] == UnivariatePoly([F(0), F(1)])


def test_power_table_nilpotent():
    t = power_table(square_gen(), 3)
    assert t[2].is_zero() and t[3].is_zero()


def test_power_table_below_degree_unchanged():
    p = UnivariatePoly([F(1), F(2), F(0), F(1)])
    t = power_table(p, 2)
    assert t[1] == UnivariatePoly([F(0), F(1)])
    assert t[2] == UnivariatePoly([F(0), F(0), F(1)])


def test_divide_hand_example():
    # x1^2 x2 + x2 mod <x1^2 - x1, x2^2 - x2>: long division sends x1^2 -> x1
    f = SparsePoly(2, {(2, 1): F(1), (0, 1): F(1)})
    ideal = UnivariateIdeal(((0, boolean_gen()), (1, boolean_gen())))
    assert divide(f, ideal).terms == {(1, 1): F(1), (0, 1): F(1)}


def test_divide_member_maps_to_zero():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, 3)
        var, p = ideal.generators[rng.randrange(len(ideal.generators))]
        # f = p(x_var) * random monomial
        e = tuple(rng.randint(0, 2) for _ in range(n))
        f = SparsePoly.zero(n)
        for j, c in enumerate(p.coeffs):
            if c:
                ee = list(e)
                ee[var] += j
                f = f + SparsePoly(n, {tuple(ee): c})
        assert divide(f, ideal).is_zero()


def test_divide_constant_passthrough():
    ideal = UnivariateIdeal(((0, boolean_gen()),))
    f = SparsePoly.const(1, F(7))
    assert divide(f, ideal) == f


def test_divide_permutation_invariance():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(2, 4)
        ideal = random_ideal(rng, n, 3)
        f = random_sparse(rng, n)
        r = divide(f, ideal)
        for _ in range(20):
            gens = list(ideal.generators)
            rng.shuffle(gens)
            # UnivariateIdeal stores order; the reducer sorts internally, so
            # feed the shuffled order through a fresh tuple.
            assert divide(f, UnivariateIdeal(tuple(gens))) == r


def test_divide_linearity_and_idempotence():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, 3)
        f, g = random_sparse(rng, n), random_sparse(rng, n)
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        lhs = divide(f.scale(a) + g.scale(b), ideal)
        rhs = divide(f, ideal).scale(a) + divide(g, ideal).scale(b)
        assert lhs == rhs
        assert divide(divide(f, ideal), ideal) == divide(f, ideal)


def test_divide_degree_contract():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, 4)
        r = divide(random_sparse(rng, n, max_exp=6), ideal)
        for var, p in ideal.generators:
            assert r.deg_in(var) < p.degree()


def test_member_brute_power_ideal():
    b = CircuitBuilder(1)
    c = b.build(b.mul(b.input(0), b.input(0)))
    ideal = UnivariateIdeal(((0, square_gen()),))
    assert is_member_brute(c, ideal)


def test_member_brute_permanent_connection():
    # Product of rows of [[1,1],[1,1]]: remainder 2 x1 x2, permanent 2.
    b = CircuitBuilder(2)
    s1 = b.linear_id = b.add(b.input(0), b.input(1))
    s2 = b.add(b.input(0), b.input(1))
    c = b.build(b.mul(s1, s2))
    ideal = UnivariateIdeal(((0, square_gen()), (1, square_gen())))
    assert not is_member_brute(c, ideal)
    rem = divide(expand(c), ideal)
    assert rem.terms == {(1, 1): F(2)}


def test_member_brute_triangle_coloring():
    # Triangle graph polynomial against <x_i^3 - 1>: 3-colorable, so nonmember;
    # checked independently by evaluating at a proper coloring by cube roots
    # of unity in GF(7) (2 has order 3).
    from unideal.reductions import graph_coloring_instance
    from unideal.apps import Graph

    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    c, ideal = graph_coloring_instance(tri, 3)
    assert not is_member_brute(c, ideal)
    g = GF(7)
    roots = [g(1), g(2), g(4)]
    from helpers import lift_circuit

    assert lift_circuit(c, g).evaluate(roots) != g(0)


def test_member_brute_cap():
    b = CircuitBuilder(2)
    s = b.add(b.input(0), b.input(1))
    c = b.build(b.mul(s, s))
    ideal = UnivariateIdeal(((0, square_gen()), (1, square_gen())))
    with pytest.raises(CapExceeded):
        is_member_brute(c, ideal, monomial_cap=1)


def test_random_zero_test_identically_zero():
    rng = random.Random(5)
    assert not random_zero_test(lambda pt: F(0), 3, 4, 10, rng)


def test_random_zero_test_detects_nonzero():
    rng = random.Random(6)
    f = SparsePoly(2, {(1, 1): F(1)})
    assert random_zero_test(lambda pt: f.evaluate(pt), 2, 2, 10, rng)


def test_random_zero_test_degree_zero():
    rng = random.Random(7)
    assert random_zero_test(lambda pt: F(3), 1, 0, 1, rng)


def test_random_zero_test_small_field_rejected():
    g = GF(101)
    with pytest.raises(ValueError):
        random_zero_test(lambda pt: g(0), 1, 2, 1, random.Random(0), field=g)


def test_divide_annihilates_random_multiples():
    rng = random.Random(8)
    ideal = UnivariateIdeal(((0, boolean_gen()), (1, square_gen())))
    for _ in range(20):
        m = SparsePoly(2, {(rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(1, 5))})
        pv = SparsePoly(2, {(1, 0): F(-1), (2, 0): F(1)})
        assert divide(m * pv, ideal).is_zero()


def test_int_leading_coefficients_divide_exactly():
    # 1 / lc of an int leading coefficient is an exact Fraction (or the int
    # itself for +-1), never a float.
    ideal = UnivariateIdeal(((0, UnivariatePoly([1, 0, 3])),))
    r = divide(SparsePoly(1, {(3,): F(1)}), ideal)
    assert r == SparsePoly(1, {(1,): F(-1, 3)})
    assert all(type(c) is F for c in r.terms.values())
    table = power_table(UnivariatePoly([1, 0, 3]), 4)
    assert table[2] == UnivariatePoly([F(-1, 3)]) and table[4] == UnivariatePoly([F(1, 9)])
    assert all(type(c) in (int, F) for row in table for c in row.coeffs)
    monic_table = power_table(UnivariatePoly([2, -1, 1]), 5)
    assert all(type(c) is int for row in monic_table for c in row.coeffs)
    assert UnivariatePoly([1, 2, 4]).monic().coeffs == (F(1, 4), F(1, 2), 1)
    assert UnivariatePoly([3, -1]).monic().coeffs == (-3, 1)
    q, rem = UnivariatePoly([1, 0, 0, 1]).divmod(UnivariatePoly([1, 2]))
    assert q.coeffs == (F(1, 8), F(-1, 4), F(1, 2)) and rem.coeffs == (F(7, 8),)


# Fields of the fused-kernel check: QQ with int and with Fraction scalars, and
# two residue kernels.
AFFINE_FIELDS = {"qq-int": None, "qq-fraction": None, "gf7": 7, "gf-mersenne": 2**61 - 1}


@st.composite
def affine_products(draw):
    kind = draw(st.sampled_from(sorted(AFFINE_FIELDS)))
    p = AFFINE_FIELDS[kind]
    n = draw(st.integers(1, 4))

    def scalar(nonzero=False):
        a = draw(st.integers(-4, 4).filter(bool) if nonzero else st.integers(-4, 4))
        return F(a, draw(st.integers(1, 5))) if kind == "qq-fraction" else a

    gens = {}
    for v in range(n):
        if v == 0 or draw(st.booleans()):
            d = draw(st.integers(1, 4))
            lc = draw(st.sampled_from([1, 1, -1, 2, 3]))
            gens[v] = UnivariatePoly([scalar() for _ in range(d)] + [lc])
    reducer = _Reducer(UnivariateIdeal.from_dict(gens), p)
    exps = st.tuples(*[st.integers(0, 5)] * n)
    f = SparsePoly(n, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=8)), p)
    f = reducer.reduce(f.map_coeffs(lambda c: c * scalar(True)))
    h = {}
    for v in range(n):
        if draw(st.booleans()):
            h[tuple(int(j == v) for j in range(n))] = scalar(True)
    if draw(st.booleans()):
        h[(0,) * n] = scalar(True)
    return reducer, f, SparsePoly(n, h, p), draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(affine_products())
def test_mul_affine_is_reduced_product(case):
    reducer, f, h, cap = case
    want = reducer.reduce(f.mul(h))
    got = reducer.mul_affine(f, h)
    assert got == want and got.p == h.p
    assert all(type(c) is not float for c in got.terms.values())
    try:
        want = reducer.reduce(f.mul(h, cap=cap))
    except CapExceeded:
        with pytest.raises(CapExceeded):
            reducer.mul_affine(f, h, cap)
    else:
        assert reducer.mul_affine(f, h, cap) == want


def test_mul_affine_edge_cases():
    reducer = _Reducer(UnivariateIdeal(((0, boolean_gen()), (1, UnivariatePoly([1, 0, 2])))))
    f = SparsePoly(2, {(1, 1): F(2), (0, 0): F(-1)})
    h = SparsePoly(2, {(1, 0): F(1), (0, 1): F(3), (0, 0): F(5)})
    assert reducer.mul_affine(SparsePoly.zero(2), h).is_zero()
    assert reducer.mul_affine(f, SparsePoly.zero(2)).is_zero()
    assert reducer.mul_affine(f, SparsePoly.const(2, F(4))) == f.scale(4)
    assert reducer.mul_affine(f, h) == reducer.reduce(f.mul(h))
    # A non-affine h falls back to multiplying and reducing.
    quadratic = SparsePoly(2, {(1, 1): F(1), (0, 2): F(-3), (1, 0): F(2)})
    assert reducer.mul_affine(f, quadratic) == reducer.reduce(f.mul(quadratic))


def test_expand_with_reducer_reduces_plain_inputs():
    # Without images the inputs are the variables themselves; x0 is not
    # reduced mod x0 - 1 until expand reduces it, so Mul(x0, x1) is x1.
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(1)))
    ideal = UnivariateIdeal(((0, UnivariatePoly([F(-1), F(1)])), (1, boolean_gen())))
    want = divide(expand(c), ideal)
    assert want == SparsePoly.variable(2, 1)
    assert expand(c, reducer=_Reducer(ideal)) == want
