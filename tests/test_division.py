import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import map_coeffs, random_ideal, random_sparse
from unideal.circuits import CircuitBuilder, expand
from unideal.division import (
    UnivariateIdeal,
    _Reducer,
    divide,
    is_member_brute,
    random_zero_test,
)
from unideal.fields import GF, QQ, FieldMismatch, residue
from unideal.poly import CapExceeded, SparsePoly, UnivariatePoly

F = Fraction


def boolean_gen():
    return UnivariatePoly([F(0), F(-1), F(1)])  # x^2 - x


def square_gen():
    return UnivariatePoly([F(0), F(0), F(1)])  # x^2


def x_power(e):
    return SparsePoly(1, {(e,): F(1)})


def single(p):
    return UnivariateIdeal(((0, p),))


def test_divide_powers_idempotent_variable():
    # x^2 - x: x^e = x for every e >= 1
    ideal = single(boolean_gen())
    assert divide(x_power(0), ideal) == SparsePoly.const(1, F(1))
    for e in range(1, 6):
        assert divide(x_power(e), ideal) == x_power(1)


def test_divide_powers_nilpotent():
    ideal = single(square_gen())
    assert divide(x_power(2), ideal).is_zero() and divide(x_power(3), ideal).is_zero()


def test_divide_powers_below_degree_unchanged():
    ideal = single(UnivariatePoly([F(1), F(2), F(0), F(1)]))
    assert divide(x_power(1), ideal) == x_power(1)
    assert divide(x_power(2), ideal) == x_power(2)


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
    # of unity in GF(7) (2 has order 3), on ints reduced mod 7.
    from unideal.reductions import graph_coloring_instance
    from unideal.apps import Graph

    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    c, ideal = graph_coloring_instance(tri, 3)
    assert not is_member_brute(c, ideal)
    assert residue(c.evaluate([1, 2, 4]), 7) != 0


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
    ideal = single(UnivariatePoly([1, 0, 3]))
    assert divide(x_power(2), ideal) == SparsePoly.const(1, F(-1, 3))
    ninth = divide(x_power(4), ideal)
    assert ninth == SparsePoly.const(1, F(1, 9)) and type(ninth.terms[(0,)]) is F
    monic = single(UnivariatePoly([2, -1, 1]))
    assert _Reducer(monic).rows == {0: (-2, 1)}
    for e in range(6):
        r = divide(SparsePoly(1, {(e,): 1}), monic)
        assert all(type(c) is int for c in r.terms.values())
    assert UnivariatePoly([1, 2, 4]).monic().coeffs == (F(1, 4), F(1, 2), 1)
    assert UnivariatePoly([3, -1]).monic().coeffs == (-3, 1)
    q, rem = UnivariatePoly([1, 0, 0, 1]).divmod(UnivariatePoly([1, 2]))
    assert q.coeffs == (F(1, 8), F(-1, 4), F(1, 2)) and rem.coeffs == (F(7, 8),)


def test_divide_matches_sympy_reduced():
    # An oracle that shares no code with `divide`: sympy's multivariate
    # division by the generators, which form a Groebner basis.  Exponents
    # reach 3 deg(p_v), so a term folds through several powers of its
    # variable; over GF(p) the QQ remainder is mapped mod p.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    moduli = (7, 2**61 - 1)
    checked = dict.fromkeys(moduli, 0)
    kinds = set()
    for trial in range(40):
        n = rng.randint(1, 3)
        fraction = trial % 2 == 1

        def scalar(nonzero=False):
            a = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) if nonzero else rng.randint(-4, 4)
            return F(a, rng.randint(1, 5)) if fraction else a

        gens = {}
        for v in range(n):
            d = rng.randint(1, 3)
            lc = scalar(True) if fraction else rng.choice([1, -1, 2, 3])
            gens[v] = UnivariatePoly([scalar() for _ in range(d)] + [lc])
            kinds.update({"linear"} if d == 1 else set(), {"monic"} if lc == 1 else {"non-monic"})
        ideal = UnivariateIdeal(tuple(sorted(gens.items())))
        terms = {}
        for _ in range(rng.randint(1, 8)):
            terms[tuple(rng.randint(0, 3 * gens[v].degree()) for v in range(n))] = scalar(True)

        xs = sympy.symbols(f"x0:{n}")
        q = lambda c: sympy.Rational(F(c).numerator, F(c).denominator)
        fs = sum(q(c) * sympy.Mul(*[x**k for x, k in zip(xs, e)]) for e, c in terms.items())
        basis = [sum(q(c) * xs[v] ** k for k, c in enumerate(p.coeffs)) for v, p in gens.items()]
        _, rem = sympy.reduced(fs, basis, *xs)
        want = {e: F(int(c.p), int(c.q)) for e, c in sympy.Poly(rem, *xs).terms() if c}

        got = divide(SparsePoly(n, terms), ideal)
        assert got == SparsePoly(n, want)
        assert all(type(c) in (int, F) for c in got.terms.values())
        for p in moduli:
            try:
                f_p, want_p = SparsePoly(n, terms, p), SparsePoly(n, want, p)
                got_p = divide(f_p, ideal)
            except FieldMismatch:  # a denominator or leading coefficient vanishes mod p
                continue
            assert got_p == want_p
            checked[p] += 1
    assert kinds == {"linear", "monic", "non-monic"}
    assert checked[7] >= 20 and checked[2**61 - 1] == 40


# Fields of the fused-kernel check: QQ with int and with Fraction scalars, and
# two residue kernels.
KERNEL_FIELDS = {"qq-int": None, "qq-fraction": None, "gf7": 7, "gf-mersenne": 2**61 - 1}


@st.composite
def kernel_products(draw):
    """A reducer, a reduced f and an h of degree <= 2.

    Some variables have no generator (they never fold) and some generators
    have degree 1 (every shift folds); h gets constants, variables, squares
    and products of two variables.
    """
    kind = draw(st.sampled_from(sorted(KERNEL_FIELDS)))
    p = KERNEL_FIELDS[kind]
    n = draw(st.integers(1, 4))

    def scalar(nonzero=False):
        a = draw(st.integers(-4, 4).filter(bool) if nonzero else st.integers(-4, 4))
        return F(a, draw(st.integers(1, 5))) if kind == "qq-fraction" else a

    gens = {}
    for v in range(n):
        if v == 0 or draw(st.booleans()):
            d = draw(st.sampled_from([1, 1, 2, 3, 4]))
            lc = draw(st.sampled_from([1, 1, -1, 2, 3]))
            gens[v] = UnivariatePoly([scalar() for _ in range(d)] + [lc])
    reducer = _Reducer(UnivariateIdeal(tuple(sorted(gens.items()))), p)
    exps = st.tuples(*[st.integers(0, 5)] * n)
    f = SparsePoly(n, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=8)), p)
    f = reducer.reduce(map_coeffs(f, lambda c: c * scalar(True)))
    h = {}
    for u in range(n):
        for v in range(u, n + 1):  # v == n: the variable x_u alone
            if draw(st.integers(0, 2)) == 0:
                e = [0] * n
                e[u] += 1
                if v < n:
                    e[v] += 1
                h[tuple(e)] = scalar(True)
    if draw(st.booleans()):
        h[(0,) * n] = scalar(True)
    return reducer, f, SparsePoly(n, h, p)


@settings(max_examples=300, deadline=None)
@given(kernel_products())
def test_reducer_mul_is_reduced_product(case):
    reducer, f, h = case
    want = reducer.reduce(f.mul(h))
    got = reducer.mul(f, h)
    assert got == want and got.p == h.p
    assert all(type(c) is not float for c in got.terms.values())


def test_reducer_mul_edge_cases():
    reducer = _Reducer(UnivariateIdeal(((0, boolean_gen()), (1, UnivariatePoly([1, 0, 2])))))
    f = SparsePoly(2, {(1, 1): F(2), (0, 0): F(-1)})
    h = SparsePoly(2, {(1, 0): F(1), (0, 1): F(3), (0, 0): F(5)})
    assert reducer.mul(SparsePoly.zero(2), h).is_zero()
    assert reducer.mul(f, SparsePoly.zero(2)).is_zero()
    assert reducer.mul(f, SparsePoly.const(2, F(4))) == f.scale(4)
    assert reducer.mul(f, h) == reducer.reduce(f.mul(h))
    quadratic = SparsePoly(2, {(1, 1): F(1), (0, 2): F(-3), (1, 0): F(2)})
    assert reducer.mul(f, quadratic) == reducer.reduce(f.mul(quadratic))


def test_reducer_mul_forms_no_product_below_degree_three(monkeypatch):
    # h of degree <= 2 runs the shift-and-fold passes only; a cubic h
    # multiplies with `SparsePoly.mul` and reduces after.
    reducer = _Reducer(UnivariateIdeal(((0, boolean_gen()), (2, UnivariatePoly([1, -1, 0, 1])))))
    f = SparsePoly(3, {(1, 0, 2): 2, (0, 3, 1): -1, (0, 0, 0): 5})
    quadratic = SparsePoly(3, {(0, 1, 1): 1, (0, 0, 2): -3, (2, 0, 0): 4, (0, 0, 0): -1})
    cubic = SparsePoly(3, {(1, 1, 1): 1, (0, 0, 2): -3})
    want = {h: reducer.reduce(f.mul(h)) for h in (quadratic, cubic)}
    calls = []
    real = SparsePoly.mul

    def spy(self, other, cap=None):
        calls.append(other)
        return real(self, other, cap)

    monkeypatch.setattr(SparsePoly, "mul", spy)
    assert reducer.mul(f, quadratic) == want[quadratic] and calls == []
    assert reducer.mul(f, cubic) == want[cubic] and calls == [cubic]


def test_expand_with_reducer_reduces_plain_inputs():
    # Without images the inputs are the variables themselves; x0 is not
    # reduced mod x0 - 1 until expand reduces it, so Mul(x0, x1) is x1.
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(1)))
    ideal = UnivariateIdeal(((0, UnivariatePoly([F(-1), F(1)])), (1, boolean_gen())))
    want = divide(expand(c), ideal)
    assert want == SparsePoly.variable(2, 1)
    assert expand(c, reducer=_Reducer(ideal)) == want
