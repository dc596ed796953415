import math
import random
from fractions import Fraction

import pytest

from helpers import (
    P61,
    diagonal_evaluate,
    diagonal_to_sparse,
    mod_p,
    power_decompose_product,
    random_circuit,
    random_circuit_capped_degree,
)
from unideal.circuits import (
    CapExceeded,
    Circuit,
    CircuitBuilder,
    DiagonalCircuit,
    expand,
    homogeneous_part_eval,
    syntactic_degree,
)
from unideal.fields import residue
from unideal.hadamard import BLOCK
from unideal.linalg import LinearForm

F = Fraction


def build_x1_plus_x2_times_x1():
    b = CircuitBuilder(2)
    x1, x2 = b.input(0), b.input(1)
    return b.build(b.mul(b.add(x1, x2), x1))


def test_eval_const():
    b = CircuitBuilder(0)
    c = b.build(b.const(F(5)))
    assert c.evaluate([]) == 5


def test_eval_hand_expansion():
    # (x1 + x2) * x1 at (2, 3): hand expansion x1^2 + x1 x2 = 4 + 6
    c = build_x1_plus_x2_times_x1()
    assert c.evaluate([F(2), F(3)]) == 10


def test_eval_at_zero_gives_constant_term():
    rng = random.Random(1)
    for _ in range(20):
        c = random_circuit(rng, 3)
        assert c.evaluate([F(0)] * 3) == expand(c).terms.get((0, 0, 0), 0)


def test_expand_binomial():
    b = CircuitBuilder(2)
    s = b.add(b.input(0), b.input(1))
    c = b.build(b.mul(s, s))
    assert expand(c).terms == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}


def test_expand_eval_agreement():
    rng = random.Random(2)
    for _ in range(25):
        c = random_circuit(rng, rng.randint(1, 4))
        f = expand(c)
        for _ in range(20):
            pt = [F(rng.randint(-5, 5)) for _ in range(c.n)]
            assert f.evaluate(pt) == c.evaluate(pt)


def test_expand_cap():
    b = CircuitBuilder(2)
    s = b.add(b.input(0), b.input(1))
    c = b.build(b.mul(s, s))
    with pytest.raises(CapExceeded):
        expand(c, monomial_cap=1)
    # A gate the output does not reach is not expanded, so it cannot exceed
    # the cap: here the square is left dangling and the output is s.
    assert expand(Circuit(2, c.nodes, s), monomial_cap=2).terms == {(1, 0): F(1), (0, 1): F(1)}


def test_homogeneous_part_linear_slice():
    # f = 1 + x + x^2: degree-1 part at b is b.
    b = CircuitBuilder(1)
    x = b.input(0)
    c = mod_p(b.build(b.add(b.const(F(1)), x, b.mul(x, x))), P61)
    assert homogeneous_part_eval(c, 1, [[7]], P61)[0] == 7
    assert homogeneous_part_eval(c, 0, [[7]], P61)[0] == 1
    assert homogeneous_part_eval(c, 5, [[7]], P61)[0] == 0


def test_homogeneous_input_is_identity():
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(1)))
    assert homogeneous_part_eval(c, 2, [[3, 5]], P61)[0] == 15


def test_homogeneous_parts_sum_to_eval():
    rng = random.Random(6)
    for _ in range(15):
        c = random_circuit(rng, rng.randint(1, 3))
        d = syntactic_degree(c)
        pt = [F(rng.randint(-3, 3)) for _ in range(c.n)]
        cp, ipt = mod_p(c, P61), mod_p(pt, P61)
        total = sum(homogeneous_part_eval(cp, k, [ipt], P61)[0] for k in range(d + 1))
        assert total % P61 == residue(c.evaluate(pt), P61)


def test_homogeneous_part_over_small_fields():
    # Degree >= p is fine: compare with the degree-k terms of the expansion.
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(20):
            n = rng.randint(1, 3)
            b = CircuitBuilder(n)
            form = LinearForm(tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)), F(1, 2))
            shift = b.add(b.input(0), b.const(F(rng.randint(-2, 2))))
            prod = b.mul(b.linear(form), b.power(shift, p), b.input(n - 1))
            c = b.build(b.add(prod, b.mul(*[b.input(v) for v in range(n)])))
            d = syntactic_degree(c)
            assert d >= p
            f = expand(c)
            pt = [rng.randrange(p) for _ in range(n)]
            for k in range(d + 2):
                want = sum(
                    (coef * math.prod(F(x) ** y for x, y in zip(pt, e)) for e, coef in f.terms.items() if sum(e) == k),
                    F(0),
                )
                want = want.numerator * pow(want.denominator, -1, p) % p
                assert homogeneous_part_eval(mod_p(c, p), k, [pt], p)[0] == want


def _degree_part(f, k, point):
    """The degree-k terms of the expansion f at `point`, exactly."""
    return sum(
        (coef * math.prod(F(x) ** y for x, y in zip(point, e)) for e, coef in f.terms.items() if sum(e) == k),
        F(0),
    )


def _block_shapes(rng, n):
    """Random circuits plus outputs that are a Const, an Input and a Linear gate with a constant."""
    shapes = [random_circuit(rng, n, steps=6) for _ in range(3)]
    b = CircuitBuilder(n)
    shapes.append(b.build(b.const(F(-5, 3))))
    b = CircuitBuilder(n)
    shapes.append(b.build(b.input(n - 1)))
    b = CircuitBuilder(n)
    form = LinearForm(tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)), F(7, 2))
    shapes.append(b.build(b.mul(b.linear(form), b.add(b.input(0), b.const(F(2))))))
    b = CircuitBuilder(n)
    shapes.append(b.build(b.linear(form)))
    return shapes


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_homogeneous_part_block_matches_single_points(size):
    # One pass over a block of points gives, at every point, the value of a
    # one-point block and the degree-k terms of the expansion, at rational
    # points mapped mod P61 and at unreduced int points mod a smaller p;
    # k = 0 and k past the degree (value 0) included.
    rng = random.Random(size)
    p = 10007
    n = 3
    for c in _block_shapes(rng, n):
        f = expand(c)
        d = syntactic_degree(c)
        for k in sorted({0, 1, d, d + 2}):
            pts = [[F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)] for _ in range(size)]
            c61, pts61 = mod_p(c, P61), [mod_p(pt, P61) for pt in pts]
            got = homogeneous_part_eval(c61, k, pts61, P61)
            assert got == [residue(_degree_part(f, k, pt), P61) for pt in pts]
            assert got == [homogeneous_part_eval(c61, k, [pt], P61)[0] for pt in pts61]
            ipts = [[rng.randrange(p) for _ in range(n)] for _ in range(size)]
            cp = mod_p(c, p)
            got = homogeneous_part_eval(cp, k, ipts, p)
            want = [_degree_part(f, k, pt) for pt in ipts]
            assert got == [w.numerator * pow(w.denominator, -1, p) % p for w in want]
            assert got == [homogeneous_part_eval(cp, k, [pt], p)[0] for pt in ipts]
            assert all(type(v) is int and 0 <= v < p for v in got)


def test_homogeneous_part_block_edges():
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(1)))
    assert homogeneous_part_eval(c, 2, [], P61) == []
    with pytest.raises(ValueError):
        homogeneous_part_eval(c, 2, [[1, 2], [1]], P61)


def test_power_decompose_single_factor():
    dc = power_decompose_product([LinearForm((F(1),), F(1))], 1)
    assert dc.fan_in == 1
    ((coef, form),) = dc.summands
    assert coef == 1 and form.coeffs == (F(1),)


def test_power_decompose_difference_of_squares():
    dc = power_decompose_product([LinearForm((F(1), F(1))), LinearForm((F(1), F(-1)))], 2)
    assert diagonal_to_sparse(dc).terms == {(2, 0): F(1), (0, 2): F(-1)}


def test_power_decompose_elementary_symmetric():
    forms = [LinearForm((F(1), F(0), F(0)), F(1)),
             LinearForm((F(0), F(1), F(0)), F(1)),
             LinearForm((F(0), F(0), F(1)), F(1))]
    dc = power_decompose_product(forms, 2)
    want = {(1, 1, 0): F(1), (1, 0, 1): F(1), (0, 1, 1): F(1)}
    assert diagonal_to_sparse(dc).terms == want


def test_power_decompose_matches_homogeneous_extraction():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        k = rng.randint(0, m)
        forms = [
            LinearForm(tuple(F(rng.randint(-2, 2)) for _ in range(n)), F(rng.randint(-1, 2)))
            for _ in range(m)
        ]
        dc = power_decompose_product(forms, k)
        assert dc.fan_in == 2 ** (m - 1)
        b = CircuitBuilder(n)
        prod = mod_p(b.build(b.product([b.linear(f) for f in forms])), P61)
        for _ in range(20):
            pt = [F(rng.randint(-4, 4)) for _ in range(n)]
            want = residue(diagonal_evaluate(dc, pt), P61)
            assert homogeneous_part_eval(prod, k, [mod_p(pt, P61)], P61)[0] == want


def test_diagonal_circuit_rejects_affine_summands():
    with pytest.raises(ValueError):
        DiagonalCircuit(1, 2, ((F(1), LinearForm((F(1),), F(1))),))


def test_syntactic_degree_bounds_true_degree():
    rng = random.Random(9)
    for _ in range(20):
        c = random_circuit_capped_degree(rng, 2, 5)
        assert expand(c).degree() <= syntactic_degree(c) <= 5
