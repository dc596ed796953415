import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    P61,
    brute_power_membership,
    diagonal_evaluate,
    diagonal_to_sparse,
    literal_scaled_hadamard,
    mod_p,
    random_circuit_capped_degree,
    reference_detection_circuit,
)
from unideal.circuits import (
    Add,
    CircuitBuilder,
    Const,
    DiagonalCircuit,
    Input,
    Mul,
    expand,
    homogeneous_part_eval,
    syntactic_degree,
)
from unideal import fields, hadamard
from unideal.fields import GF
from unideal.hadamard import (
    BLOCK,
    PowerIdealSpec,
    build_detection_circuit,
    coverage_failure_bound,
    coverage_trials,
    membership_powers,
    scaled_hadamard_eval,
)
from unideal.linalg import LinearForm

F = Fraction


def test_scaled_hadamard_hand_example():
    # f = x1 x2 against D = (x1 + x2)^2: the definition gives 2 x1 x2.
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(1)))
    d = mod_p(DiagonalCircuit(2, 2, ((F(1), LinearForm((F(1), F(1)))),)), P61)
    assert scaled_hadamard_eval(c, d, [1, 1], P61) == 2
    assert scaled_hadamard_eval(c, d, [2, 3], P61) == 2 * 2 * 3


def test_scaled_hadamard_disjoint_support():
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(0)))  # x1^2
    d = mod_p(DiagonalCircuit(2, 2, ((F(1), LinearForm((F(0), F(1)))),)), P61)  # x2^2
    assert scaled_hadamard_eval(c, d, [5, 7], P61) == 0


def test_scaled_hadamard_full_power_sum():
    # homogeneous f of degree k against (sum x_i)^k equals k! f(b)
    b = CircuitBuilder(3)
    c = b.build(b.mul(b.input(0), b.input(1), b.input(2)))
    d = mod_p(DiagonalCircuit(3, 3, ((F(1), LinearForm((F(1), F(1), F(1)))),)), P61)
    assert scaled_hadamard_eval(c, d, [2, 3, 5], P61) == math.factorial(3) * 30


def test_scaled_hadamard_matches_literal_definition():
    # Each instance also runs with a drawn non-unit scale (from its own rng,
    # so the instances are those of the unit-scale check), mod P61 and mod a
    # smaller prime.
    rng = random.Random(0)
    scales = random.Random(1)
    p = 10007
    for _ in range(40):
        n, k = rng.randint(1, 4), rng.randint(0, 3)
        c = random_circuit_capped_degree(rng, n, 4)
        summands = tuple(
            (F(rng.randint(-3, 3)), LinearForm(tuple(F(rng.randint(-2, 2)) for _ in range(n))))
            for _ in range(rng.randint(1, 3))
        )
        d = DiagonalCircuit(n, k, summands)
        pt = [F(rng.randint(1, 6)) for _ in range(n)]
        c61, pt61 = mod_p(c, P61), mod_p(pt, P61)
        want = literal_scaled_hadamard(expand(c), diagonal_to_sparse(d), pt)
        assert scaled_hadamard_eval(c61, mod_p(d, P61), pt61, P61) == fields.residue(want, P61)
        d = DiagonalCircuit(n, k, summands, F(scales.randint(-9, 9) or 1, scales.randint(2, 9)))
        want = literal_scaled_hadamard(expand(c), diagonal_to_sparse(d), pt)
        assert scaled_hadamard_eval(c61, mod_p(d, P61), pt61, P61) == fields.residue(want, P61)
        assert scaled_hadamard_eval(mod_p(c, p), mod_p(d, p), mod_p(pt, p), p) == fields.residue(want, p)


@pytest.mark.parametrize("fan_in", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_scaled_hadamard_one_pass_per_block(monkeypatch, fan_in):
    # ceil(fan-in / BLOCK) passes over the circuit with at most BLOCK points
    # each, so the extra space does not grow with the fan-in; the value is the
    # per-summand sum, mod P61 and mod a smaller prime.
    passes = []

    def counted(c, k, points, p):
        passes.append(len(points))
        return homogeneous_part_eval(c, k, points, p)

    monkeypatch.setattr(hadamard, "homogeneous_part_eval", counted)
    rng = random.Random(fan_in)
    n, k, p = 3, 2, 10007
    c = random_circuit_capped_degree(rng, n, 3)
    summands = tuple(
        (
            F(rng.randint(-9, 9), rng.choice([1, 2, 3, 6])),
            LinearForm(tuple(rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), 2)]) for _ in range(n))),
        )
        for _ in range(fan_in)
    )
    d = DiagonalCircuit(n, k, summands)
    pt = [rng.randint(1, 50) for _ in range(n)]

    def per_summand(q):
        cq = mod_p(c, q)
        return sum(
            fields.residue(coef, q) * math.factorial(k)
            * homogeneous_part_eval(cq, k, [mod_p([l * b for l, b in zip(form.coeffs, pt)], q)], q)[0]
            for coef, form in summands
        ) % q

    blocks = [min(BLOCK, fan_in - start) for start in range(0, fan_in, BLOCK)]
    for q in (P61, p):
        passes.clear()
        assert scaled_hadamard_eval(mod_p(c, q), mod_p(d, q), pt, q) == per_summand(q)
        assert passes == blocks


def test_coverage_trials_formula():
    # k = 3: ceil(1.5k) = 5 colors, cover probability (5*4*3)/5^3 = 12/25
    assert coverage_trials(3) == math.ceil(4 * 3 * math.log(2) / (12 / 25))
    assert coverage_trials(1) == math.ceil(4 * math.log(2))  # probability 1


def test_coverage_monte_carlo():
    # k = 3, m = 6: fraction of covered 3-subsets across random coloring
    # batches should meet the 1 - 2^-k target with slack.
    import itertools

    rng = random.Random(1)
    k, m = 3, 6
    t = coverage_trials(k)
    kk = (3 * k + 1) // 2
    misses = 0
    runs = 1000
    for _ in range(runs):
        target = rng.sample(range(m), k)
        covered = False
        for _ in range(t):
            colors = {z: rng.randrange(kk) for z in target}
            if len(set(colors.values())) == k:
                covered = True
                break
        misses += not covered
    assert misses / runs <= 2 ** -k + 0.05


def test_detection_circuit_k0():
    d = build_detection_circuit(PowerIdealSpec((2, 2), 0), 5, random.Random(0))
    assert d.degree == 0 and d.fan_in == 1
    assert diagonal_evaluate(d, [F(9), F(9)]) == 1


def test_detection_circuit_holds_ints_and_one_scale():
    # Fischer's common factor binom(m,k) / (2^(m-1) m!), m = ceil(1.5k), is
    # the circuit's one Fraction; every coefficient and form entry is an int.
    for k in range(1, 5):
        d = build_detection_circuit(PowerIdealSpec((2, 3, 2, 3), k), 3, random.Random(k))
        m = (3 * k + 1) // 2
        assert type(d.scale) is Fraction
        assert d.scale == Fraction(math.comb(m, k), 2 ** (m - 1) * math.factorial(m))
        for coef, form in d.summands:
            assert type(coef) is int and type(form.const) is int
            assert all(type(x) is int for x in form.coeffs)


def test_detection_circuit_matches_per_coloring_reference():
    # Fischer's table, built once per degree, gives what the identity gives
    # applied to each coloring's own product of forms: the same summands in
    # the same order under the same scale, and the same draws from the rng.
    # The grid holds k = 0 and k = m (every placeholder copy in the monomial).
    for exps in [(2, 2), (4,), (2,) * 6, (2, 2, 3, 1, 2), (3,) * 6]:
        m = sum(e - 1 for e in exps)
        for k in range(min(6, m) + 1):
            spec = PowerIdealSpec(exps, k)
            for trials in (1, 3):
                for seed in (0, 1):
                    rng, ref = random.Random(seed), random.Random(seed)
                    assert build_detection_circuit(spec, trials, rng) == reference_detection_circuit(spec, trials, ref)
                    assert rng.getstate() == ref.getstate()


def test_zero_trials_rejected():
    # x0 x1 is not in <x0^2, x1^2>; no coloring at all must not answer "in ideal".
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(1)))
    spec = PowerIdealSpec((2, 2), 2)
    assert membership_powers(c, spec, trials=5, rng=random.Random(0))
    for trials in (0, -1):
        with pytest.raises(ValueError):
            membership_powers(c, spec, trials=trials, rng=random.Random(0))
        with pytest.raises(ValueError):
            build_detection_circuit(spec, trials, random.Random(0))


def test_detection_circuit_covers_multilinear():
    spec = PowerIdealSpec((2, 2), 2)
    d = build_detection_circuit(spec, 8, random.Random(2))
    sp = diagonal_to_sparse(d)
    assert sp.terms.get((1, 1), F(0)) > 0
    assert d.fan_in == 8 * 2 ** ((3 * 2 + 1) // 2 - 1)


def test_detection_circuit_support_restriction():
    # e = (3, 1): both placeholder copies belong to x1; x1 x2 can never appear.
    spec = PowerIdealSpec((3, 1), 2)
    for seed in range(6):
        d = build_detection_circuit(spec, 8, random.Random(seed))
        sp = diagonal_to_sparse(d)
        assert sp.terms.get((1, 1), F(0)) == 0


def test_detection_circuit_nonnegative_no_cancellation():
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(1, 4)
        exps = tuple(rng.randint(1, 3) for _ in range(n))
        m = sum(e - 1 for e in exps)
        if m > 8:
            continue
        k = rng.randint(1, min(4, m) if m else 1)
        if k > m:
            continue
        spec = PowerIdealSpec(exps, k)
        d = build_detection_circuit(spec, rng.randint(1, 6), rng)
        sp = diagonal_to_sparse(d)
        assert all(c > 0 for c in sp.terms.values())
        # support stays inside the survivors of the ideal
        for e in sp.terms:
            assert sum(e) == k
            assert all(e[i] <= exps[i] - 1 for i in range(n))


def test_fan_in_formula_exact():
    rng = random.Random(4)
    for k in range(1, 5):
        for trials in (1, 3, 7):
            spec = PowerIdealSpec((2,) * (2 * k), k)
            d = build_detection_circuit(spec, trials, rng)
            kk = (3 * k + 1) // 2
            assert d.fan_in == trials * 2 ** (kk - 1)


def test_membership_powers_trivial_cases():
    b = CircuitBuilder(2)
    c = b.build(b.mul(b.input(0), b.input(1)))
    assert membership_powers(c, PowerIdealSpec((2, 2), 2), rng=random.Random(5))
    b2 = CircuitBuilder(2)
    c2 = b2.build(b2.mul(b2.input(0), b2.input(0)))
    assert not membership_powers(c2, PowerIdealSpec((2, 2), 2), rng=random.Random(6))


def test_membership_powers_low_degree_survivor():
    # A survivor of degree below k must still be found.
    b = CircuitBuilder(2)
    x1, x2 = b.input(0), b.input(1)
    c = b.build(b.add(x1, b.mul(x1, x1, x2)))
    assert membership_powers(c, PowerIdealSpec((2, 3), 3), rng=random.Random(7))


def test_membership_powers_against_brute():
    rng = random.Random(8)
    checked = 0
    for t in range(60):
        n = rng.randint(1, 6)
        c = random_circuit_capped_degree(rng, n, 4)
        k = syntactic_degree(c)
        exps = tuple(rng.randint(1, 3) for _ in range(n))
        got = membership_powers(c, PowerIdealSpec(exps, k), rng=random.Random(1000 + t))
        want = not brute_power_membership(c, exps)
        assert got == want
        checked += 1
    assert checked == 60


def test_membership_powers_multilinear_detection():
    # e_i = 2 everywhere reduces to multilinear monomial detection.
    rng = random.Random(9)
    for t in range(25):
        n = rng.randint(1, 8)
        c = random_circuit_capped_degree(rng, n, 4)
        k = syntactic_degree(c)
        exps = (2,) * n
        got = membership_powers(c, PowerIdealSpec(exps, k), rng=random.Random(2000 + t))
        f = expand(c)
        has_multilinear = any(all(x <= 1 for x in e) for e in f.terms)
        assert got == has_multilinear


def test_membership_powers_builds_no_prime_field():
    # Each drawn prime is used as a plain modulus: no GF(p) is built for it,
    # so the field cache does not grow with the number of primes drawn.
    rng = random.Random(21)
    before = len(fields._GF_CACHE)
    for _ in range(5):
        c = random_circuit_capped_degree(rng, 3, 3)
        membership_powers(c, PowerIdealSpec((2, 2, 2), 3), rng=rng)
    assert len(fields._GF_CACHE) == before


def test_coverage_failure_bound_shrinks():
    assert coverage_failure_bound(3, 6, 40) < coverage_failure_bound(3, 6, 10)
    assert coverage_failure_bound(2, 4, 200) < Fraction(1, 2**20)


_scalars = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 3))
    b = CircuitBuilder(n)
    ids = [b.input(i) for i in range(n)] + [b.const(draw(_scalars))]
    degs = [1] * n + [0]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["add", "mul", "linear"]))
        if kind == "linear":
            ids.append(b.linear(LinearForm(tuple(draw(_scalars) for _ in range(n)), draw(_scalars))))
            degs.append(1)
            continue
        x, y = draw(st.integers(0, len(ids) - 1)), draw(st.integers(0, len(ids) - 1))
        if kind == "mul" and degs[x] + degs[y] <= 6:
            ids.append(b.mul(ids[x], ids[y]))
            degs.append(degs[x] + degs[y])
        else:
            ids.append(b.add(ids[x], ids[y]))
            degs.append(max(degs[x], degs[y]))
    return b.build(ids[-1])


def _sympy_poly(sympy, c, xs):
    """The circuit as an expanded sympy polynomial, built gate by gate."""
    def q(v):
        return sympy.Rational(v.numerator, v.denominator)

    vals = []
    for node in c.nodes:
        if isinstance(node, Input):
            vals.append(xs[node.var])
        elif isinstance(node, Const):
            vals.append(q(node.value))
        elif isinstance(node, Add):
            vals.append(sympy.Add(*[vals[ch] for ch in node.children]))
        elif isinstance(node, Mul):
            vals.append(sympy.Mul(*[vals[ch] for ch in node.children]))
        else:
            form = node.form
            vals.append(sum((q(v) * x for v, x in zip(form.coeffs, xs)), q(F(form.const))))
    return sympy.Poly(sympy.expand(vals[c.out]), *xs)


def _to_residue(r, p):
    return int(r.p) * pow(int(r.q), -1, p) % p


def test_homogeneous_part_and_scaled_hadamard_match_sympy():
    # sympy expands the circuit and keeps the total-degree-k terms; nothing
    # here goes through `expand` or the series kernel.
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=60, deadline=None)
    @given(_circuits(), st.data())
    def check(c, data):
        n = c.n
        xs = sympy.symbols(f"x0:{n}")
        f = _sympy_poly(sympy, c, xs)
        k = data.draw(st.integers(0, 7))
        pt = [F(data.draw(st.integers(-4, 4)), data.draw(st.sampled_from([1, 2]))) for _ in range(n)]
        p = data.draw(st.sampled_from([3, 5, 7]))
        ipt = [data.draw(st.integers(0, p - 1)) for _ in range(n)]

        def part(point):
            return sum(
                (coef * sympy.prod(x**e for x, e in zip(point, mon)) for mon, coef in f.terms() if sum(mon) == k),
                sympy.Integer(0),
            )

        want = part([sympy.Rational(x.numerator, x.denominator) for x in pt])
        assert homogeneous_part_eval(mod_p(c, P61), k, [mod_p(pt, P61)], P61)[0] == _to_residue(want, P61)
        assert homogeneous_part_eval(mod_p(c, p), k, [ipt], p)[0] == _to_residue(part([sympy.Integer(x) for x in ipt]), p)

        # The literal definition: sum over monomials m of m! [m]f [m]D b^m.
        summands = tuple(
            (data.draw(_scalars), LinearForm(tuple(F(data.draw(st.integers(-2, 2))) for _ in range(n))))
            for _ in range(data.draw(st.integers(1, 3)))
        )
        d = DiagonalCircuit(n, k, summands)
        g = sympy.Integer(0)
        for cf, form in summands:
            lin = sum((int(v) * x for v, x in zip(form.coeffs, xs)), sympy.Integer(0))
            g += sympy.Rational(cf.numerator, cf.denominator) * lin**k
        g = sympy.Poly(sympy.expand(g), *xs)

        def literal(point):
            total = sympy.Integer(0)
            for mon, cg in g.terms():
                cf = f.coeff_monomial(mon)
                if cf:
                    total += sympy.prod(sympy.factorial(e) for e in mon) * cf * cg * sympy.prod(
                        x**e for x, e in zip(point, mon)
                    )
            return total

        want = literal([sympy.Rational(x.numerator, x.denominator) for x in pt])
        assert scaled_hadamard_eval(mod_p(c, P61), mod_p(d, P61), mod_p(pt, P61), P61) == _to_residue(want, P61)
        field = GF(p)
        got = scaled_hadamard_eval(mod_p(c, p), mod_p(d, p), ipt, p)
        assert got == field(_to_residue(literal([sympy.Integer(x) for x in ipt]), p))

    check()
